#include "xdbbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "src/common/json_writer.h"
#include "src/dbms/server.h"
#include "src/tpch/queries.h"
#include "src/xdb/session.h"
#include "xdbbench/oracle.h"
#include "xdbbench/replay.h"
#include "xdbbench/workloads.h"

namespace xdbbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// VmHWM (peak resident set) of this process, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Steal and total jiffies of all CPUs (/proc/stat): time the hypervisor
/// ran something else while this VM wanted the CPU.
std::pair<double, double> StealAndTotalJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0;
  double total = 0;
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    if (!(stat >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

int Nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Quantile `q` in [0,1] of `v` with linear interpolation between order
/// statistics (0 for an empty vector).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// What every timed query leaves behind: small and fixed-size, so the
/// bookkeeping does not grow the process with the number of queries run.
/// The statement itself is regenerated from the seed for the oracle check.
struct Outcome {
  double latency_ms = 0;
  ResultDigest digest;
  std::string error;  // empty on success
  bool traced = false;  // replayed through TracedReplayer
};

/// Exact per-query figures read from the returned XdbReport.
struct ExactFigures {
  double modelled_s = 0;
  double transfer_bytes = 0;
  double metadata_roundtrips = 0;
  double consultations = 0;
  double tasks = 0;
  double ddl_statements = 0;
  xdb::ComputeTrace exec;
  double transfers = 0;
  double transfer_rows = 0;
  double messages = 0;
  double retries = 0;
};

ExactFigures ExactOf(const xdb::XdbReport& rep) {
  ExactFigures f;
  f.modelled_s = rep.total_seconds();
  f.transfer_bytes = rep.transferred_bytes();
  f.metadata_roundtrips = rep.metadata_roundtrips;
  f.consultations = rep.consultations;
  f.tasks = static_cast<double>(rep.plan.tasks.size());
  f.ddl_statements = rep.ddl_statements;
  for (const auto& [server, compute] : rep.trace.per_server) {
    f.exec.Add(compute);
  }
  f.transfers = static_cast<double>(rep.trace.transfers.size());
  for (const auto& t : rep.trace.transfers) {
    f.transfer_rows += t.rows;
    f.messages += static_cast<double>(t.messages);
  }
  f.retries = static_cast<double>(rep.trace.retries.size());
  return f;
}

/// One client's share of a timed phase.
struct ClientLog {
  std::vector<Outcome> outcomes;
  std::vector<ExactFigures> exact;  // the first `sample` successes (client 0)
};

/// Everything a timed phase runs against; members are declared so they
/// are destroyed sessions-first, federation-last. Never move-assign one
/// over a live System (that would free the federation first).
struct System {
  std::unique_ptr<xdb::Federation> fed;
  std::unique_ptr<xdb::XdbSystem> xdb;
  std::unique_ptr<xdb::SessionManager> manager;
  std::vector<std::unique_ptr<xdb::XdbSession>> sessions;
  std::vector<std::unique_ptr<StatementSource>> sources;
};

struct SetupTimes {
  double federation_s = 0;
  double system_s = 0;
  double warm_s = 0;
  double total() const { return federation_s + system_s + warm_s; }
};

/// Ad-hoc statements client 0 runs once during set-up (catalog metadata,
/// allocator); the timed phase continues the same stream.
constexpr size_t kAdhocWarmStatements = 64;
constexpr int kSetupRepetitions = 5;

std::unique_ptr<StatementSource> MakeSource(const WorkloadSpec& spec,
                                            uint64_t seed, int client) {
  if (spec.adhoc) {
    return std::make_unique<AdhocGenerator>(
        DeriveSeed(seed, static_cast<uint64_t>(client)));
  }
  return std::make_unique<TpchSchedule>(seed, client);
}

/// Statements client 0 consumed from its stream during set-up.
size_t WarmStatements(const WorkloadSpec& spec, int client) {
  return spec.adhoc && client == 0 ? kAdhocWarmStatements : 0;
}

/// Federation build, XdbSystem construction and one warm pass: all the work
/// before the first timed query. Empty `*error` on success.
System SetUp(const WorkloadSpec& spec, uint64_t seed, SetupTimes* times,
             std::string* error) {
  System sys;
  auto t0 = Clock::now();
  sys.fed = BuildFederation(seed, xdb::tpch::TD1());
  times->federation_s = SecondsSince(t0);
  if (sys.fed == nullptr) {
    *error = "federation build failed";
    return sys;
  }

  t0 = Clock::now();
  xdb::XdbOptions opts;
  opts.scale_up = kScaleUp;
  opts.exec_threads = kExecThreads;
  opts.plan_cache_capacity = kPlanCacheCapacity;
  sys.xdb = std::make_unique<xdb::XdbSystem>(sys.fed.get(), opts);
  if (spec.sessions) {
    sys.manager = std::make_unique<xdb::SessionManager>(sys.xdb.get());
    for (int c = 0; c < spec.clients; ++c) {
      sys.sessions.push_back(sys.manager->OpenSession());
    }
  }
  for (int c = 0; c < spec.clients; ++c) {
    sys.sources.push_back(MakeSource(spec, seed, c));
  }
  times->system_s = SecondsSince(t0);

  t0 = Clock::now();
  std::vector<Statement> warm;
  for (size_t i = 0; i < WarmStatements(spec, 0); ++i) {
    warm.push_back(sys.sources[0]->Next());
  }
  if (!spec.adhoc) {
    for (const auto& q : xdb::tpch::EvaluationQueries()) {
      warm.push_back({q.sql, q.id});
    }
  }
  for (const auto& s : warm) {
    xdb::QueryContext ctx;
    ctx.label = s.label;
    auto r = sys.xdb->Query(s.sql, ctx);
    if (!r.ok()) {
      *error = "warm-up query failed: " + r.status().ToString();
      return sys;
    }
  }
  times->warm_s = SecondsSince(t0);
  return sys;
}

/// Closed-loop client: issues its next statement only after the previous
/// one returned, until `deadline`. With a `replayer` (traced runs), every
/// second statement is replayed through it instead, so the traced and the
/// untraced queries share the stream and the machine's state over time.
void RunClient(System* sys, int client, Clock::time_point deadline,
               size_t exact_sample, TracedReplayer* replayer, ClientLog* log) {
  StatementSource& source = *sys->sources[static_cast<size_t>(client)];
  xdb::XdbSession* session =
      sys->sessions.empty() ? nullptr
                            : sys->sessions[static_cast<size_t>(client)].get();
  while (Clock::now() < deadline) {
    const Statement s = source.Next();
    Outcome o;
    o.traced = replayer != nullptr && log->outcomes.size() % 2 == 1;
    const auto t0 = Clock::now();
    if (o.traced) {
      xdb::Result<xdb::TablePtr> r = replayer->Run(s.sql);
      o.latency_ms = SecondsSince(t0) * 1e3;
      if (r.ok()) {
        o.digest = DigestOf(**r);
      } else {
        o.error = r.status().ToString();
      }
    } else {
      xdb::Result<xdb::XdbReport> r = [&] {
        if (session != nullptr) return session->Query(s.sql, s.label);
        xdb::QueryContext ctx;
        ctx.label = s.label;
        return sys->xdb->Query(s.sql, ctx);
      }();
      o.latency_ms = SecondsSince(t0) * 1e3;
      if (r.ok()) {
        o.digest = DigestOf(*r->result);
        if (log->exact.size() < exact_sample) {
          log->exact.push_back(ExactOf(*r));
        }
      } else {
        o.error = r.status().ToString();
      }
    }
    log->outcomes.push_back(std::move(o));
  }
}

struct PhaseResult {
  std::vector<ClientLog> per_client;
  double wall_s = 0;
  double cpu_s = 0;
  double steal_pct = 0;  // of all CPUs' time during the phase
  int64_t queries = 0;
};

template <typename ClientFn>
PhaseResult RunPhase(int clients, double seconds, ClientFn fn) {
  PhaseResult phase;
  phase.per_client.resize(static_cast<size_t>(clients));
  const double cpu0 = CpuSeconds();
  const auto [steal0, total0] = StealAndTotalJiffies();
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(fn, c, deadline,
                         &phase.per_client[static_cast<size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  phase.wall_s = SecondsSince(t0);
  phase.cpu_s = CpuSeconds() - cpu0;
  const auto [steal1, total1] = StealAndTotalJiffies();
  if (total1 > total0) {
    phase.steal_pct = (steal1 - steal0) / (total1 - total0) * 100.0;
  }
  for (const auto& log : phase.per_client) {
    phase.queries += static_cast<int64_t>(log.outcomes.size());
  }
  return phase;
}

/// Where the traced median query's time goes.
struct LayerBreakdown {
  std::vector<double> layer_us;  // indexed by Layer
  double unattributed_us = 0;    // whole-query span minus its layer spans
  double p50_us = 0;             // median whole-query span
  size_t queries = 0;
};

/// Each layer's mean over the median band: the queries whose whole-query
/// span lies between the 45th and 55th percentile. Per-layer means over one
/// band add up (with the unattributed rest) to the band's mean, which sits
/// at the traced p50; independent per-layer medians would not add up.
LayerBreakdown BreakDown(
    const std::vector<std::unique_ptr<TracedReplayer>>& replayers) {
  using Query = std::array<double, kNumLayers + 1>;  // layers, then total
  std::vector<Query> queries;
  for (const auto& rp : replayers) {
    std::map<int64_t, Query> by_id;
    for (const SpanRecord& s : rp->spans()) {
      const double us = static_cast<double>(s.end_ns - s.begin_ns) * 1e-3;
      by_id[s.query][s.layer == kQuerySpan ? kNumLayers : s.layer] += us;
    }
    for (const auto& [id, q] : by_id) queries.push_back(q);
  }
  LayerBreakdown out;
  out.layer_us.assign(kNumLayers, 0.0);
  out.queries = queries.size();
  if (queries.empty()) return out;
  std::sort(queries.begin(), queries.end(), [](const Query& a, const Query& b) {
    return a[kNumLayers] < b[kNumLayers];
  });
  const size_t n = queries.size();
  const size_t lo = n * 9 / 20;
  const size_t hi = std::max(lo + 1, (n * 11 + 19) / 20);
  std::vector<double> totals;
  for (const Query& q : queries) totals.push_back(q[kNumLayers]);
  out.p50_us = Quantile(totals, 0.5);
  const double band = static_cast<double>(hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    double covered = 0;
    for (int l = 0; l < kNumLayers; ++l) {
      out.layer_us[static_cast<size_t>(l)] += queries[i][l] / band;
      covered += queries[i][l];
    }
    out.unattributed_us += (queries[i][kNumLayers] - covered) / band;
  }
  return out;
}

/// A timed query paired with the statement it ran.
struct Checked {
  Statement statement;
  const Outcome* outcome;
};

/// Re-derives every client's statements from the seed (warm statements
/// first, then the timed phase, in stream order) and pairs them with the
/// outcomes.
std::vector<Checked> PairWithStatements(const WorkloadSpec& spec,
                                        uint64_t seed,
                                        const PhaseResult& phase) {
  std::vector<Checked> out;
  for (int c = 0; c < spec.clients; ++c) {
    auto source = MakeSource(spec, seed, c);
    for (size_t i = 0; i < WarmStatements(spec, c); ++i) source->Next();
    for (const Outcome& o :
         phase.per_client[static_cast<size_t>(c)].outcomes) {
      out.push_back({source->Next(), &o});
    }
  }
  return out;
}

/// Checks every timed query against the single-server oracle. Returns the
/// number that failed (errors, mismatches); `first_problem` names one.
/// Each distinct statement runs once on the oracle, spread over `threads`.
int64_t OracleCheck(xdb::DatabaseServer* oracle,
                    const std::vector<Checked>& checked, int threads,
                    std::string* first_problem) {
  std::unordered_map<std::string, std::optional<ResultDigest>> expected;
  for (const Checked& c : checked) {
    expected.emplace(c.statement.sql, std::nullopt);
  }
  std::vector<std::pair<const std::string, std::optional<ResultDigest>>*> todo;
  for (auto& entry : expected) todo.push_back(&entry);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&todo, oracle, t, threads] {
      for (size_t i = static_cast<size_t>(t); i < todo.size();
           i += static_cast<size_t>(threads)) {
        auto r = oracle->ExecuteQuery(todo[i]->first);
        if (r.ok()) todo[i]->second = DigestOf(**r);
      }
    });
  }
  for (auto& w : workers) w.join();

  int64_t failed = 0;
  auto note = [&](const std::string& what) {
    ++failed;
    if (first_problem->empty()) *first_problem = what;
  };
  for (const Checked& c : checked) {
    const std::string& sql = c.statement.sql;
    if (!c.outcome->error.empty()) {
      note(c.outcome->error + " on: " + sql);
    } else if (!expected.at(sql).has_value()) {
      note("oracle failed on: " + sql);
    } else if (!(*expected.at(sql) == c.outcome->digest)) {
      note("result differs from the oracle on: " + sql);
    }
  }
  return failed;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Sanitizer or unoptimized builds measure something else; the record
/// flags them.
std::string BuildFlag() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer";
#endif
#endif
#if !defined(__OPTIMIZE__)
  return "unoptimized";
#else
  return "";
#endif
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"cpu_ms_per_query", "ms"},
      {"peak_rss_mb", "MB"},
      {"modelled_s_per_query", "s"},
      {"transfer_kb_per_query", "KB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> m;
    for (int l = 0; l < kNumLayers; ++l) {
      m.push_back({LayerMetricName(l), "us"});
    }
    m.insert(m.end(), {
                          {"trace.unattributed_us", "us"},
                          {"trace.overhead_pct", "%"},
                          {"xdb.catalog.metadata_roundtrips", "count"},
                          {"xdb.plan_cache.hit_ratio", "ratio"},
                          {"xdb.annotate.consultations", "count"},
                          {"xdb.finalize.tasks", "count"},
                          {"xdb.deploy.ddl_statements", "count"},
                          {"xdb.cleanup.stranded_relations", "count"},
                          {"exec.scan_rows", "rows"},
                          {"exec.foreign_rows", "rows"},
                          {"exec.join_build_rows", "rows"},
                          {"exec.join_probe_rows", "rows"},
                          {"exec.agg_input_rows", "rows"},
                          {"exec.materialized_rows", "rows"},
                          {"net.transfers", "count"},
                          {"net.transfer_rows", "rows"},
                          {"net.transfer_bytes", "bytes"},
                          {"net.messages", "count"},
                          {"dbms.retries", "count"},
                          {"setup.federation_s", "s"},
                          {"setup.system_s", "s"},
                          {"setup.warm_s", "s"},
                      });
    return m;
  }();
  return kMetrics;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"tpch_mix", 1, false, false, 6},
      {"tpch_serve", 4, false, true, 6},
      {"adhoc_point", 1, true, false, 2048},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}


BenchResult RunBenchmark(const RunOptions& options) {
  BenchResult out;
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) return out;

  // --- Set-up, repeated; the last repetition is the one measured. ---
  std::vector<SetupTimes> setups;
  std::unique_ptr<System> system;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    system.reset();  // tear the previous repetition down first
    SetupTimes t;
    std::string error;
    system = std::make_unique<System>(SetUp(*spec, options.seed, &t, &error));
    if (!error.empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return out;
    }
    setups.push_back(t);
  }
  System& sys = *system;
  auto setup_median = [&](auto field) {
    std::vector<double> v;
    for (const auto& t : setups) v.push_back(field(t));
    return Median(std::move(v));
  };

  // --- Timed phase. Untraced runs give every end-to-end number; traced
  // runs interleave untraced and replayed queries for the per-layer ones.
  std::vector<std::unique_ptr<TracedReplayer>> replayers;
  if (options.trace) {
    for (int c = 0; c < spec->clients; ++c) {
      replayers.push_back(std::make_unique<TracedReplayer>(
          sys.xdb.get(), "xdbbench_c" + std::to_string(c)));
    }
  }
  xdb::DelegationPlanCache* cache = sys.xdb->plan_cache();
  const int64_t hits0 = cache->hits();
  const int64_t misses0 = cache->misses();
  const PhaseResult phase = RunPhase(
      spec->clients, options.seconds,
      [&sys, &replayers, spec](int c, Clock::time_point deadline,
                               ClientLog* log) {
        RunClient(&sys, c, deadline, c == 0 ? spec->sample : 0,
                  replayers.empty() ? nullptr
                                    : replayers[static_cast<size_t>(c)].get(),
                  log);
      });
  const double peak_rss_mb = PeakRssMb();
  const int64_t hits = cache->hits() - hits0;
  const int64_t lookups = hits + cache->misses() - misses0;

  // --- Leak check: nothing may stay deployed after the run. ---
  int64_t stranded = 0;
  for (const auto& name : sys.fed->ServerNames()) {
    stranded += static_cast<int64_t>(
        sys.fed->GetServer(name)->TransientRelations().size());
  }

  // --- Oracle: every result against a single-server execution. ---
  const std::vector<Checked> checked =
      PairWithStatements(*spec, options.seed, phase);
  out.attempted = static_cast<int64_t>(checked.size());
  {
    auto oracle_fed = BuildFederation(options.seed, SingleServer());
    if (oracle_fed == nullptr) {
      std::fprintf(stderr, "oracle federation build failed\n");
      return out;
    }
    xdb::DatabaseServer* oracle = oracle_fed->GetServer("db1");
    oracle->set_exec_threads(1);
    std::string problem;
    out.failed = OracleCheck(oracle, checked, Nproc(), &problem);
    if (!problem.empty()) {
      std::fprintf(stderr, "first failure: %s\n", problem.c_str());
    }
  }

  // Exact per-query figures: client 0's first `sample` queries, a set fixed
  // by the seed alone (not by how many queries the run managed).
  const std::vector<ExactFigures>& exact = phase.per_client[0].exact;
  const bool sample_complete = exact.size() == spec->sample;
  if (!sample_complete) {
    std::fprintf(stderr,
                 "client 0 completed %zu queries, fewer than the %zu-query "
                 "exact sample\n",
                 exact.size(), spec->sample);
  }
  auto sample_mean = [&exact](auto field) {
    double sum = 0;
    for (const auto& f : exact) sum += field(f);
    return exact.empty() ? 0.0 : sum / static_cast<double>(exact.size());
  };

  std::vector<double> latencies;
  std::map<std::string, std::vector<double>> by_label;
  for (const Checked& c : checked) {
    if (c.outcome->traced) continue;
    latencies.push_back(c.outcome->latency_ms);
    by_label[c.statement.label].push_back(c.outcome->latency_ms);
  }
  const double p50 = Quantile(latencies, 0.50);
  const double p95 = Quantile(latencies, 0.95);
  const double queries =
      static_cast<double>(std::max<int64_t>(1, phase.queries));

  out.correct = out.failed == 0 && stranded == 0 && sample_complete;
  const double error_rate =
      out.attempted > 0
          ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
          : 0.0;
  std::fprintf(stderr,
               "%s: %lld queries (%lld failed, error_rate %.6f), "
               "%lld stranded relations, plan cache %lld/%lld hits\n",
               spec->name, static_cast<long long>(out.attempted),
               static_cast<long long>(out.failed), error_rate,
               static_cast<long long>(stranded), static_cast<long long>(hits),
               static_cast<long long>(lookups));

  const std::vector<MetricSpec>& specs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  auto add = [&out, &specs](const char* name, double value) {
    const size_t i = out.metrics.size();
    const bool declared =
        i < specs.size() && name == std::string(specs[i].name);
    out.metrics.push_back({name, value, declared ? specs[i].unit : "?"});
  };
  using F = const ExactFigures&;
  if (!options.trace) {
    add("setup_s",
        setup_median([](const SetupTimes& t) { return t.total(); }));
    add("qps", static_cast<double>(phase.queries) / phase.wall_s);
    add("latency_p50_ms", p50);
    add("latency_p95_ms", p95);
    add("cpu_ms_per_query", phase.cpu_s * 1e3 / queries);
    add("peak_rss_mb", peak_rss_mb);
    add("modelled_s_per_query",
        sample_mean([](F f) { return f.modelled_s; }));
    add("transfer_kb_per_query",
        sample_mean([](F f) { return f.transfer_bytes; }) / 1024.0);
  } else {
    const LayerBreakdown b = BreakDown(replayers);
    double covered_us = b.unattributed_us;
    for (int l = 0; l < kNumLayers; ++l) {
      add(LayerMetricName(l), b.layer_us[static_cast<size_t>(l)]);
      covered_us += b.layer_us[static_cast<size_t>(l)];
    }
    const double traced_p50_ms = b.p50_us * 1e-3;
    add("trace.unattributed_us", b.unattributed_us);
    add("trace.overhead_pct",
        p50 > 0 ? (traced_p50_ms - p50) / p50 * 100.0 : 0.0);
    std::fprintf(stderr,
                 "traced replay: %zu queries; the median band's layers sum "
                 "to %.3f ms (%.3f unattributed), %.1f%% of the untraced p50 "
                 "%.3f ms; traced p50 %.3f ms\n",
                 b.queries, covered_us * 1e-3, b.unattributed_us * 1e-3,
                 p50 > 0 ? covered_us * 1e-3 / p50 * 100.0 : 0.0, p50,
                 traced_p50_ms);
    add("xdb.catalog.metadata_roundtrips",
        sample_mean([](F f) { return f.metadata_roundtrips; }));
    add("xdb.plan_cache.hit_ratio",
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0);
    add("xdb.annotate.consultations",
        sample_mean([](F f) { return f.consultations; }));
    add("xdb.finalize.tasks", sample_mean([](F f) { return f.tasks; }));
    add("xdb.deploy.ddl_statements",
        sample_mean([](F f) { return f.ddl_statements; }));
    add("xdb.cleanup.stranded_relations", static_cast<double>(stranded));
    add("exec.scan_rows", sample_mean([](F f) { return f.exec.scan_rows; }));
    add("exec.foreign_rows",
        sample_mean([](F f) { return f.exec.foreign_rows; }));
    add("exec.join_build_rows",
        sample_mean([](F f) { return f.exec.join_build_rows; }));
    add("exec.join_probe_rows",
        sample_mean([](F f) { return f.exec.join_probe_rows; }));
    add("exec.agg_input_rows",
        sample_mean([](F f) { return f.exec.agg_input_rows; }));
    add("exec.materialized_rows",
        sample_mean([](F f) { return f.exec.materialized_rows; }));
    add("net.transfers", sample_mean([](F f) { return f.transfers; }));
    add("net.transfer_rows", sample_mean([](F f) { return f.transfer_rows; }));
    add("net.transfer_bytes",
        sample_mean([](F f) { return f.transfer_bytes; }));
    add("net.messages", sample_mean([](F f) { return f.messages; }));
    add("dbms.retries", sample_mean([](F f) { return f.retries; }));
    add("setup.federation_s",
        setup_median([](const SetupTimes& t) { return t.federation_s; }));
    add("setup.system_s",
        setup_median([](const SetupTimes& t) { return t.system_s; }));
    add("setup.warm_s",
        setup_median([](const SetupTimes& t) { return t.warm_s; }));
  }

  // The metrics printed are exactly the declared ones, in order.
  bool declared = out.metrics.size() == specs.size();
  for (const Metric& m : out.metrics) declared = declared && m.unit != "?";
  if (!declared) {
    std::fprintf(stderr, "emitted metrics differ from the declared list\n");
    out.correct = false;
  }

  // --- Run record. ---
  const std::string flag = BuildFlag();
  const int64_t beyond_p95 = static_cast<int64_t>(std::count_if(
      latencies.begin(), latencies.end(), [p95](double v) { return v > p95; }));
  xdb::JsonWriter w;
  w.BeginObject();
  w.Field("workload", spec->name);
  w.Field("seed", static_cast<uint64_t>(options.seed));
  w.Field("seconds", options.seconds);
  w.Field("trace", options.trace);
  w.Field("nproc", Nproc());
  w.Field("compiler", Compiler());
  w.Field("build_type", XDBBENCH_BUILD_TYPE);
  w.Field("build_flag", flag.empty() ? "none" : flag.c_str());
  w.Field("clients", spec->clients);
  w.Field("exec_threads", kExecThreads);
  w.Field("api", spec->sessions ? "XdbSession::Query" : "XdbSystem::Query");
  w.Field("plan_cache_capacity", static_cast<uint64_t>(kPlanCacheCapacity));
  w.Field("local_sf", kLocalSf);
  w.Field("scale_up", kScaleUp);
  w.Field("distribution", "TD1");
  w.Field("setup_repetitions", kSetupRepetitions);
  w.Field("exact_sample", static_cast<uint64_t>(spec->sample));
  w.Field("steal_pct", phase.steal_pct);
  w.Field("timed_queries", phase.queries);
  w.Field("traced_queries",
          phase.queries - static_cast<int64_t>(latencies.size()));
  w.Field("latency_samples", static_cast<int64_t>(latencies.size()));
  w.Field("samples_beyond_p95", beyond_p95);
  w.Key("label_p50_ms");
  w.BeginObject();
  for (auto& [label, v] : by_label) w.Field(label, Median(std::move(v)));
  w.EndObject();
  w.Field("plan_cache_hits", hits);
  w.Field("plan_cache_lookups", lookups);
  w.Field("stranded_relations", stranded);
  w.Field("error_rate", error_rate);
  w.EndObject();
  out.record = w.str();
  if (!flag.empty()) {
    std::fprintf(stderr, "WARNING: %s build; timings are not comparable\n",
                 flag.c_str());
  }
  return out;
}

}  // namespace xdbbench
