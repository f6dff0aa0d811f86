#include "src/xdb/xdb.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <optional>
#include <thread>

#include "src/common/json_writer.h"
#include "src/common/thread_pool.h"
#include "src/exec/executor.h"
#include "src/obs/introspect.h"
#include "src/plan/estimator.h"
#include "src/plan/planner.h"
#include "src/plan/stats.h"
#include "src/sql/parser.h"
#include "src/testing/fault_injector.h"
#include "src/xdb/annotator.h"
#include "src/xdb/finalizer.h"
#include "src/xdb/query_scope.h"

namespace xdb {

namespace {

Dialect DialectForVendor(const std::string& vendor) {
  if (vendor == "mariadb") return Dialect::MariaDb();
  if (vendor == "hive") return Dialect::Hive();
  return Dialect::Postgres();
}

void HashCombine(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9e3779b97f4a7c15ULL + (*h << 6) + (*h >> 2);
}

/// Engine profiles are fixed at federation setup, so this hash is computed
/// once; it exists so a cache carried across reconfigured federations (e.g.
/// in tests) can never serve a plan annotated under different cost models.
uint64_t HashProfiles(Federation* fed) {
  std::hash<std::string> hs;
  std::hash<double> hd;
  uint64_t h = 0;
  for (const auto& name : fed->ServerNames()) {
    const EngineProfile& p = fed->GetServer(name)->profile();
    HashCombine(&h, hs(name));
    HashCombine(&h, hs(p.vendor));
    for (double c : {p.scan_row_cost, p.join_row_cost, p.agg_row_cost,
                     p.sort_row_cost, p.materialize_row_cost, p.startup_cost,
                     p.fetch_row_cost, p.wire_inflation}) {
      HashCombine(&h, hd(c));
    }
    HashCombine(&h, static_cast<uint64_t>(p.parallelism));
  }
  return h;
}

std::string AsciiLower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Case-insensitive substring probe for the `xdb_stat.` qualifier — the
/// cheap pre-filter that keeps non-introspection queries at one scan of the
/// raw SQL text (false positives are sorted out by parsing the FROM list).
bool MentionsXdbStat(const std::string& sql) {
  static constexpr char kNeedle[] = "xdb_stat.";
  constexpr size_t n = sizeof(kNeedle) - 1;
  if (sql.size() < n) return false;
  for (size_t i = 0; i + n <= sql.size(); ++i) {
    size_t j = 0;
    while (j < n && std::tolower(static_cast<unsigned char>(sql[i + j])) ==
                        kNeedle[j]) {
      ++j;
    }
    if (j == n) return true;
  }
  return false;
}

/// Mediator-local execution services for an introspection query: relations
/// resolve against the per-query snapshot map, and foreign fetches are
/// structurally impossible (every `xdb_stat` scan is pinned local).
class IntrospectionExecContext : public ExecContext {
 public:
  IntrospectionExecContext(const std::map<std::string, TablePtr>* snapshots,
                           int threads)
      : snapshots_(snapshots), threads_(threads) {}

  Result<TablePtr> GetLocalTable(const std::string& name) override {
    auto it = snapshots_->find(AsciiLower(name));
    if (it == snapshots_->end()) {
      return Status::CatalogError("unknown system table '" + name + "'");
    }
    return it->second;
  }

  Result<TablePtr> ForeignFetch(const std::string& server,
                                const std::string& relation, double,
                                double) override {
    return Status::Internal("introspection queries are mediator-local: "
                            "unexpected foreign fetch of '" + relation +
                            "' from '" + server + "'");
  }

  ComputeTrace* trace() override { return &trace_; }
  int exec_threads() const override { return threads_; }

 private:
  const std::map<std::string, TablePtr>* snapshots_;
  int threads_;
  ComputeTrace trace_;
};

/// Resolves FROM refs of an introspection query to scans over the
/// query-start snapshots (never the GlobalCatalog — zero roundtrips).
class IntrospectionResolver : public RelationResolver {
 public:
  explicit IntrospectionResolver(
      const std::map<std::string, TablePtr>* snapshots)
      : snapshots_(snapshots) {}

  Result<PlanPtr> Resolve(const std::string& db,
                          const std::string& table) override {
    std::string key = AsciiLower(table);
    auto it = snapshots_->find(key);
    if (it == snapshots_->end()) {
      return Status::CatalogError("unknown system table '" + db + "." +
                                  table + "'");
    }
    const TablePtr& snap = it->second;
    return PlanNode::MakeScan(kXdbStatDb, key, key, snap->schema(),
                              ComputeTableStats(*snap));
  }

 private:
  const std::map<std::string, TablePtr>* snapshots_;
};

/// Coarse predicate class of an operator's detail string, a calibration
/// feature: range subsumes equality ("<=" contains '='), LIKE wins over
/// both, "none" covers scans/joins/aggregates without inline predicates.
std::string PredicateClass(const std::string& detail) {
  if (detail.find("LIKE") != std::string::npos ||
      detail.find(" like ") != std::string::npos) {
    return "like";
  }
  if (detail.find('<') != std::string::npos ||
      detail.find('>') != std::string::npos) {
    return "range";
  }
  if (detail.find('=') != std::string::npos) return "equality";
  return "none";
}

}  // namespace

XdbSystem::XdbSystem(Federation* fed, XdbOptions options)
    : fed_(fed), options_(std::move(options)) {
  fed_->network().AddNode(options_.middleware_node);
  for (const auto& name : fed_->ServerNames()) {
    DatabaseServer* server = fed_->GetServer(name);
    // >0 only: a default-constructed system must not clobber an explicit
    // per-server setting (federations are shared across systems in benches).
    if (options_.exec_threads > 0) {
      server->set_exec_threads(options_.exec_threads);
    }
    auto dc = std::make_unique<DbmsConnector>(
        server, DialectForVendor(server->profile().vendor), fed_,
        options_.middleware_node);
    connector_ptrs_[name] = dc.get();
    connectors_[name] = std::move(dc);
  }
  catalog_ = std::make_unique<GlobalCatalog>(connector_ptrs_);
  profile_hash_ = HashProfiles(fed_);
  if (options_.plan_cache_capacity > 0) {
    plan_cache_ =
        std::make_unique<DelegationPlanCache>(options_.plan_cache_capacity);
  }
}

// Out-of-line: ~unique_ptr<IntrospectionRegistry> needs the complete type.
XdbSystem::~XdbSystem() = default;

IntrospectionRegistry* XdbSystem::EnableIntrospection(
    SessionManager* sessions) {
  // (Re-)registering is idempotent: providers are stateless views, so a
  // later call that finally has a SessionManager just swaps the standard
  // set in again with the sessions provider wired.
  if (introspect_ == nullptr || sessions != nullptr) {
    if (introspect_ == nullptr) {
      introspect_ = std::make_unique<IntrospectionRegistry>();
    }
    RegisterStandardProviders(introspect_.get(), fed_, this, sessions);
  }
  return introspect_.get();
}

std::string XdbSystem::PlacementFingerprint() const {
  // Everything annotation depends on, cheap enough to recompute per query:
  // schema/stats versions, engine profiles, placement epoch, and the policy
  // knobs (constant per system, but a cache moved between systems must not
  // cross-serve).
  return "c" + std::to_string(catalog_->catalog_version()) + ":s" +
         std::to_string(catalog_->stats_version()) + ":p" +
         std::to_string(profile_hash_) + ":e" +
         std::to_string(placement_epoch_.load(std::memory_order_acquire)) +
         ":m" + std::to_string(options_.movement_policy) + ":pl" +
         std::to_string(static_cast<int>(options_.planner.reorder_joins)) +
         std::to_string(static_cast<int>(options_.planner.prune_columns)) +
         std::to_string(static_cast<int>(options_.planner.push_down_filters)) +
         std::to_string(static_cast<int>(options_.planner.bushy_joins)) +
         // Health epoch: every breaker transition retires cached plans the
         // way a placement-epoch bump does (":h0" with no tracker).
         ":h" +
         std::to_string(fed_->health_tracker() != nullptr
                            ? fed_->health_tracker()->state_epoch()
                            : 0);
}

std::string XdbSystem::ExportCalibrationLog() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "xdb-calibration-v1");
  w.Key("records");
  w.BeginArray();
  if (QueryLog* qlog = fed_->query_log()) {
    for (const QueryStats& q : qlog->SnapshotEntries()) {
      for (const EstimateActual& ea : q.estimates) {
        // Engine feature: the executing DBMS's optimizer vendor — transfer
        // records span a link, so they calibrate the wire model instead.
        std::string engine = "wire";
        if (ea.op != "transfer") {
          const DatabaseServer* server = fed_->GetServer(ea.server);
          engine = server != nullptr ? server->profile().vendor : "unknown";
        }
        w.BeginObject();
        w.Field("query_sequence", q.sequence);
        w.Field("label", q.label);
        w.Key("features");
        w.BeginObject();
        w.Field("op", ea.op);
        w.Field("predicate_class", PredicateClass(ea.detail));
        w.Field("est_input_rows", ea.est_input_rows);
        w.Field("engine", engine);
        w.Field("placement", ea.server);
        w.EndObject();
        w.Key("outcome");
        w.BeginObject();
        w.Field("est_rows", ea.est_rows);
        w.Field("act_rows", ea.act_rows);
        w.Field("est_seconds", ea.est_seconds);
        w.Field("act_seconds", ea.act_seconds);
        w.Field("est_bytes", ea.est_bytes);
        w.Field("act_bytes", ea.act_bytes);
        w.Field("q_error", ea.q_error);
        w.EndObject();
        w.EndObject();
      }
    }
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void XdbSystem::CountPlanCache(bool hit, int evictions) {
  MetricsRegistry* metrics = fed_->metrics();
  if (metrics == nullptr) return;
  metrics
      ->GetCounter(hit ? "xdb_plan_cache_hits_total"
                       : "xdb_plan_cache_misses_total",
                   {}, hit ? "Delegation-plan cache hits"
                           : "Delegation-plan cache misses")
      ->Increment();
  CountPlanCacheEvictions(evictions);
}

void XdbSystem::CountPlanCacheEvictions(int evictions) {
  MetricsRegistry* metrics = fed_->metrics();
  if (metrics == nullptr || evictions <= 0) return;
  metrics
      ->GetCounter("xdb_plan_cache_evictions_total", {},
                   "Delegation-plan cache evictions (LRU + stale)")
      ->Increment(evictions);
}

DbmsConnector* XdbSystem::connector(const std::string& server) const {
  auto it = connector_ptrs_.find(server);
  return it != connector_ptrs_.end() ? it->second : nullptr;
}

double XdbSystem::Rtt(const std::string& server) const {
  LinkProps link =
      fed_->network().GetLink(options_.middleware_node, server);
  return 2.0 * link.latency;
}

Result<XdbReport> XdbSystem::Query(const std::string& sql) {
  return Query(sql, QueryContext{});
}

Result<XdbReport> XdbSystem::Query(const std::string& sql,
                                   const QueryContext& ctx) {
  const int query_id =
      query_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Tag every morsel this query submits so the shared pool round-robins
  // fairly across concurrent queries.
  ScopedQueryTag query_tag(static_cast<uint64_t>(query_id));
  QueryScope scope(fed_, ctx, "query ", query_id);
  if (Span* sp = scope.span()) sp->Tag("sql", sql);

  RunTrace fail_trace;
  Result<XdbReport> result = QueryImpl(sql, ctx, query_id, &scope, &fail_trace);
  if (result.ok()) result->wall_seconds = scope.WallSeconds();
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    last_trace_ = result.ok() ? result->trace : fail_trace;
  }
  RecordQueryStats(fed_, "xdb", options_.scale_up, sql, ctx.label, result,
                   fail_trace);
  return result;
}

Result<XdbReport> XdbSystem::RunIntrospectionQuery(const std::string& sql,
                                                   const QueryScope& scope,
                                                   bool* handled) {
  *handled = false;
  Result<sql::SelectPtr> parsed = sql::ParseSelect(sql);
  // Parse failures fall through: the federation pipeline owns the (same)
  // error, keeping diagnostics identical for SQL that merely mentions the
  // qualifier in a literal.
  if (!parsed.ok()) return parsed.status();
  sql::SelectPtr stmt = std::move(parsed).value();

  // Classify every FROM ref (recursing into derived tables): an
  // introspection query references xdb_stat relations exclusively — the
  // system tables live outside the federation and have no placement, so
  // mixing them with component-DBMS relations is a hard error, not a
  // silent cross plan.
  std::vector<std::string> stat_tables;
  std::vector<std::string> fed_tables;
  std::function<void(const sql::SelectStmt&)> classify =
      [&](const sql::SelectStmt& sel) {
        for (const auto& ref : sel.from) {
          if (ref.subquery) {
            classify(*ref.subquery);
            continue;
          }
          if (AsciiLower(ref.db) == kXdbStatDb) {
            stat_tables.push_back(AsciiLower(ref.table));
          } else {
            fed_tables.push_back(ref.table);
          }
        }
      };
  classify(*stmt);
  if (stat_tables.empty()) {
    // `xdb_stat.` only appeared in a literal; the caller discards this.
    return Status::InvalidArgument("not an introspection query");
  }
  *handled = true;
  if (!fed_tables.empty()) {
    return Status::InvalidArgument(
        "cannot mix xdb_stat system tables with federation relations "
        "(found '" + fed_tables.front() +
        "'); query system tables separately");
  }

  // Atomically-consistent view: snapshot each referenced provider exactly
  // once, at query start, before planning. A self-join over one system
  // table therefore joins one snapshot with itself.
  std::map<std::string, TablePtr> snapshots;
  for (const auto& table : stat_tables) {
    if (snapshots.count(table) > 0) continue;
    SystemTableProvider* provider = introspect_->Find(table);
    if (provider == nullptr) {
      std::string known;
      for (const auto& name : introspect_->TableNames()) {
        known += (known.empty() ? "" : ", ") + name;
      }
      return Status::CatalogError("unknown system table 'xdb_stat." + table +
                                  "'; known system tables: [" + known + "]");
    }
    snapshots[table] = provider->Snapshot();
  }

  SpanGuard introspect_span(scope.spans(), "introspect");
  if (Span* sp = introspect_span.span()) {
    sp->Tag("snapshots", static_cast<int64_t>(snapshots.size()));
  }

  XdbReport report;
  // Mediator-local planning: the normal logical optimizer over a resolver
  // that binds against the snapshots — never the GlobalCatalog, so zero
  // metadata roundtrips by construction (asserted in tests via
  // report.metadata_roundtrips).
  IntrospectionResolver resolver(&snapshots);
  Planner planner(&resolver, options_.planner);
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, planner.Plan(*stmt));
  size_t njoins = stmt->from.size() > 0 ? stmt->from.size() - 1 : 0;
  report.phases.prep = options_.parse_analyze_cost;
  report.phases.lopt =
      options_.lopt_base_cost +
      options_.lopt_per_join_cost * static_cast<double>(njoins);
  XDB_RETURN_NOT_OK(scope.Charge(report.phases.prep + report.phases.lopt,
                                 "during introspection planning"));

  // Execute on the middleware node with the normal vectorized executor.
  // No delegation, no DDL, no transfers — phases.ann and phases.exec stay
  // zero and the trace carries no transfer records.
  int threads = options_.exec_threads;
  if (threads <= 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  IntrospectionExecContext exec_ctx(&snapshots, threads);
  XDB_ASSIGN_OR_RETURN(report.result, ExecutePlan(*plan, &exec_ctx));
  report.trace.root_server = options_.middleware_node;
  report.trace.root_compute = *exec_ctx.trace();
  return report;
}

Result<XdbReport> XdbSystem::QueryImpl(const std::string& sql,
                                       const QueryContext& ctx, int query_id,
                                       QueryScope* scope,
                                       RunTrace* fail_trace) {
  XdbReport report;
  GlobalCatalog::ResetThreadRoundtrips();

  // Observability is opt-in per federation; `spans == nullptr` keeps every
  // hook below at one pointer compare and never changes modelled results.
  SpanRecorder* spans = scope->spans();

  // --- `xdb_stat.*` system tables: mediator-local, before everything. ---
  // Routed ahead of the health consult and the plan-cache probe so an
  // introspection query never consults breakers, never probes or populates
  // the cache, and never touches the GlobalCatalog. The substring probe is
  // the only cost non-users pay — and only once introspection was enabled.
  if (introspect_ != nullptr && MentionsXdbStat(sql)) {
    bool handled = false;
    Result<XdbReport> r = RunIntrospectionQuery(sql, *scope, &handled);
    if (handled) return r;
    // Parsed but referenced no xdb_stat relation (the qualifier sat in a
    // string literal) — fall through to the federation pipeline.
  }

  // --- Circuit breakers: consult the health tracker once per query. ---
  // Every open breaker seeds the planning constraints, so the planner
  // routes around sick servers *before* touching them — the next query
  // after a trip makes zero attempts against the tripped server. The
  // consult may advance cooldowns (Open -> HalfOpen bumps the health
  // epoch), so it must precede the fingerprint computation below.
  PlacementConstraints constraints;
  if (HealthTracker* health = fed_->health_tracker()) {
    for (auto& sick : health->PlanningExclusions()) {
      constraints.excluded_servers.insert(std::move(sick));
    }
  }

  // --- Delegation-plan cache probe. ---
  // A hit skips parsing, preparation, logical optimization, AND the
  // annotation consultations of round 0: the cached plan is already
  // annotated for the current placement (the fingerprint proves it), so
  // prep/lopt/ann phase costs are genuinely zero.
  PlanPtr plan;         // un-annotated logical plan (miss path)
  PlanPtr cached_plan;  // annotated master clone (hit path)
  std::string norm_sql;
  std::string fingerprint;
  bool cache_hit = false;
  if (plan_cache_ != nullptr) {
    norm_sql = NormalizeSql(sql);
    fingerprint = PlacementFingerprint();
    cached_plan = plan_cache_->Lookup(norm_sql, fingerprint);
    cache_hit = cached_plan != nullptr;
    CountPlanCache(cache_hit, /*evictions=*/0);
  }
  report.plan_cache_hit = cache_hit;

  if (cache_hit) {
    if (spans != nullptr) {
      int64_t id = spans->StartSpan("plan-cache-hit");
      spans->mutable_span(id)->Tag("fingerprint", fingerprint);
      spans->EndSpan(id);
    }
  } else {
    // --- Preparation: parse/analyze + gather metadata via connectors. ---
    XDB_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql));
    double prep_rtt = 0;
    // Touch every referenced base table (recursing into derived tables) so
    // schema + statistics are fetched through the owning DBMS's connector
    // (cached across queries).
    std::function<Status(const sql::SelectStmt&)> touch =
        [&](const sql::SelectStmt& sel) -> Status {
      for (const auto& ref : sel.from) {
        if (ref.subquery) {
          XDB_RETURN_NOT_OK(touch(*ref.subquery));
          continue;
        }
        XDB_RETURN_NOT_OK(catalog_->Resolve(ref.db, ref.table).status());
        std::string server = catalog_->LocateTable(ref.table);
        if (!server.empty()) prep_rtt += Rtt(server);
      }
      return Status::OK();
    };
    XDB_RETURN_NOT_OK(touch(*stmt));
    // Thread-scoped count: concurrent sessions sharing the catalog must
    // each bill exactly their own lazy metadata fetches.
    report.metadata_roundtrips = GlobalCatalog::ThreadRoundtrips();
    report.phases.prep =
        options_.parse_analyze_cost +
        report.metadata_roundtrips * options_.metadata_roundtrip_cost +
        prep_rtt;
    if (spans != nullptr) {
      int64_t id = spans->StartSpan("prepare");
      Span* sp = spans->mutable_span(id);
      sp->duration_seconds = report.phases.prep;
      sp->Tag("metadata_roundtrips",
              static_cast<int64_t>(report.metadata_roundtrips));
      spans->EndSpan(id);
    }

    // --- Logical optimization (pushdowns + left-deep join ordering). ---
    Planner planner(catalog_.get(), options_.planner);
    XDB_ASSIGN_OR_RETURN(plan, planner.Plan(*stmt));
    // Stamp planning-time estimates once on the logical plan: every clone —
    // failover rounds and the cached master copy alike — then carries the
    // same est_rows/est_width annotations, so a plan-cache hit replays
    // bit-identical estimates. Write-only metadata; no modelled cost.
    Estimator().StampEstimates(*plan);
    size_t njoins = stmt->from.size() > 0 ? stmt->from.size() - 1 : 0;
    report.phases.lopt = options_.lopt_base_cost +
                         options_.lopt_per_join_cost *
                             static_cast<double>(njoins);
    if (spans != nullptr) {
      int64_t id = spans->StartSpan("logical-optimize");
      spans->mutable_span(id)->duration_seconds = report.phases.lopt;
      spans->EndSpan(id);
    }
  }

  // Preparation + logical optimization count against the deadline; failing
  // here (rather than deep in a replan round) is the fail-fast path.
  XDB_RETURN_NOT_OK(scope->Charge(report.phases.prep + report.phases.lopt,
                                  "during preparation"));

  // --- Plan annotation + delegation + execution, with failover. ---
  // A retryable failure (node down, link dead) excludes the implicated
  // placement/link and re-runs annotation + deployment on a fresh clone of
  // the logical plan, up to max_failover_alternates alternate rounds. The
  // recovery trail of failed rounds accumulates into the final trace.
  RunTrace accum;  // the last failed round, carrying every failed round's
                   // recovery trail
  Status final_status = Status::OK();
  bool deadline_hit = false;  // deadline ended the failover loop
  const int max_rounds = std::max(0, options_.max_failover_alternates);
  TimingModel model(fed_, TimingOptions{options_.scale_up});

  int round = 0;
  for (;; ++round) {
    SpanGuard round_span(spans, "round " + std::to_string(round));
    // Hit path, round 0: the cached clone is already annotated — no
    // consultations, no "annotate" span. Failover rounds (and the miss
    // path) annotate a fresh clone against the current constraints; for a
    // cached plan the annotator simply overwrites the stale placements.
    PlanPtr round_plan =
        cache_hit ? cached_plan->Clone() : plan->Clone();
    const bool need_annotate =
        !cache_hit || round > 0 || !constraints.empty();
    if (need_annotate) {
      Annotator annotator(connector_ptrs_, &fed_->network(),
                          static_cast<MovementPolicy>(
                              options_.movement_policy),
                          constraints.empty() ? nullptr : &constraints);
      Status ann_st;
      {
        SpanGuard ann_span(spans, "annotate");
        ann_st = annotator.Annotate(round_plan.get());
        if (Span* sp = ann_span.span()) {
          sp->duration_seconds =
              annotator.consultations() * options_.consultation_cost;
          sp->Tag("consultations",
                  static_cast<int64_t>(annotator.consultations()));
        }
      }
      report.consultations += annotator.consultations();
      // Each consultation is one round trip to one of the two candidate
      // DBMSes.
      report.phases.ann +=
          annotator.consultations() * options_.consultation_cost;
      Status deadline =
          scope->Charge(annotator.consultations() * options_.consultation_cost,
                        "during plan annotation");
      if (!ann_st.ok()) {
        // Exclusions emptied the candidate set (kUnavailable) or the plan
        // is unannotatable outright — nothing left to try either way.
        final_status = std::move(ann_st);
        break;
      }
      if (!deadline.ok()) {
        deadline_hit = true;
        final_status = std::move(deadline);
        break;
      }
      // First successful unconstrained annotation: this plan is the one
      // worth caching (constrained rounds bake failover exclusions into
      // their placements — never cache those).
      if (!cache_hit && plan_cache_ != nullptr && round == 0 &&
          constraints.empty()) {
        int evicted =
            plan_cache_->Insert(norm_sql, fingerprint, round_plan->Clone());
        CountPlanCacheEvictions(evicted);  // the miss was counted at lookup
      }
    }

    // Later rounds get their own name prefix: a fault window may have left
    // the previous round's rollback incomplete, and redeployment must not
    // collide with relations still awaiting cleanup.
    std::string prefix = round == 0
                             ? ctx.ddl_prefix
                             : ctx.ddl_prefix + "_r" + std::to_string(round);
    Result<DelegationPlan> dplan_r =
        FinalizePlan(*round_plan, query_id, prefix);
    if (!dplan_r.ok()) {
      final_status = dplan_r.status();
      break;
    }
    DelegationPlan dplan = std::move(dplan_r).value();
    const std::string round_root = dplan.tasks.back().server;

    DelegationEngine engine(connector_ptrs_, fed_);
    scope->BeginRun(round_root);
    std::optional<Result<XdbQuery>> deploy_result;
    {
      SpanGuard deploy_span(spans, "deploy");
      if (Span* sp = deploy_span.span()) {
        sp->Tag("tasks", static_cast<int64_t>(dplan.tasks.size()));
        sp->Tag("root", round_root);
      }
      deploy_result.emplace(engine.Deploy(&dplan));
    }
    Result<XdbQuery>& xdb_query = *deploy_result;
    Status run_status = xdb_query.status();
    if (xdb_query.ok()) {
      // The client triggers the in-situ execution with the XDB query.
      DbmsConnector* root_dc = connector_ptrs_.at(xdb_query->server);
      int64_t exec_span_id = -1;
      std::optional<Result<TablePtr>> exec_result;
      {
        SpanGuard exec_span(spans, "execute");
        exec_span_id = exec_span.id();
        if (Span* sp = exec_span.span()) sp->Tag("server", xdb_query->server);
        exec_result.emplace(root_dc->RunQuery(xdb_query->sql));
      }
      Result<TablePtr>& result = *exec_result;
      run_status = result.status();
      // Root triggering is a single attempt (retry lives below in the
      // fetch/DDL paths); its verdict still feeds the health tracker —
      // except when the failure bubbled up from a foreign fetch, which
      // already charged the remote it named. Blaming the (healthy) root
      // too would trip every breaker on the path of one sick server.
      const bool remote_attributed =
          !run_status.ok() && run_status.message().find("foreign fetch of ") !=
                                  std::string::npos;
      if (!remote_attributed) {
        fed_->RecordHealthOutcome(xdb_query->server, 1, run_status);
      }
      if (result.ok()) {
        // The final result is the only data that leaves the federation.
        const bool enc_wire =
            fed_->wire_format() == WireFormat::kColumnar;
        const double result_raw =
            static_cast<double>((*result)->SerializedSize());
        const double result_bytes =
            enc_wire
                ? std::min(result_raw, static_cast<double>(
                                           (*result)->EncodedSerializedSize()))
                : result_raw;
        fed_->network().RecordTransfer(xdb_query->server,
                                       options_.middleware_node, result_bytes,
                                       1, enc_wire);
        // Completeness over the winning round only: a fragment lost in a
        // *failed* round was re-fetched by the replan, so it doesn't make
        // the result incomplete.
        FinishedRun run = scope->FinishRun(model);
        report.trace = std::move(run.trace);
        report.completeness = std::move(run.completeness);
        // Compute spent serving failed rounds' transfers really happened on
        // those servers, so it stays on the per-server totals (it is already
        // part of wasted_attempt_seconds on the time side).
        report.trace.FoldRecovery(accum);
        report.trace.replan_rounds = round;
        report.trace.excluded_servers.assign(
            constraints.excluded_servers.begin(),
            constraints.excluded_servers.end());
        if (round > 0 && report.trace.recovery_action != "failed" &&
            report.trace.recovery_action != "degraded") {
          report.trace.recovery_action = "replanned";
        }

        report.ddl_statements = engine.ddl_count();
        report.ddl_log = engine.ddl_log();
        report.exec_timing = model.ModelRun(report.trace);
        if (spans != nullptr && exec_span_id >= 0) {
          spans->mutable_span(exec_span_id)->duration_seconds =
              report.exec_timing.total;
        }
        fed_->CountReplanRounds(round);
        report.phases.exec =
            report.exec_timing.total +
            report.ddl_statements * options_.ddl_roundtrip_cost +
            report.trace.total_backoff_seconds +
            report.trace.injected_delay_seconds +
            report.trace.wasted_attempt_seconds;

        report.result = std::move(result).value();
        report.plan = std::move(dplan);
        report.xdb_query = *xdb_query;
        if (round > 0) {
          // Failover changed the placement landscape; retire every cached
          // plan built before it by advancing the epoch.
          placement_epoch_.fetch_add(1, std::memory_order_acq_rel);
        }

        if (options_.cleanup_after_query) {
          XDB_RETURN_NOT_OK(engine.Cleanup());
        }
        return report;
      }
      // Execution failed after a successful deploy: roll the cascade back
      // (Deploy-time failures already rolled themselves back).
      (void)engine.Cleanup();
      fed_->NoteRecovery("rolled-back");
    }

    // This round is lost. Bank its recovery trail and its modelled cost.
    RunTrace failed = scope->FinishRun(model).trace;
    const double round_cost = model.ModelRun(failed).total +
                              engine.ddl_count() * options_.ddl_roundtrip_cost;
    failed.FoldRecovery(accum);
    failed.wasted_attempt_seconds += round_cost;
    accum = std::move(failed);
    // Backoff and injected delay already charged themselves as they
    // happened; the round's modelled execution time charges here.
    Status deadline = scope->Charge(
        round_cost, "after " + std::to_string(round + 1) +
                        " round(s): " + run_status.message());

    if (!run_status.IsRetryable() || round >= max_rounds) {
      final_status = std::move(run_status);
      break;
    }
    if (!deadline.ok()) {
      // Fail fast with kTimeout instead of burning further replan rounds
      // the deadline can no longer pay for.
      deadline_hit = true;
      final_status = std::move(deadline);
      break;
    }

    // Decide what to exclude for the next round, preferring the injector's
    // precise fault site, then the engine's failure site, then the round's
    // root server. No new exclusion means no way to make progress.
    bool progressed = false;
    const FaultInjector* inj = fed_->fault_injector();
    // Snapshot, not live reference: under concurrent serving another
    // session's fault may land between reads.
    std::optional<FaultEvent> fault;
    if (inj != nullptr) fault = inj->LastFaultSnapshot();
    if (fault.has_value() && fault->kind == FaultKind::kLinkDrop &&
        !fault->peer.empty()) {
      progressed = constraints.blocked_links
                       .insert(PlacementConstraints::LinkKey(fault->server,
                                                             fault->peer))
                       .second;
    }
    if (!progressed) {
      std::string culprit;
      if (engine.last_failure().has_value()) {
        culprit = engine.last_failure()->server;
      } else if (fault.has_value()) {
        culprit = fault->server;
      } else {
        culprit = round_root;
      }
      if (!culprit.empty()) {
        progressed = constraints.excluded_servers.insert(culprit).second;
      }
    }
    if (!progressed) {
      final_status = std::move(run_status);
      break;
    }
  }

  // Every alternate exhausted (or the failure was terminal). Preserve the
  // recovery trail — no failed round's transfers — and name what was
  // unavailable.
  fail_trace->FoldRecovery(accum);
  fail_trace->replan_rounds = round;
  fail_trace->recovery_action = "failed";
  fail_trace->excluded_servers.assign(constraints.excluded_servers.begin(),
                                      constraints.excluded_servers.end());
  fed_->CountReplanRounds(round);
  if (!constraints.empty()) {
    // Even a failed query learned that some placements are bad — cached
    // plans that might route through them must not be served again.
    placement_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  // A deadline timeout surfaces as kTimeout untouched — callers (and
  // tests) distinguish "out of budget" from "ran out of alternates".
  if (!deadline_hit && final_status.IsRetryable() && !constraints.empty()) {
    std::string unavailable;
    for (const auto& s : constraints.excluded_servers) {
      unavailable += (unavailable.empty() ? "" : ", ") + s;
    }
    for (const auto& [a, b] : constraints.blocked_links) {
      unavailable +=
          (unavailable.empty() ? "" : ", ") + a + "<->" + b;
    }
    return Status::Unavailable(
        "query failed after " + std::to_string(fail_trace->replan_rounds) +
        " failover round(s); unavailable: [" + unavailable +
        "]: " + final_status.message());
  }
  return final_status;
}

Result<TablePtr> XdbSystem::ExplainAnalyze(const std::string& sql) {
  return ExplainAnalyze(sql, QueryContext{});
}

Result<TablePtr> XdbSystem::ExplainAnalyze(const std::string& sql,
                                           const QueryContext& ctx) {
  // One profiler per component DBMS; detached again before returning so
  // subsequent queries go back to the unprofiled fast path.
  std::map<std::string, OperatorProfiler> profilers;
  for (const auto& name : fed_->ServerNames()) {
    fed_->GetServer(name)->set_profiler(&profilers[name]);
  }
  Result<XdbReport> report = Query(sql, ctx);
  for (const auto& name : fed_->ServerNames()) {
    fed_->GetServer(name)->set_profiler(nullptr);
  }
  XDB_RETURN_NOT_OK(report.status());

  auto table = std::make_shared<Table>(Schema({{"plan", TypeId::kString}}));
  auto emit = [&](const std::string& line) {
    table->AppendRow({Value::String(line)});
  };
  char buf[256];
  const PhaseBreakdown& ph = report->phases;
  std::snprintf(buf, sizeof(buf),
                "phases: prep=%.3fs lopt=%.3fs ann=%.3fs exec=%.3fs "
                "total=%.3fs",
                ph.prep, ph.lopt, ph.ann, ph.exec, ph.total());
  emit(buf);
  const RunTrace& trace = report->trace;
  std::snprintf(buf, sizeof(buf),
                "transfers: %zu (%.0f rows, useful=%.0f B, wasted=%.0f B)",
                trace.transfers.size(), trace.TotalTransferredRows(),
                trace.UsefulTransferredBytes(),
                trace.WastedTransferredBytes());
  emit(buf);
  // Completeness section: only for partial results, so complete runs stay
  // byte-identical to before graceful degradation existed.
  if (report->partial()) {
    std::snprintf(buf, sizeof(buf),
                  "completeness: PARTIAL (%.0f%% of fragments delivered, "
                  "%zu lost)",
                  report->completeness.completeness_fraction * 100.0,
                  report->completeness.lost.size());
    emit(buf);
    for (const auto& l : report->completeness.lost) {
      std::snprintf(buf, sizeof(buf),
                    "  lost %s@%s -> %s (%s, est %.0f rows)",
                    l.relation.c_str(), l.server.c_str(), l.consumer.c_str(),
                    l.reason.c_str(), l.est_rows);
      emit(buf);
    }
  }
  // Wire-encoding summary: only when something actually shipped encoded,
  // so raw-mode output stays byte-identical to before the columnar wire.
  bool any_encoded = false;
  for (const auto& t : trace.transfers) any_encoded |= t.encoded;
  if (any_encoded) {
    std::snprintf(buf, sizeof(buf),
                  "wire: columnar (raw=%.0f B, encoded=%.0f B, ratio=%.2fx)",
                  trace.TotalRawTransferredBytes(),
                  trace.TotalTransferredBytes(), trace.CompressionRatio());
    emit(buf);
  }
  for (const auto& name : fed_->ServerNames()) {
    const OperatorProfiler& prof = profilers[name];
    bool served = false;
    double srv_raw = 0;
    double srv_enc = 0;
    if (any_encoded) {
      for (const auto& t : trace.transfers) {
        if (t.src != name || !t.encoded) continue;
        served = true;
        srv_raw += t.raw_bytes;
        srv_enc += t.bytes;
      }
    }
    if (prof.records().empty() && !served) continue;
    const DatabaseServer* server = fed_->GetServer(name);
    emit("server " + name + " (" + server->profile().vendor + "):");
    if (served) {
      std::snprintf(buf, sizeof(buf),
                    "  shipped: raw=%.0f B encoded=%.0f B (%.2fx)", srv_raw,
                    srv_enc, srv_enc > 0 ? srv_raw / srv_enc : 1.0);
      emit(buf);
    }
    for (const auto& line :
         prof.Render(server->profile(), options_.scale_up)) {
      emit("  " + line);
    }
  }
  return table;
}

}  // namespace xdb
