// The serving benchmark's own checks: generator determinism, template
// placement, the oracle's result digest, the traced replay's answers and
// spans, and metric names. Run with the path of BENCHMARK.json to also
// check that every metric and workload the program reports is declared
// there:
//
//   .bench_build/xdbbench_tests BENCHMARK.json

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "src/sql/parser.h"
#include "src/tpch/queries.h"
#include "src/xdb/xdb.h"
#include "xdbbench/harness.h"
#include "xdbbench/oracle.h"
#include "xdbbench/replay.h"
#include "xdbbench/workloads.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace xdbbench;

void AdhocGeneratorIsDeterministicAndNeverRepeats() {
  AdhocGenerator a(42), b(42), c(43);
  std::set<std::string> seen;
  bool differs = false;
  for (int i = 0; i < 5000; ++i) {
    const Statement sa = a.Next();
    const Statement sb = b.Next();
    CHECK(sa.sql == sb.sql);
    CHECK(sa.label == sb.label);
    CHECK(seen.insert(sa.sql).second);
    differs |= c.Next().sql != sa.sql;
  }
  CHECK(differs);
}

void TpchScheduleRoundsArePermutations() {
  TpchSchedule a(9, 0), b(9, 0), other_client(9, 1);
  bool differs = false;
  for (int round = 0; round < 20; ++round) {
    std::set<std::string> ids;
    for (size_t i = 0; i < xdb::tpch::EvaluationQueries().size(); ++i) {
      const Statement s = a.Next();
      CHECK(s.sql == b.Next().sql);
      differs |= other_client.Next().label != s.label;
      ids.insert(s.label);
    }
    CHECK(ids.size() == xdb::tpch::EvaluationQueries().size());
  }
  CHECK(differs);
}

void EveryAdhocTemplateSpansTwoDbmses() {
  const auto td1 = xdb::tpch::TD1();
  std::map<std::string, std::set<std::string>> tables_by_label;
  AdhocGenerator gen(5);
  for (int i = 0; i < 2000; ++i) {
    const Statement s = gen.Next();
    auto stmt = xdb::sql::ParseSelect(s.sql);
    CHECK(stmt.ok());
    if (!stmt.ok()) continue;
    for (const auto& ref : (*stmt)->from) {
      tables_by_label[s.label].insert(ref.table);
    }
  }
  CHECK(tables_by_label.size() == AdhocTemplates().size());
  for (const auto& t : AdhocTemplates()) {
    const std::set<std::string> declared(t.tables.begin(), t.tables.end());
    CHECK(tables_by_label[t.name] == declared);
    CHECK(declared.size() >= 2 && declared.size() <= 4);
    CHECK(declared.count("lineitem") == 0);
    std::set<std::string> servers;
    for (const auto& table : declared) servers.insert(td1.at(table));
    CHECK(servers.size() >= 2);
  }
}

xdb::TablePtr SmallTable() {
  auto t = std::make_shared<xdb::Table>(xdb::Schema(
      {{"k", xdb::TypeId::kInt64}, {"v", xdb::TypeId::kDouble}}));
  for (int i = 0; i < 5; ++i) {
    t->AppendRow({xdb::Value::Int64(i), xdb::Value::Double(i * 1.5)});
  }
  return t;
}

void DigestCatchesOnePerturbedRow() {
  const ResultDigest expected = DigestOf(*SmallTable());
  CHECK(DigestOf(*SmallTable()) == expected);

  auto reordered = std::make_shared<xdb::Table>(SmallTable()->schema());
  const auto rows = SmallTable()->rows();
  for (size_t i = rows.size(); i > 0; --i) reordered->AppendRow(rows[i - 1]);
  CHECK(DigestOf(*reordered) == expected);

  // Below the four decimals a double renders with: the same rendered row.
  auto unseen = SmallTable();
  unseen->mutable_rows()[3][1] = xdb::Value::Double(4.5 + 1e-9);
  CHECK(DigestOf(*unseen) == expected);

  auto perturbed = SmallTable();
  perturbed->mutable_rows()[3][1] = xdb::Value::Double(4.5001);
  CHECK(!(DigestOf(*perturbed) == expected));

  auto swapped = SmallTable();  // same values, moved between rows
  std::swap(swapped->mutable_rows()[1][1], swapped->mutable_rows()[2][1]);
  CHECK(!(DigestOf(*swapped) == expected));

  auto missing = SmallTable();
  missing->mutable_rows().pop_back();
  CHECK(!(DigestOf(*missing) == expected));
}

void XdbAndReplayMatchTheOracle() {
  const uint64_t seed = 7;
  auto fed = BuildFederation(seed, xdb::tpch::TD1());
  auto oracle_fed = BuildFederation(seed, SingleServer());
  CHECK(fed != nullptr && oracle_fed != nullptr);
  if (fed == nullptr || oracle_fed == nullptr) return;
  xdb::XdbOptions opts;
  opts.scale_up = kScaleUp;
  opts.exec_threads = 1;
  opts.plan_cache_capacity = kPlanCacheCapacity;
  xdb::XdbSystem xdb(fed.get(), opts);
  TracedReplayer replayer(&xdb, "xdbbench_test");
  xdb::DatabaseServer* oracle = oracle_fed->GetServer("db1");

  std::vector<std::string> sqls;
  for (const auto& q : xdb::tpch::EvaluationQueries()) sqls.push_back(q.sql);
  AdhocGenerator gen(seed);
  for (int i = 0; i < 40; ++i) sqls.push_back(gen.Next().sql);
  for (const auto& sql : sqls) {
    auto expected = oracle->ExecuteQuery(sql);
    auto direct = xdb.Query(sql);
    auto replayed = replayer.Run(sql);  // a plan-cache hit after Query()
    CHECK(expected.ok() && direct.ok() && replayed.ok());
    if (!expected.ok() || !direct.ok() || !replayed.ok()) continue;
    CHECK(DigestOf(*direct->result) == DigestOf(**expected));
    CHECK(DigestOf(**replayed) == DigestOf(**expected));
  }
  for (const auto& name : fed->ServerNames()) {
    CHECK(fed->GetServer(name)->TransientRelations().empty());
  }
  // Every replayed query has one whole-query span, and layer spans nest in it.
  std::map<int64_t, std::pair<int64_t, int64_t>> whole;
  for (const SpanRecord& s : replayer.spans()) {
    CHECK(s.end_ns >= s.begin_ns);
    if (s.layer == kQuerySpan) whole[s.query] = {s.begin_ns, s.end_ns};
  }
  CHECK(whole.size() == sqls.size());
  for (const SpanRecord& s : replayer.spans()) {
    CHECK(whole.count(s.query) == 1);
    CHECK(s.begin_ns >= whole[s.query].first);
    CHECK(s.end_ns <= whole[s.query].second);
  }
}

void MetricNamesAreValidAndDeclared(const char* benchmark_json) {
  std::set<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      CHECK(ValidMetricName(m.name));
      CHECK(ValidUnit(m.unit));
      CHECK(names.insert(m.name).second);
    }
  }
  CHECK(!ValidMetricName("_leading"));
  CHECK(!ValidMetricName("has space"));
  CHECK(!ValidUnit("much-too-long-unit-name"));
  CHECK(EndToEndMetrics().front().name == std::string("setup_s"));
  if (benchmark_json == nullptr) return;

  std::ifstream in(benchmark_json);
  CHECK(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  auto declared = [&text](const std::string& name, const std::string& unit) {
    return text.find("\"name\": \"" + name + "\", \"unit\": \"" + unit +
                     "\"") != std::string::npos;
  };
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      if (!declared(m.name, m.unit)) {
        std::fprintf(stderr, "not declared in %s: %s [%s]\n", benchmark_json,
                     m.name, m.unit);
        ++g_failures;
      }
    }
  }
  for (const auto& w : Workloads()) {
    CHECK(text.find("\"name\": \"" + std::string(w.name) + "\"") !=
          std::string::npos);
  }
}

}  // namespace

int main(int argc, char** argv) {
  AdhocGeneratorIsDeterministicAndNeverRepeats();
  TpchScheduleRoundsArePermutations();
  EveryAdhocTemplateSpansTwoDbmses();
  DigestCatchesOnePerturbedRow();
  XdbAndReplayMatchTheOracle();
  MetricNamesAreValidAndDeclared(argc > 1 ? argv[1] : nullptr);
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("xdbbench_tests: all checks passed\n");
  return 0;
}
