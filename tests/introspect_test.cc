// SQL-queryable system introspection (ISSUE 10 tentpole): the `xdb_stat.*`
// virtual tables, their providers, mediator-local pinning (zero metadata
// roundtrips, zero transfers, plan-cache bypass), snapshot consistency
// under concurrent serving, and detached-path bit-identity. The
// `Introspect*` suites run under ASan/UBSan and TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/dbms/federation.h"
#include "src/dbms/health.h"
#include "src/dbms/server.h"
#include "src/obs/introspect.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/xdb/plan_cache.h"
#include "src/xdb/session.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

const char* kJoinSql = "SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a";
const char* kFilterSql = "SELECT t1.a, t1.b FROM t1 WHERE t1.a > 3";
const char* kAggSql = "SELECT COUNT(*) AS n, SUM(t2.c) AS s FROM t2";

void Populate(Federation* fed) {
  fed->SetNetwork(Network::Lan({"d1", "d2"}));
  DatabaseServer* d1 = fed->AddServer("d1", EngineProfile::Postgres());
  DatabaseServer* d2 = fed->AddServer("d2", EngineProfile::MariaDb());
  auto t = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
  auto u = std::make_shared<Table>(
      Schema({{"a", TypeId::kInt64}, {"c", TypeId::kInt64}}));
  for (int i = 0; i < 40; ++i) {
    t->AppendRow({Value::Int64(i), Value::Int64(i * 3)});
    u->AppendRow({Value::Int64(i % 20), Value::Int64(i * 10)});
  }
  ASSERT_TRUE(d1->CreateBaseTable("t1", t).ok());
  ASSERT_TRUE(d2->CreateBaseTable("t2", u).ok());
}

class IntrospectFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Populate(&fed_);
    fed_.SetQueryLog(&log_);
  }

  std::vector<std::string> ColumnNames(const TablePtr& t) {
    std::vector<std::string> names;
    for (const auto& f : t->schema().fields()) names.push_back(f.name);
    return names;
  }

  Federation fed_;
  QueryLog log_;
};

// --- Registry + provider basics ---

TEST_F(IntrospectFixture, RegistryListsAllStandardTables) {
  XdbSystem xdb(&fed_);
  EXPECT_EQ(xdb.introspection(), nullptr);  // lazy: off by default
  IntrospectionRegistry* reg = xdb.EnableIntrospection();
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(xdb.introspection(), reg);
  EXPECT_EQ(reg->TableNames(),
            (std::vector<std::string>{"metrics", "operators", "plan_cache",
                                      "queries", "servers", "sessions",
                                      "transfers"}));
  EXPECT_NE(reg->Find("QUERIES"), nullptr);  // case-insensitive lookup
  EXPECT_EQ(reg->Find("nope"), nullptr);
  // Enabling twice is idempotent.
  EXPECT_EQ(xdb.EnableIntrospection(), reg);
  EXPECT_EQ(reg->size(), 7u);
}

TEST_F(IntrospectFixture, MetricsHasBuildInfoAndUptimeEvenCold) {
  // No MetricsRegistry attached: the provider synthesizes exactly the two
  // always-present cells, so a cold system still answers with rows.
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  auto r = xdb.Query("SELECT * FROM xdb_stat.metrics");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), 2u);
  EXPECT_EQ(ColumnNames(r->result),
            (std::vector<std::string>{"family", "labels", "kind", "value"}));
  const auto& rows = r->result->rows();
  EXPECT_EQ(rows[0][0].string_value(), "xdb_build_info");
  EXPECT_NE(rows[0][1].string_value().find("version=\"0.10\""),
            std::string::npos);
  EXPECT_EQ(rows[0][3].double_value(), 1.0);
  EXPECT_EQ(rows[1][0].string_value(), "xdb_uptime_queries_total");
  // The introspection query itself started before the snapshot was taken.
  EXPECT_GE(rows[1][3].double_value(), 1.0);
}

TEST_F(IntrospectFixture, MetricsReflectsAttachedRegistry) {
  MetricsRegistry metrics;
  fed_.SetMetricsRegistry(&metrics);
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  ASSERT_TRUE(xdb.Query(kFilterSql).ok());
  auto r = xdb.Query(
      "SELECT family, value FROM xdb_stat.metrics "
      "WHERE family = 'xdb_queries_total'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->result->num_rows(), 1u);
  double total = 0;
  for (const auto& row : r->result->rows()) total += row[1].double_value();
  EXPECT_GE(total, 1.0);
  fed_.SetMetricsRegistry(nullptr);
}

TEST_F(IntrospectFixture, QueriesMirrorsQueryLogHistory) {
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  QueryContext ctx;
  ctx.label = "J1";
  ASSERT_TRUE(xdb.Query(kJoinSql, ctx).ok());
  ctx.label = "F1";
  ASSERT_TRUE(xdb.Query(kFilterSql, ctx).ok());

  auto r = xdb.Query("SELECT * FROM xdb_stat.queries");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), 2u);
  EXPECT_EQ(ColumnNames(r->result),
            (std::vector<std::string>{
                "sequence", "label", "system", "status", "plan_cache_hit",
                "modelled_seconds", "useful_bytes", "wasted_bytes", "retries",
                "replan_rounds", "completeness", "max_q_error"}));
  const auto& rows = r->result->rows();
  EXPECT_EQ(rows[0][1].string_value(), "J1");
  EXPECT_EQ(rows[1][1].string_value(), "F1");
  for (const auto& row : rows) {
    EXPECT_EQ(row[2].string_value(), "xdb");
    EXPECT_EQ(row[3].string_value(), "ok");
    EXPECT_GT(row[5].double_value(), 0.0);   // modelled seconds
    EXPECT_EQ(row[10].double_value(), 1.0);  // complete
  }
  // The join shipped bytes; the history row carries them.
  EXPECT_GT(rows[0][6].double_value(), 0.0);

  // The introspection query itself is recorded too (observationally), so
  // the *next* snapshot sees three rows.
  auto r2 = xdb.Query("SELECT COUNT(*) AS n FROM xdb_stat.queries");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->result->rows()[0][0].int64_value(), 3);
}

TEST_F(IntrospectFixture, OperatorsLedgerCoversTransfersAndProfiledOps) {
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());  // transfer estimates, always
  ASSERT_TRUE(xdb.ExplainAnalyze(kJoinSql).ok());  // profiled operators

  auto r = xdb.Query("SELECT * FROM xdb_stat.operators");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->result->num_rows(), 0u);
  bool saw_transfer = false, saw_operator = false;
  for (const auto& row : r->result->rows()) {
    if (row[2].string_value() == "transfer") saw_transfer = true;
    if (row[3].string_value() == "d1" || row[3].string_value() == "d2") {
      saw_operator = true;
    }
    EXPECT_GE(row[11].double_value(), 1.0);  // q-error >= 1 by definition
  }
  EXPECT_TRUE(saw_transfer);
  EXPECT_TRUE(saw_operator);
}

TEST_F(IntrospectFixture, TransfersAggregatePerLink) {
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());

  // Manual aggregation over the same retained history.
  std::map<std::string, double> want_bytes;
  for (const auto& q : log_.SnapshotEntries()) {
    for (const auto& tr : q.transfer_log) {
      want_bytes[tr.src + "->" + tr.dst] += tr.bytes;
    }
  }
  ASSERT_FALSE(want_bytes.empty());

  auto r = xdb.Query("SELECT link, transfers, bytes FROM xdb_stat.transfers");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), want_bytes.size());
  auto it = want_bytes.begin();  // provider emits key-sorted rows
  for (const auto& row : r->result->rows()) {
    EXPECT_EQ(row[0].string_value(), it->first);
    EXPECT_GE(row[1].int64_value(), 1);
    EXPECT_DOUBLE_EQ(row[2].double_value(), it->second);
    ++it;
  }
}

TEST_F(IntrospectFixture, PlanCacheRowsExposeHitsAndAge) {
  XdbOptions opts;
  opts.plan_cache_capacity = 4;
  XdbSystem xdb(&fed_, opts);
  xdb.EnableIntrospection();
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());    // insert #0
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());    // hit
  ASSERT_TRUE(xdb.Query(kFilterSql).ok());  // insert #1

  auto r = xdb.Query("SELECT key, hits, age FROM xdb_stat.plan_cache");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), 2u);
  std::map<std::string, std::pair<int64_t, int64_t>> got;
  for (const auto& row : r->result->rows()) {
    got[row[0].string_value()] = {row[1].int64_value(), row[2].int64_value()};
  }
  const std::string join_key = NormalizeSql(kJoinSql);
  const std::string filter_key = NormalizeSql(kFilterSql);
  ASSERT_TRUE(got.count(join_key));
  ASSERT_TRUE(got.count(filter_key));
  EXPECT_EQ(got[join_key].first, 1);    // served one lookup
  EXPECT_EQ(got[join_key].second, 1);   // one insertion older
  EXPECT_EQ(got[filter_key].first, 0);
  EXPECT_EQ(got[filter_key].second, 0);  // most recent insert
}

TEST_F(IntrospectFixture, SessionsTableTracksOpenSessions) {
  XdbSystem xdb(&fed_);
  SessionManager manager(&xdb);
  xdb.EnableIntrospection(&manager);
  auto s1 = manager.OpenSession();
  auto s2 = manager.OpenSession();
  ASSERT_TRUE(s1->Query(kFilterSql).ok());
  ASSERT_TRUE(s1->Query(kAggSql).ok());
  ASSERT_TRUE(s2->Query(kFilterSql).ok());

  auto r = xdb.Query("SELECT * FROM xdb_stat.sessions");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), 2u);
  const auto& rows = r->result->rows();
  EXPECT_EQ(rows[0][0].int64_value(), 1);
  EXPECT_EQ(rows[0][1].string_value(), "xdb_s1");
  EXPECT_EQ(rows[0][2].int64_value(), 0);  // nothing in flight now
  EXPECT_EQ(rows[0][3].int64_value(), 2);
  EXPECT_EQ(rows[0][4].int64_value(), 0);
  EXPECT_EQ(rows[1][0].int64_value(), 2);
  EXPECT_EQ(rows[1][3].int64_value(), 1);

  // Closing a session removes its row.
  s2.reset();
  auto r2 = xdb.Query("SELECT COUNT(*) AS n FROM xdb_stat.sessions");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->result->rows()[0][0].int64_value(), 1);
}

TEST_F(IntrospectFixture, ServersTableShowsBreakerStateAndProfile) {
  HealthTracker health;
  fed_.SetHealthTracker(&health);
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  // Trip d2's breaker: consecutive retryable failures.
  for (int i = 0; i < 3; ++i) health.RecordOutcome("d2", false);
  ASSERT_EQ(health.state("d2"), BreakerState::kOpen);

  auto r = xdb.Query("SELECT * FROM xdb_stat.servers");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), 2u);
  const auto& rows = r->result->rows();
  EXPECT_EQ(rows[0][0].string_value(), "d1");
  EXPECT_EQ(rows[0][1].string_value(), "postgres");
  EXPECT_EQ(rows[0][3].string_value(), "closed");
  EXPECT_EQ(rows[1][0].string_value(), "d2");
  EXPECT_EQ(rows[1][1].string_value(), "mariadb");
  EXPECT_GE(rows[1][2].int64_value(), 1);  // parallelism
  EXPECT_EQ(rows[1][3].string_value(), "open");
  EXPECT_EQ(rows[1][4].double_value(), 1.0);  // rolling error rate
  EXPECT_EQ(rows[1][5].int64_value(), 1);     // trips
  fed_.SetHealthTracker(nullptr);
}

// --- Mediator-local pinning ---

TEST_F(IntrospectFixture, PinnedLocalZeroRoundtripsTransfersAndCacheBypass) {
  XdbOptions opts;
  opts.plan_cache_capacity = 8;
  XdbSystem xdb(&fed_, opts);
  xdb.EnableIntrospection();
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  const size_t cache_size = xdb.plan_cache()->size();
  const int64_t cache_hits = xdb.plan_cache()->hits();
  const int64_t cache_misses = xdb.plan_cache()->misses();

  const char* sql = "SELECT label, status FROM xdb_stat.queries";
  for (int rep = 0; rep < 2; ++rep) {
    auto r = xdb.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->metadata_roundtrips, 0);
    EXPECT_EQ(r->consultations, 0);
    EXPECT_EQ(r->ddl_statements, 0);
    EXPECT_FALSE(r->plan_cache_hit);
    EXPECT_TRUE(r->trace.transfers.empty());
    EXPECT_EQ(r->transferred_bytes(), 0.0);
    EXPECT_TRUE(r->completeness.complete);
    // Modelled cost is parse + logical optimization only.
    EXPECT_DOUBLE_EQ(r->phases.prep, xdb.options().parse_analyze_cost);
    EXPECT_DOUBLE_EQ(r->phases.lopt, xdb.options().lopt_base_cost);
    EXPECT_EQ(r->phases.ann, 0.0);
    EXPECT_EQ(r->phases.exec, 0.0);
  }
  // Never planned through the delegation cache: identical SQL twice, still
  // no entry, no hit, no miss.
  EXPECT_EQ(xdb.plan_cache()->size(), cache_size);
  EXPECT_EQ(xdb.plan_cache()->hits(), cache_hits);
  EXPECT_EQ(xdb.plan_cache()->misses(), cache_misses);
}

TEST_F(IntrospectFixture, TinyDeadlineFailsDuringIntrospectionPlanning) {
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  QueryContext ctx;
  ctx.deadline_seconds = 1e-9;  // cannot pay for parse + optimize
  auto r = xdb.Query("SELECT label, status FROM xdb_stat.queries", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("during introspection planning"),
            std::string::npos)
      << r.status().message();
}

// --- SQL surface over the system tables ---

TEST_F(IntrospectFixture, JoinFilterAggregateIsDeterministic) {
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  // Profiled run fills per-server operator rows for the join below.
  ASSERT_TRUE(xdb.ExplainAnalyze(kJoinSql).ok());
  ASSERT_TRUE(xdb.Query(kFilterSql).ok());

  // The acceptance query: join two system tables, filter, aggregate, order.
  const char* sql =
      "SELECT s.server, s.vendor, COUNT(*) AS ops, SUM(o.act_rows) AS r "
      "FROM xdb_stat.operators o, xdb_stat.servers s "
      "WHERE o.server = s.server AND s.breaker_state = 'closed' "
      "GROUP BY s.server, s.vendor ORDER BY s.server";
  auto first = xdb.Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GE(first->result->num_rows(), 1u);
  EXPECT_EQ(first->metadata_roundtrips, 0);
  EXPECT_TRUE(first->trace.transfers.empty());
  for (const auto& row : first->result->rows()) {
    EXPECT_GE(row[2].int64_value(), 1);
  }
  // Byte-identical on re-run: the underlying history didn't change (the
  // introspection queries themselves add `queries` rows, not operator rows).
  auto second = xdb.Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->result->ToDisplayString(1000),
            second->result->ToDisplayString(1000));
}

TEST_F(IntrospectFixture, SelfJoinSeesOneConsistentSnapshot) {
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  ASSERT_TRUE(xdb.Query(kFilterSql).ok());
  ASSERT_TRUE(xdb.Query(kAggSql).ok());
  // Both sides of the self-join read the same snapshot, so the equi-join on
  // the key is exactly a full match of the base cardinality.
  auto n = xdb.Query("SELECT COUNT(*) AS n FROM xdb_stat.queries");
  ASSERT_TRUE(n.ok());
  auto j = xdb.Query(
      "SELECT COUNT(*) AS n FROM xdb_stat.queries a, xdb_stat.queries b "
      "WHERE a.sequence = b.sequence");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  // The COUNT query itself was recorded in between: one more row.
  EXPECT_EQ(j->result->rows()[0][0].int64_value(),
            n->result->rows()[0][0].int64_value() + 1);
}

TEST_F(IntrospectFixture, OrderByLimitServesTopQueries) {
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  ASSERT_TRUE(xdb.Query(kJoinSql).ok());
  ASSERT_TRUE(xdb.Query(kFilterSql).ok());
  ASSERT_TRUE(xdb.Query(kAggSql).ok());
  auto r = xdb.Query(
      "SELECT sequence, modelled_seconds FROM xdb_stat.queries "
      "ORDER BY modelled_seconds DESC, sequence ASC LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), 2u);
  EXPECT_GE(r->result->rows()[0][1].double_value(),
            r->result->rows()[1][1].double_value());
}

TEST_F(IntrospectFixture, MixingSystemAndFederationTablesFails) {
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  auto r = xdb.Query(
      "SELECT q.label, t1.a FROM xdb_stat.queries q, t1 "
      "WHERE q.sequence = t1.a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("cannot mix"), std::string::npos)
      << r.status().ToString();
}

TEST_F(IntrospectFixture, UnknownSystemTableListsTheVocabulary) {
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  auto r = xdb.Query("SELECT * FROM xdb_stat.nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCatalogError);
  EXPECT_NE(r.status().message().find("queries"), std::string::npos);
  EXPECT_NE(r.status().message().find("servers"), std::string::npos);
}

TEST_F(IntrospectFixture, DisabledSystemRejectsXdbStatViaNormalPath) {
  XdbSystem xdb(&fed_);  // introspection never enabled
  auto r = xdb.Query("SELECT * FROM xdb_stat.queries");
  EXPECT_FALSE(r.ok());
}

TEST_F(IntrospectFixture, LiteralMentionFallsThroughToFederation) {
  DatabaseServer* d1 = fed_.GetServer("d1");
  auto t3 = std::make_shared<Table>(Schema({{"s", TypeId::kString}}));
  t3->AppendRow({Value::String("xdb_stat.queries")});
  t3->AppendRow({Value::String("plain")});
  ASSERT_TRUE(d1->CreateBaseTable("t3", t3).ok());
  XdbSystem xdb(&fed_);
  xdb.EnableIntrospection();
  // "xdb_stat." appears only inside a string literal: the router must fall
  // through to the normal federation pipeline and run it there.
  auto r = xdb.Query("SELECT t3.s FROM t3 WHERE t3.s <> 'xdb_stat.queries'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result->num_rows(), 1u);
  EXPECT_EQ(r->result->rows()[0][0].string_value(), "plain");
  EXPECT_GT(r->metadata_roundtrips, 0);  // it really took the normal path
}

// --- Detached-path bit-identity ---

TEST_F(IntrospectFixture, EnablingIntrospectionIsObservationallyFree) {
  Federation plain_fed;
  Populate(&plain_fed);
  XdbSystem plain(&plain_fed);

  XdbSystem enabled(&fed_);
  enabled.EnableIntrospection();

  for (const char* sql : {kJoinSql, kFilterSql, kAggSql}) {
    auto a = plain.Query(sql);
    auto b = enabled.Query(sql);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->result->ToDisplayString(1000),
              b->result->ToDisplayString(1000));
    EXPECT_EQ(a->phases.prep, b->phases.prep);
    EXPECT_EQ(a->phases.lopt, b->phases.lopt);
    EXPECT_EQ(a->phases.ann, b->phases.ann);
    EXPECT_EQ(a->phases.exec, b->phases.exec);
    EXPECT_EQ(a->transferred_bytes(), b->transferred_bytes());
    EXPECT_EQ(a->metadata_roundtrips, b->metadata_roundtrips);
    EXPECT_EQ(a->consultations, b->consultations);
    EXPECT_EQ(a->ddl_statements, b->ddl_statements);
  }
}

// --- Concurrency (the TSan target) ---

TEST_F(IntrospectFixture, SnapshotsStayConsistentUnderServingLoad) {
  MetricsRegistry metrics;
  fed_.SetMetricsRegistry(&metrics);
  XdbOptions opts;
  opts.plan_cache_capacity = 8;
  opts.exec_threads = 2;
  XdbSystem xdb(&fed_, opts);
  SessionManager manager(&xdb);
  xdb.EnableIntrospection(&manager);  // setup-time, before the threads

  constexpr int kSessions = 4;
  constexpr int kPerSession = 30;
  const char* workload[] = {kJoinSql, kFilterSql, kAggSql};

  std::vector<std::unique_ptr<XdbSession>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.OpenSession());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    XdbSession* session = sessions[i].get();
    threads.emplace_back([&, session] {
      for (int q = 0; q < kPerSession; ++q) {
        if (!session->Query(workload[q % 3], "W").ok()) failures.fetch_add(1);
      }
    });
  }
  // Introspect concurrently: every system table, plus a join, while the
  // serving threads hammer the same sources the providers snapshot.
  std::atomic<int> probe_failures{0};
  std::thread prober([&] {
    const char* probes[] = {
        "SELECT COUNT(*) AS n FROM xdb_stat.queries",
        "SELECT * FROM xdb_stat.metrics",
        "SELECT * FROM xdb_stat.sessions",
        "SELECT * FROM xdb_stat.transfers",
        "SELECT * FROM xdb_stat.plan_cache",
        "SELECT * FROM xdb_stat.servers",
        "SELECT COUNT(*) AS n FROM xdb_stat.operators",
        "SELECT q.label, COUNT(*) AS n FROM xdb_stat.queries q "
        "GROUP BY q.label ORDER BY q.label",
    };
    for (int rep = 0; rep < 3; ++rep) {
      for (const char* sql : probes) {
        auto r = xdb.Query(sql);
        if (!r.ok() || !r->trace.transfers.empty() ||
            r->metadata_roundtrips != 0) {
          probe_failures.fetch_add(1);
        }
      }
    }
  });
  for (auto& t : threads) t.join();
  prober.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(probe_failures.load(), 0);
  EXPECT_EQ(manager.total_queries(), kSessions * kPerSession);
  fed_.SetMetricsRegistry(nullptr);
}

// --- Satellite fix: `\stats <label>` on an empty log ---

TEST(IntrospectQueryLogDrilldown, EmptyLogSaysSoInsteadOfSilence) {
  QueryLog log;
  auto lines = log.LabelDrilldown("nope");
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find("unknown label"), std::string::npos);
  std::string all;
  for (const auto& l : lines) all += l + "\n";
  EXPECT_NE(all.find("(no queries recorded yet)"), std::string::npos) << all;
}

TEST(IntrospectQueryLogDrilldown, UnknownLabelListsVocabulary) {
  QueryLog log;
  QueryStats qs;
  qs.label = "Q5";
  qs.system = "xdb";
  log.Record(qs);
  std::string all;
  for (const auto& l : log.LabelDrilldown("nope")) all += l + "\n";
  EXPECT_NE(all.find("Q5"), std::string::npos) << all;
  EXPECT_EQ(all.find("(no queries recorded yet)"), std::string::npos) << all;
}

}  // namespace
}  // namespace xdb
