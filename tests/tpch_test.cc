#include <gtest/gtest.h>

#include <algorithm>

#include "src/dbms/server.h"
#include "src/mediator/mediator.h"
#include "src/tpch/distributions.h"
#include "src/tpch/queries.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

constexpr double kTestSf = 0.002;  // lineitem ~12k rows

std::vector<Row> Sorted(const Table& t) {
  std::vector<Row> rows = t.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

void ExpectSameRows(const Table& got, const Table& want,
                    const std::string& label) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << label;
  ASSERT_EQ(got.schema().num_fields(), want.schema().num_fields()) << label;
  auto g = Sorted(got), w = Sorted(want);
  for (size_t i = 0; i < g.size(); ++i) {
    for (size_t c = 0; c < g[i].size(); ++c) {
      if (g[i][c].type() == TypeId::kDouble ||
          w[i][c].type() == TypeId::kDouble) {
        double denom = std::max(1.0, std::abs(w[i][c].AsDouble()));
        EXPECT_NEAR(g[i][c].AsDouble() / denom, w[i][c].AsDouble() / denom,
                    1e-9)
            << label << " row " << i << " col " << c;
      } else {
        EXPECT_EQ(g[i][c].Compare(w[i][c]), 0)
            << label << " row " << i << " col " << c << ": "
            << g[i][c].ToString() << " vs " << w[i][c].ToString();
      }
    }
  }
}

/// Single-server oracle holding all TPC-H tables.
std::unique_ptr<Federation> BuildOracle(double sf) {
  auto fed = std::make_unique<Federation>();
  auto* mono = fed->AddServer("mono", EngineProfile::Postgres());
  tpch::DbGen gen(sf);
  for (auto& [table, data] : gen.GenerateAll()) {
    EXPECT_TRUE(mono->CreateBaseTable(table, data).ok());
  }
  return fed;
}

class TpchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    oracle_fed_ = BuildOracle(kTestSf).release();
  }
  static void TearDownTestSuite() {
    delete oracle_fed_;
    oracle_fed_ = nullptr;
  }

  static TablePtr Oracle(const std::string& sql) {
    auto r = oracle_fed_->GetServer("mono")->ExecuteQuery(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  static Federation* oracle_fed_;
};

Federation* TpchFixture::oracle_fed_ = nullptr;

TEST_F(TpchFixture, GeneratorShapes) {
  tpch::DbGen gen(kTestSf);
  auto region = gen.Region();
  auto nation = gen.Nation();
  EXPECT_EQ(region->num_rows(), 5u);
  EXPECT_EQ(nation->num_rows(), 25u);
  auto orders = gen.Orders();
  auto lineitem = gen.Lineitem();
  // ~4 lines per order on average (1..7 uniform).
  double ratio = static_cast<double>(lineitem->num_rows()) /
                 static_cast<double>(orders->num_rows());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
  auto partsupp = gen.PartSupp();
  EXPECT_EQ(partsupp->num_rows(), 4u * static_cast<size_t>(
                                           gen.num_parts()));
}

TEST_F(TpchFixture, GeneratorIsDeterministic) {
  tpch::DbGen a(kTestSf), b(kTestSf);
  auto ta = a.Customer(), tb = b.Customer();
  ASSERT_EQ(ta->num_rows(), tb->num_rows());
  for (size_t i = 0; i < std::min<size_t>(50, ta->num_rows()); ++i) {
    for (size_t c = 0; c < ta->schema().num_fields(); ++c) {
      EXPECT_EQ(ta->row(i)[c].Compare(tb->row(i)[c]), 0);
    }
  }
}

TEST_F(TpchFixture, LineitemSupplierReferentialIntegrity) {
  // Q9 correctness depends on (l_partkey, l_suppkey) pairs existing in
  // partsupp — validated by the join cardinality being nonzero.
  auto r = Oracle(
      "SELECT COUNT(*) AS n FROM lineitem l, partsupp ps "
      "WHERE ps.ps_partkey = l.l_partkey AND ps.ps_suppkey = l.l_suppkey");
  ASSERT_NE(r, nullptr);
  auto all = Oracle("SELECT COUNT(*) AS n FROM lineitem l");
  ASSERT_NE(all, nullptr);
  // Every lineitem row must find exactly its partsupp pair.
  EXPECT_EQ(r->row(0)[0].int64_value(), all->row(0)[0].int64_value());
}

TEST_F(TpchFixture, SelectivitiesAreReasonable) {
  auto seg = Oracle(
      "SELECT COUNT(*) AS n FROM customer c "
      "WHERE c.c_mktsegment = 'BUILDING'");
  auto total = Oracle("SELECT COUNT(*) AS n FROM customer c");
  double f = seg->row(0)[0].AsDouble() / total->row(0)[0].AsDouble();
  EXPECT_GT(f, 0.1);
  EXPECT_LT(f, 0.3);  // ~1/5

  auto green = Oracle(
      "SELECT COUNT(*) AS n FROM part p WHERE p.p_name LIKE '%green%'");
  auto parts = Oracle("SELECT COUNT(*) AS n FROM part p");
  double g = green->row(0)[0].AsDouble() / parts->row(0)[0].AsDouble();
  EXPECT_GT(g, 0.05);
  EXPECT_LT(g, 0.35);
}

struct SystemCase {
  const char* system;
  int td;
};

// Without this, gtest prints the parameter as its raw bytes -- the address of
// `system` and the struct padding -- into the listed test name, which then
// changes from build to build and from run to run.
void PrintTo(const SystemCase& c, std::ostream* os) {
  *os << c.system << "/TD" << c.td;
}

class TpchSystemsCorrectness
    : public TpchFixture,
      public ::testing::WithParamInterface<SystemCase> {};

TEST_P(TpchSystemsCorrectness, AllQueriesMatchOracle) {
  const auto& param = GetParam();
  auto fed = tpch::BuildTpchFederation(kTestSf,
                                       tpch::DistributionByIndex(param.td));

  std::unique_ptr<XdbSystem> xdb;
  std::unique_ptr<MediatorSystem> mediator;
  std::string name = param.system;
  if (name == "xdb") {
    xdb = std::make_unique<XdbSystem>(fed.get());
  } else if (name == "garlic") {
    mediator =
        std::make_unique<MediatorSystem>(fed.get(), MediatorKind::kGarlic);
  } else if (name == "presto") {
    mediator =
        std::make_unique<MediatorSystem>(fed.get(), MediatorKind::kPresto);
  } else {
    mediator =
        std::make_unique<MediatorSystem>(fed.get(), MediatorKind::kSclera);
  }

  for (const auto& q : tpch::EvaluationQueries()) {
    TablePtr want = Oracle(q.sql);
    ASSERT_NE(want, nullptr) << q.id;
    Result<XdbReport> report =
        xdb ? xdb->Query(q.sql) : mediator->Query(q.sql);
    ASSERT_TRUE(report.ok())
        << name << "/" << q.id << ": " << report.status().ToString();
    ExpectSameRows(*report->result, *want,
                   name + "/" + q.id + "/TD" + std::to_string(param.td));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, TpchSystemsCorrectness,
    ::testing::Values(SystemCase{"xdb", 1}, SystemCase{"xdb", 2},
                      SystemCase{"xdb", 3}, SystemCase{"garlic", 1},
                      SystemCase{"presto", 1}, SystemCase{"sclera", 1},
                      SystemCase{"garlic", 2}, SystemCase{"presto", 3}),
    [](const ::testing::TestParamInfo<SystemCase>& info) {
      return std::string(info.param.system) + "_TD" +
             std::to_string(info.param.td);
    });

TEST_F(TpchFixture, MediatorPlacesCrossOpsOnMediator) {
  auto fed = tpch::BuildTpchFederation(kTestSf, tpch::TD1());
  MediatorSystem presto(fed.get(), MediatorKind::kPresto);
  auto report = presto.Query(tpch::FindQuery("Q3")->sql);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The root (all joins + aggregation) runs on the mediator.
  EXPECT_EQ(report->plan.root().server, "presto");
  // All data flows into the mediator.
  for (const auto& t : report->trace.transfers) {
    EXPECT_EQ(t.dst, "presto");
  }
}

TEST_F(TpchFixture, XdbNeverPlacesTasksOffTheDataNodes) {
  auto fed = tpch::BuildTpchFederation(kTestSf, tpch::TD1());
  XdbSystem xdb(fed.get());
  for (const auto& q : tpch::EvaluationQueries()) {
    auto report = xdb.Query(q.sql);
    ASSERT_TRUE(report.ok()) << q.id << report.status().ToString();
    for (const auto& t : report->plan.tasks) {
      EXPECT_NE(t.server, "xdb") << q.id;
    }
    // And no intermediate data ever flows through the middleware node.
    for (const auto& tr : report->trace.transfers) {
      EXPECT_NE(tr.dst, "xdb") << q.id;
      EXPECT_NE(tr.src, "xdb") << q.id;
    }
  }
}

TEST_F(TpchFixture, ScleraMovesEverythingExplicitly) {
  auto fed = tpch::BuildTpchFederation(kTestSf, tpch::TD1());
  MediatorSystem sclera(fed.get(), MediatorKind::kSclera);
  auto report = sclera.Query(tpch::FindQuery("Q3")->sql);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const auto& t : report->trace.transfers) {
    EXPECT_TRUE(t.materialized) << t.src << "->" << t.dst;
  }
}

}  // namespace
}  // namespace xdb
