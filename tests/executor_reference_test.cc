// Differential test of the columnar executor: ExecutePlan must agree bit for
// bit — result rows, their order, NULL type tags, -0.0 payloads, and every
// ComputeTrace counter — with a naive row-at-a-time interpreter (nested-loop
// joins, scalar EvalExpr, Value::Compare) at exec_threads 1 and 4, over
// randomized NULL-heavy tables.
//
// The reference encodes the executor's documented semantics directly:
//   * equi-joins build on the smaller input (the right one on ties) and emit
//     probe rows in order, each with its matching build rows ascending;
//     keys match when neither is NULL and Value::Compare says equal;
//   * aggregation runs over fixed 16384-row ranges whose group maps merge in
//     range order, and the merged hash map's iteration order is the output
//     order;
//   * Sort is a stable sort, and Top-N (LIMIT over Sort) a partial sort of
//     the rows under the same comparator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <unordered_map>

#include "src/exec/executor.h"
#include "src/plan/stats.h"

namespace xdb {
namespace {

constexpr size_t kAggRangeRows = 16384;

bool BitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  switch (a.type()) {
    case TypeId::kString:
      return a.string_value() == b.string_value();
    case TypeId::kDouble: {
      double x = a.double_value(), y = b.double_value();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    default:
      return a.int64_value() == b.int64_value();
  }
}

/// Serves named tables; foreign fetches read the same map.
class TableContext : public ExecContext {
 public:
  TableContext(const std::map<std::string, TablePtr>* tables, int threads)
      : tables_(tables), threads_(threads) {}

  Result<TablePtr> GetLocalTable(const std::string& name) override {
    auto it = tables_->find(name);
    if (it == tables_->end()) return Status::CatalogError("no " + name);
    return it->second;
  }
  Result<TablePtr> ForeignFetch(const std::string& /*server*/,
                                const std::string& relation,
                                double /*est_rows*/,
                                double /*est_bytes*/) override {
    return GetLocalTable(relation);
  }
  ComputeTrace* trace() override { return &trace_; }
  int exec_threads() const override { return threads_; }

  ComputeTrace trace_;

 private:
  const std::map<std::string, TablePtr>* tables_;
  int threads_;
};

// ---------------------------------------------------------------------------
// Reference interpreter
// ---------------------------------------------------------------------------

struct RefAgg {
  double sum = 0;
  int64_t isum = 0;
  bool int_sum = true;
  int64_t count = 0;
  Value min = Value::Null(TypeId::kInt64);
  Value max = Value::Null(TypeId::kInt64);
};

struct RefGroup {
  Row key;
  std::vector<RefAgg> aggs;
};

class Reference {
 public:
  explicit Reference(const std::map<std::string, TablePtr>* tables)
      : tables_(tables) {}

  std::vector<Row> Run(const PlanNode& plan) {
    switch (plan.kind) {
      case PlanKind::kScan: {
        const std::string& name =
            plan.is_foreign ? plan.remote_relation : plan.table;
        std::vector<Row> rows = tables_->at(name)->rows();
        (plan.is_foreign ? trace.foreign_rows : trace.scan_rows) +=
            static_cast<double>(rows.size());
        return rows;
      }
      case PlanKind::kFilter: {
        std::vector<Row> in = Run(*plan.children[0]);
        trace.filter_input_rows += static_cast<double>(in.size());
        std::vector<Row> out;
        for (Row& r : in) {
          if (EvalPredicate(*plan.predicate, r)) out.push_back(std::move(r));
        }
        return out;
      }
      case PlanKind::kProject: {
        std::vector<Row> in = Run(*plan.children[0]);
        trace.project_rows += static_cast<double>(in.size());
        std::vector<Row> out;
        for (const Row& r : in) {
          Row o;
          for (const ExprPtr& e : plan.exprs) o.push_back(EvalExpr(*e, r));
          out.push_back(std::move(o));
        }
        return out;
      }
      case PlanKind::kJoin:
        return Join(plan);
      case PlanKind::kAggregate:
        return Aggregate(plan);
      case PlanKind::kSort: {
        std::vector<Row> rows = Run(*plan.children[0]);
        trace.sort_rows += static_cast<double>(rows.size());
        std::stable_sort(rows.begin(), rows.end(), Less(plan.sort_keys));
        return rows;
      }
      case PlanKind::kLimit: {
        const PlanNode& child = *plan.children[0];
        if (child.kind == PlanKind::kSort && plan.limit >= 0) {
          std::vector<Row> rows = Run(*child.children[0]);
          trace.sort_rows += static_cast<double>(rows.size());
          const size_t n =
              std::min<size_t>(static_cast<size_t>(plan.limit), rows.size());
          std::partial_sort(rows.begin(), rows.begin() + static_cast<long>(n),
                            rows.end(), Less(child.sort_keys));
          rows.resize(n);
          return rows;
        }
        std::vector<Row> rows = Run(child);
        rows.resize(
            std::min<size_t>(static_cast<size_t>(plan.limit), rows.size()));
        return rows;
      }
      case PlanKind::kPlaceholder:
        break;
    }
    ADD_FAILURE() << "unexpected plan node";
    return {};
  }

  ComputeTrace trace;

 private:
  static std::function<bool(const Row&, const Row&)> Less(
      const std::vector<std::pair<int, bool>>& keys) {
    return [keys](const Row& a, const Row& b) {
      for (const auto& [idx, desc] : keys) {
        const int c = a[static_cast<size_t>(idx)].Compare(
            b[static_cast<size_t>(idx)]);
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return false;
    };
  }

  static Row Concat(const Row& a, const Row& b) {
    Row r = a;
    r.insert(r.end(), b.begin(), b.end());
    return r;
  }

  std::vector<Row> Join(const PlanNode& plan) {
    std::vector<Row> left = Run(*plan.children[0]);
    std::vector<Row> right = Run(*plan.children[1]);
    std::vector<Row> out;
    auto emit = [&](Row row) {
      if (plan.residual == nullptr || EvalPredicate(*plan.residual, row)) {
        out.push_back(std::move(row));
      }
    };
    if (plan.left_keys.empty()) {
      trace.join_build_rows += static_cast<double>(right.size());
      trace.join_probe_rows += static_cast<double>(left.size());
      for (const Row& l : left) {
        for (const Row& r : right) emit(Concat(l, r));
      }
    } else {
      const bool build_right = right.size() <= left.size();
      const std::vector<Row>& build = build_right ? right : left;
      const std::vector<Row>& probe = build_right ? left : right;
      const std::vector<int>& bk = build_right ? plan.right_keys
                                               : plan.left_keys;
      const std::vector<int>& pk = build_right ? plan.left_keys
                                               : plan.right_keys;
      trace.join_build_rows += static_cast<double>(build.size());
      trace.join_probe_rows += static_cast<double>(probe.size());
      for (const Row& p : probe) {
        for (const Row& b : build) {
          bool match = true;
          for (size_t k = 0; k < pk.size() && match; ++k) {
            const Value& x = p[static_cast<size_t>(pk[k])];
            const Value& y = b[static_cast<size_t>(bk[k])];
            match = !x.is_null() && !y.is_null() && x.Compare(y) == 0;
          }
          if (match) emit(build_right ? Concat(p, b) : Concat(b, p));
        }
      }
    }
    trace.join_output_rows += static_cast<double>(out.size());
    return out;
  }

  std::vector<Row> Aggregate(const PlanNode& plan) {
    std::vector<Row> in = Run(*plan.children[0]);
    trace.agg_input_rows += static_cast<double>(in.size());
    const size_t naggs = plan.aggregates.size();
    using Groups = std::unordered_map<std::string, RefGroup>;
    const size_t ranges =
        std::max<size_t>(1, (in.size() + kAggRangeRows - 1) / kAggRangeRows);
    std::vector<Groups> partial(ranges);
    if (plan.group_keys.empty()) partial[0][""].aggs.resize(naggs);
    for (size_t r = 0; r < in.size(); ++r) {
      const Row& row = in[r];
      Row key;
      std::string norm;
      for (const ExprPtr& g : plan.group_keys) {
        key.push_back(EvalExpr(*g, row));
        key.back().AppendNormalizedKey(&norm);
      }
      auto [it, inserted] = partial[r / kAggRangeRows].try_emplace(norm);
      if (inserted) {
        it->second.key = std::move(key);
        it->second.aggs.resize(naggs);
      }
      for (size_t a = 0; a < naggs; ++a) {
        const Expr& agg = *plan.aggregates[a];
        RefAgg& st = it->second.aggs[a];
        if (agg.agg_kind == AggKind::kCountStar) {
          ++st.count;
          continue;
        }
        const Value v = EvalExpr(*agg.children[0], row);
        if (v.is_null()) continue;
        ++st.count;
        if (agg.agg_kind == AggKind::kSum || agg.agg_kind == AggKind::kAvg) {
          if (v.type() == TypeId::kDouble) st.int_sum = false;
          st.sum += v.AsDouble();
          st.isum += v.type() == TypeId::kDouble ? 0 : v.int64_value();
        } else if (agg.agg_kind == AggKind::kMin) {
          if (st.min.is_null() || v.Compare(st.min) < 0) st.min = v;
        } else if (agg.agg_kind == AggKind::kMax) {
          if (st.max.is_null() || v.Compare(st.max) > 0) st.max = v;
        }
      }
    }
    Groups merged = std::move(partial[0]);
    for (size_t p = 1; p < ranges; ++p) {
      for (auto& [norm, group] : partial[p]) {
        auto [it, inserted] = merged.try_emplace(norm);
        if (inserted) {
          it->second = std::move(group);
          continue;
        }
        for (size_t a = 0; a < naggs; ++a) {
          RefAgg& st = it->second.aggs[a];
          const RefAgg& o = group.aggs[a];
          st.sum += o.sum;
          st.isum += o.isum;
          st.int_sum = st.int_sum && o.int_sum;
          st.count += o.count;
          if (!o.min.is_null() &&
              (st.min.is_null() || o.min.Compare(st.min) < 0)) {
            st.min = o.min;
          }
          if (!o.max.is_null() &&
              (st.max.is_null() || o.max.Compare(st.max) > 0)) {
            st.max = o.max;
          }
        }
      }
    }
    std::vector<Row> out;
    for (auto& [norm, group] : merged) {
      Row row = group.key;
      for (size_t a = 0; a < naggs; ++a) {
        const ExprPtr& agg = plan.aggregates[a];
        const RefAgg& st = group.aggs[a];
        switch (agg->agg_kind) {
          case AggKind::kCountStar:
          case AggKind::kCount:
            row.push_back(Value::Int64(st.count));
            break;
          case AggKind::kSum:
            row.push_back(st.count == 0 ? Value::Null(InferType(agg))
                          : st.int_sum  ? Value::Int64(st.isum)
                                        : Value::Double(st.sum));
            break;
          case AggKind::kAvg:
            row.push_back(st.count == 0
                              ? Value::Null(TypeId::kDouble)
                              : Value::Double(st.sum /
                                              static_cast<double>(st.count)));
            break;
          case AggKind::kMin:
            row.push_back(st.min.is_null() ? Value::Null(InferType(agg))
                                           : st.min);
            break;
          case AggKind::kMax:
            row.push_back(st.max.is_null() ? Value::Null(InferType(agg))
                                           : st.max);
            break;
        }
      }
      out.push_back(std::move(row));
    }
    trace.agg_output_rows += static_cast<double>(out.size());
    return out;
  }

  const std::map<std::string, TablePtr>* tables_;
};

// ---------------------------------------------------------------------------
// Randomized NULL-heavy data
// ---------------------------------------------------------------------------

// Columns shared by both tables:
//   0 k   int64   small domain, duplicates, ~25% NULL
//   1 kd  double  halves in [0, 20) plus -0.0, ~25% NULL
//   2 s   string  60 distinct values (dictionary-coded once chunked)
//   3 v   int64   wide range, ~20% NULL
//   4 x   double  wide range, ~20% NULL
//   5 d   date    30 distinct days, ~20% NULL
//   6 m   mixed   int64 / double / string lanes and differently typed NULLs
Schema TestSchema() {
  return Schema({{"k", TypeId::kInt64},
                 {"kd", TypeId::kDouble},
                 {"s", TypeId::kString},
                 {"v", TypeId::kInt64},
                 {"x", TypeId::kDouble},
                 {"d", TypeId::kDate},
                 {"m", TypeId::kDouble}});
}

TablePtr RandomTable(size_t n, int key_domain, uint32_t seed) {
  std::mt19937 rng(seed);
  auto pct = [&](int p) {
    return std::uniform_int_distribution<int>(0, 99)(rng) < p;
  };
  auto pick = [&](int hi) {
    return std::uniform_int_distribution<int>(0, hi - 1)(rng);
  };
  auto str = [&] {
    const int i = pick(60);
    return i == 0 ? std::string() : "str" + std::to_string(i);
  };
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row r;
    r.push_back(pct(25) ? Value::Null(TypeId::kInt64)
                        : Value::Int64(pick(key_domain)));
    r.push_back(pct(25)   ? Value::Null(TypeId::kDouble)
                : pct(10) ? Value::Double(-0.0)
                          : Value::Double(pick(40) / 2.0));
    r.push_back(pct(15) ? Value::Null(TypeId::kString) : Value::String(str()));
    r.push_back(pct(20) ? Value::Null(TypeId::kInt64)
                        : Value::Int64(pick(2000) - 1000));
    r.push_back(pct(20) ? Value::Null(TypeId::kDouble)
                        : Value::Double((pick(20000) - 10000) / 8.0));
    r.push_back(pct(20) ? Value::Null(TypeId::kDate)
                        : Value::Date(8000 + pick(30)));
    switch (pick(6)) {
      case 0: r.push_back(Value::Int64(pick(20))); break;
      case 1: r.push_back(Value::Double(pick(20))); break;
      case 2: r.push_back(Value::String(str())); break;
      case 3: r.push_back(Value::Null(TypeId::kString)); break;
      case 4: r.push_back(Value::Null(TypeId::kInt64)); break;
      default: r.push_back(Value::Double(-0.0)); break;
    }
    rows.push_back(std::move(r));
  }
  return std::make_shared<Table>(TestSchema(), std::move(rows));
}

ExprPtr Col(int i, TypeId t) {
  return Expr::BoundColumn(i, t, "c" + std::to_string(i));
}
ExprPtr Lit(Value v) { return Expr::Literal(std::move(v)); }

constexpr int kWidth = 7;  // columns per test table

class ExecutorReference : public ::testing::Test {
 protected:
  void SetUp() override {
    // Tables are chunked (dictionary-coded strings); "big" also releases
    // its rows, as DatabaseServer::CreateBaseTable does, while the others
    // stay row-backed.
    tables_["big"] = RandomTable(4500, 40, 1);  // two probe morsels
    tables_["small"] = RandomTable(300, 40, 2);
    tables_["one"] = RandomTable(1, 40, 3);
    tables_["empty"] = RandomTable(0, 40, 4);
    for (auto& [name, t] : tables_) t->EnsureChunked();
    tables_["big"]->ReleaseRows();
    // A column-backed input: an executor result fed to later plans.
    TableContext ctx(&tables_, 1);
    auto r = ExecutePlan(*Project(Scan("small"), AllColumns(0)), &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    tables_["small_cols"] = *r;
  }

  PlanPtr Scan(const std::string& name) {
    const TablePtr& t = tables_.at(name);
    return PlanNode::MakeScan("db", name, name, t->schema(),
                              ComputeTableStats(*t));
  }
  PlanPtr Foreign(const std::string& name) {
    PlanPtr scan = Scan(name);
    scan->is_foreign = true;
    scan->foreign_server = "remote";
    scan->remote_relation = name;
    return scan;
  }
  static std::vector<ExprPtr> AllColumns(int offset) {
    const Schema schema = TestSchema();
    std::vector<ExprPtr> out;
    for (int i = 0; i < kWidth; ++i) {
      out.push_back(Col(offset + i, schema.field(static_cast<size_t>(i)).type));
    }
    return out;
  }
  static PlanPtr Project(PlanPtr child, std::vector<ExprPtr> exprs) {
    return PlanNode::MakeProject(std::move(child), std::move(exprs));
  }
  static PlanPtr Join(PlanPtr l, PlanPtr r, std::vector<int> lk,
                      std::vector<int> rk, ExprPtr residual = nullptr) {
    return PlanNode::MakeJoin(std::move(l), std::move(r), std::move(lk),
                              std::move(rk), std::move(residual));
  }

  /// Runs `plan` through the reference and through ExecutePlan at 1 and 4
  /// threads; rows and traces must be bit-identical.
  void Check(const PlanNode& plan, const std::string& label) {
    SCOPED_TRACE(label);
    Reference ref(&tables_);
    const std::vector<Row> expected = ref.Run(plan);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("exec_threads=" + std::to_string(threads));
      TableContext ctx(&tables_, threads);
      auto result = ExecutePlan(plan, &ctx);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const Table& got = **result;
      ASSERT_EQ(got.num_rows(), expected.size());
      const std::vector<Row>& rows = got.rows();
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(rows[i].size(), expected[i].size()) << "row " << i;
        for (size_t c = 0; c < expected[i].size(); ++c) {
          ASSERT_TRUE(BitEqual(rows[i][c], expected[i][c]))
              << "row " << i << " col " << c << ": "
              << rows[i][c].ToString() << " vs "
              << expected[i][c].ToString();
        }
      }
      const ComputeTrace& a = ctx.trace_;
      const ComputeTrace& b = ref.trace;
      EXPECT_EQ(a.scan_rows, b.scan_rows);
      EXPECT_EQ(a.foreign_rows, b.foreign_rows);
      EXPECT_EQ(a.filter_input_rows, b.filter_input_rows);
      EXPECT_EQ(a.project_rows, b.project_rows);
      EXPECT_EQ(a.join_build_rows, b.join_build_rows);
      EXPECT_EQ(a.join_probe_rows, b.join_probe_rows);
      EXPECT_EQ(a.join_output_rows, b.join_output_rows);
      EXPECT_EQ(a.agg_input_rows, b.agg_input_rows);
      EXPECT_EQ(a.agg_output_rows, b.agg_output_rows);
      EXPECT_EQ(a.sort_rows, b.sort_rows);
      EXPECT_EQ(a.materialized_rows, b.materialized_rows);
      EXPECT_EQ(a.output_rows, b.output_rows);
    }
  }

  std::map<std::string, TablePtr> tables_;
};

TEST_F(ExecutorReference, JoinKeyEdgeCases) {
  // int64 keys with NULLs and duplicate build keys (packed-key path).
  Check(*Join(Scan("big"), Scan("small"), {0}, {0}), "int = int");
  // 1 against 1.0: an int64 probe key and a double build key.
  Check(*Join(Scan("big"), Scan("small"), {0}, {1}), "int = double");
  // -0.0 against 0.0 (and integral doubles against each other).
  Check(*Join(Scan("big"), Scan("small"), {1}, {1}), "double = double");
  // Dictionary-coded base strings on both sides.
  Check(*Join(Scan("big"), Scan("small"), {2}, {2}), "dict = dict");
  // Two int64-class keys (128-bit packed) and three keys (normalized).
  Check(*Join(Scan("big"), Scan("small"), {0, 5}, {0, 5}), "two keys");
  Check(*Join(Scan("big"), Scan("small"), {0, 2, 1}, {0, 2, 1}),
        "three keys");
  // Mixed-type lanes as a key.
  Check(*Join(Scan("small"), Scan("small_cols"), {6}, {6}), "mixed = mixed");
  Check(*Join(Scan("small"), Scan("big"), {6}, {0}), "mixed = int");
  // The left side as the build side; a column-backed foreign input.
  Check(*Join(Scan("small"), Foreign("big"), {0}, {0}), "build left");
  Check(*Join(Foreign("small_cols"), Scan("big"), {2, 0}, {2, 0}),
        "column-backed input");
}

TEST_F(ExecutorReference, JoinsFeedLaterOperators) {
  // A residual over both sides, then a projection of computed expressions
  // over the joined ids (late materialization).
  ExprPtr residual =
      Expr::Binary(BinaryOp::kLt, Col(3, TypeId::kInt64),
                   Col(kWidth + 3, TypeId::kInt64));
  PlanPtr joined = Join(Scan("big"), Scan("small"), {0}, {0}, residual);
  Check(*joined, "residual");
  std::vector<ExprPtr> exprs = {
      Col(kWidth + 2, TypeId::kString),
      Expr::Binary(BinaryOp::kMul, Col(4, TypeId::kDouble),
                   Expr::Binary(BinaryOp::kSub, Lit(Value::Int64(1)),
                                Col(kWidth + 4, TypeId::kDouble))),
      Expr::Binary(BinaryOp::kDiv, Col(3, TypeId::kInt64),
                   Col(kWidth + 0, TypeId::kInt64)),
      Expr::Case({Expr::Binary(BinaryOp::kEq, Col(2, TypeId::kString),
                               Lit(Value::String("str7"))),
                  Col(4, TypeId::kDouble)},
                 Lit(Value::Int64(0))),
      Expr::Like(Col(kWidth + 2, TypeId::kString), Lit(Value::String("%1%"))),
      Expr::Function("extract_year", {Col(5, TypeId::kDate)}),
      Expr::InList(Col(6, TypeId::kDouble),
                   {Lit(Value::Int64(1)), Lit(Value::String("str7"))}),
      Col(6, TypeId::kDouble),
      Col(kWidth + 6, TypeId::kDouble)};
  Check(*Project(joined, exprs), "project over join");
  // Filter over a join, then a second join on a projected key.
  PlanPtr filtered = PlanNode::MakeFilter(
      Join(Scan("big"), Scan("small"), {2}, {2}),
      Expr::Binary(BinaryOp::kOr,
                   Expr::Binary(BinaryOp::kGt, Col(4, TypeId::kDouble),
                                Lit(Value::Double(0.0))),
                   Expr::Unary(UnaryOp::kIsNull, Col(kWidth + 1,
                                                     TypeId::kDouble))));
  Check(*filtered, "filter over join");
  Check(*Join(filtered, Scan("one"), {kWidth + 0}, {0}), "join of join");
}

TEST_F(ExecutorReference, EdgeInputs) {
  Check(*Join(Scan("empty"), Scan("small"), {0}, {0}), "empty build");
  Check(*Join(Scan("small"), Scan("empty"), {0}, {0}), "empty probe");
  Check(*Join(Scan("one"), Scan("small"), {2}, {2}), "single row");
  Check(*Project(Scan("empty"), {Expr::Binary(BinaryOp::kAdd,
                                              Col(3, TypeId::kInt64),
                                              Lit(Value::Int64(1)))}),
        "empty project");
  Check(*PlanNode::MakeAggregate(
            Scan("empty"), {},
            {Expr::Aggregate(AggKind::kCountStar, nullptr),
             Expr::Aggregate(AggKind::kSum, Col(3, TypeId::kInt64)),
             Expr::Aggregate(AggKind::kMin, Col(2, TypeId::kString))}),
        "global aggregate over empty input");
  // Cross product with a residual predicate.
  ExprPtr residual =
      Expr::Binary(BinaryOp::kEq, Col(2, TypeId::kString),
                   Col(kWidth + 2, TypeId::kString));
  Check(*Join(Scan("small"), Scan("small_cols"), {}, {}, residual),
        "cross product");
  Check(*Join(Scan("one"), Scan("small"), {}, {}),
        "cross product, no residual");
  Check(*PlanNode::MakeLimit(Scan("big"), 5000), "limit");
  Check(*PlanNode::MakeLimit(
            PlanNode::MakeFilter(Scan("small"),
                                 Expr::Binary(BinaryOp::kGt,
                                              Col(3, TypeId::kInt64),
                                              Lit(Value::Int64(0)))),
            3),
        "limit over filter");
}

TEST_F(ExecutorReference, AggregatesOverJoins) {
  PlanPtr joined = Join(Scan("big"), Scan("small"), {0}, {0});
  Reference sizing(&tables_);
  sizing.Run(*joined);
  // More than one aggregation range, so partial maps merge.
  ASSERT_GT(sizing.trace.join_output_rows, double(kAggRangeRows));
  std::vector<ExprPtr> aggs = {
      Expr::Aggregate(AggKind::kCountStar, nullptr),
      Expr::Aggregate(AggKind::kCount, Col(kWidth + 3, TypeId::kInt64)),
      Expr::Aggregate(AggKind::kSum, Col(3, TypeId::kInt64)),
      Expr::Aggregate(AggKind::kSum, Col(4, TypeId::kDouble)),
      Expr::Aggregate(AggKind::kAvg, Col(kWidth + 4, TypeId::kDouble)),
      Expr::Aggregate(AggKind::kMin, Col(kWidth + 1, TypeId::kDouble)),
      Expr::Aggregate(AggKind::kMax, Col(2, TypeId::kString)),
      Expr::Aggregate(AggKind::kSum, Col(6, TypeId::kDouble)),
      Expr::Aggregate(AggKind::kMax, Col(6, TypeId::kDouble))};
  Check(*PlanNode::MakeAggregate(joined, {Col(2, TypeId::kString)}, aggs),
        "group by dict string");
  Check(*PlanNode::MakeAggregate(
            joined,
            {Col(kWidth + 1, TypeId::kDouble), Col(6, TypeId::kDouble),
             Expr::Function("extract_year", {Col(5, TypeId::kDate)})},
            aggs),
        "group by double, mixed, computed");
  Check(*PlanNode::MakeAggregate(joined, {}, aggs), "global aggregate");
}

TEST_F(ExecutorReference, SortAndTopNTies) {
  // Few distinct sort values, so ties are everywhere.
  const std::vector<std::pair<int, bool>> keys = {{2, false}, {1, true}};
  Check(*PlanNode::MakeSort(Scan("big"), keys), "stable sort");
  for (int64_t limit : {0, 1, 7, 300, 100000}) {
    Check(*PlanNode::MakeLimit(PlanNode::MakeSort(Scan("big"), keys), limit),
          "top-n " + std::to_string(limit));
  }
  PlanPtr joined = Join(Scan("big"), Scan("small"), {2}, {2});
  Check(*PlanNode::MakeLimit(
            PlanNode::MakeSort(joined, {{6, true}, {kWidth + 6, false}}), 25),
        "top-n over join on mixed columns");
}

}  // namespace
}  // namespace xdb
