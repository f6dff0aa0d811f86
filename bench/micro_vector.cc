// Constant-factor win of the vectorized expression kernels. Benchmarks
// TPC-H Q6- and Q1-shaped filter/project work over a >=1M-row synthetic
// lineitem at exec_threads 1 and 4, scalar row-at-a-time vs EvalExprBatch /
// EvalPredicateBatch. The "Batch" cases read rows through the RowBlock
// adapter, which converts the rows to columns on every call; the "Columns"
// case filters a column-backed ColumnBatch, the form the executor passes
// between operators, and a Q9-shaped six-way join runs through ExecutePlan.
// Before the benchmarks run, it checks that the column filter and the join
// give identical results at 1 and 4 threads, and on real federated queries
// that the *modelled* quantities — timing-model seconds and transferred MB —
// are identical whichever thread count executes: vectorization buys
// wall-clock only, never different figures.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <random>

#include "bench/bench_common.h"
#include "src/common/thread_pool.h"
#include "src/exec/executor.h"
#include "src/expr/vector_eval.h"
#include "src/plan/stats.h"

namespace xdb {
namespace bench {
namespace {

constexpr size_t kRows = 1 << 20;  // ~1M rows, ISSUE acceptance floor
constexpr size_t kMorsel = 4096;   // mirrors the executor's morsel size

// lineitem-shaped columns: quantity, extendedprice, discount, tax, shipdate.
constexpr int kQty = 0, kPrice = 1, kDisc = 2, kTax = 3, kShip = 4;

const std::vector<Row>& Rows() {
  static const std::vector<Row>* rows = [] {
    std::mt19937 rng(42);
    std::uniform_int_distribution<int> qty(1, 50);
    std::uniform_real_distribution<double> price(900.0, 105000.0);
    std::uniform_int_distribution<int> disc(0, 10);
    std::uniform_int_distribution<int> tax(0, 8);
    std::uniform_int_distribution<int> ship(0, 2555);  // 7 years
    auto* out = new std::vector<Row>();
    out->reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      out->push_back(Row{
          Value::Double(double(qty(rng))),
          Value::Double(price(rng)),
          Value::Double(disc(rng) / 100.0),
          Value::Double(tax(rng) / 100.0),
          Value::Date(DaysFromCivil(1992, 1, 1) + ship(rng)),
      });
    }
    return out;
  }();
  return *rows;
}

// Q6 predicate: shipdate >= DATE '1994-01-01' AND shipdate < DATE
// '1995-01-01' AND discount BETWEEN 0.05 AND 0.07 AND quantity < 24.
ExprPtr Q6Predicate() {
  auto ship = [] { return Expr::BoundColumn(kShip, TypeId::kDate, "ship"); };
  ExprPtr p = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGe, ship(),
                   Expr::Literal(Value::Date(DaysFromCivil(1994, 1, 1)))),
      Expr::Binary(BinaryOp::kLt, ship(),
                   Expr::Literal(Value::Date(DaysFromCivil(1995, 1, 1)))));
  p = Expr::Binary(
      BinaryOp::kAnd, std::move(p),
      Expr::Between(Expr::BoundColumn(kDisc, TypeId::kDouble, "disc"),
                    Expr::Literal(Value::Double(0.05)),
                    Expr::Literal(Value::Double(0.07))));
  return Expr::Binary(
      BinaryOp::kAnd, std::move(p),
      Expr::Binary(BinaryOp::kLt,
                   Expr::BoundColumn(kQty, TypeId::kDouble, "qty"),
                   Expr::Literal(Value::Double(24.0))));
}

// Q1-shaped projections: disc_price = price * (1 - discount),
// charge = price * (1 - discount) * (1 + tax).
std::vector<ExprPtr> Q1Projections() {
  auto price = [] { return Expr::BoundColumn(kPrice, TypeId::kDouble, "p"); };
  auto disc = [] { return Expr::BoundColumn(kDisc, TypeId::kDouble, "d"); };
  auto tax = [] { return Expr::BoundColumn(kTax, TypeId::kDouble, "t"); };
  auto one_minus_disc = [&] {
    return Expr::Binary(BinaryOp::kSub, Expr::Literal(Value::Double(1.0)),
                        disc());
  };
  std::vector<ExprPtr> out;
  out.push_back(Expr::Binary(BinaryOp::kMul, price(), one_minus_disc()));
  out.push_back(Expr::Binary(
      BinaryOp::kMul,
      Expr::Binary(BinaryOp::kMul, price(), one_minus_disc()),
      Expr::Binary(BinaryOp::kAdd, Expr::Literal(Value::Double(1.0)),
                   tax())));
  return out;
}

void BM_Q6FilterScalar(benchmark::State& state) {
  const auto& rows = Rows();
  ExprPtr pred = Q6Predicate();
  size_t selected = 0;
  for (auto _ : state) {
    selected = 0;
    for (const Row& r : rows) {
      if (EvalPredicate(*pred, r)) ++selected;
    }
    benchmark::DoNotOptimize(selected);
  }
  state.counters["rows/s"] = benchmark::Counter(
      double(kRows), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["selected"] = double(selected);
}

void BM_Q6FilterBatch(benchmark::State& state) {
  const int threads = int(state.range(0));
  const auto& rows = Rows();
  ExprPtr pred = Q6Predicate();
  std::atomic<size_t> selected{0};
  for (auto _ : state) {
    selected = 0;
    ParallelFor(threads, rows.size(), kMorsel,
                [&](size_t, size_t begin, size_t end) {
                  SelVector sel;
                  SelRange(begin, end, &sel);
                  EvalPredicateBatch(*pred, rows, &sel);
                  selected.fetch_add(sel.size(), std::memory_order_relaxed);
                });
    benchmark::DoNotOptimize(selected.load());
  }
  state.counters["rows/s"] = benchmark::Counter(
      double(kRows), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["selected"] = double(selected.load());
}

void BM_Q1ProjectScalar(benchmark::State& state) {
  const auto& rows = Rows();
  auto exprs = Q1Projections();
  for (auto _ : state) {
    double acc = 0;
    for (const Row& r : rows) {
      for (const auto& e : exprs) acc += EvalExpr(*e, r).double_value();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["rows/s"] = benchmark::Counter(
      double(kRows), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Q1ProjectBatch(benchmark::State& state) {
  const int threads = int(state.range(0));
  const auto& rows = Rows();
  auto exprs = Q1Projections();
  for (auto _ : state) {
    std::atomic<uint64_t> sink{0};
    ParallelFor(threads, rows.size(), kMorsel,
                [&](size_t, size_t begin, size_t end) {
                  SelVector sel;
                  SelRange(begin, end, &sel);
                  double acc = 0;
                  std::vector<Value> col;
                  for (const auto& e : exprs) {
                    col.clear();
                    EvalExprBatch(*e, rows, sel, &col);
                    for (const Value& v : col) acc += v.double_value();
                  }
                  sink.fetch_add(uint64_t(acc), std::memory_order_relaxed);
                });
    benchmark::DoNotOptimize(sink.load());
  }
  state.counters["rows/s"] = benchmark::Counter(
      double(kRows), benchmark::Counter::kIsIterationInvariantRate);
}

/// The synthetic lineitem as a column-backed batch (no row ids).
const ColumnBatch& Columns() {
  static const ColumnBatch* batch = [] {
    const auto& rows = Rows();
    SelVector all;
    SelRange(0, rows.size(), &all);
    auto* out = new ColumnBatch();
    out->num_rows = rows.size();
    for (size_t c = 0; c <= kShip; ++c) {
      out->columns.push_back(
          {std::make_shared<const ColumnVector>(
               ColumnVector::FromRows(rows, c, all.data(), all.size())),
           nullptr});
    }
    return out;
  }();
  return *batch;
}

/// The rows of Columns() passing `pred`, filtered morsel by morsel as the
/// executor's Filter does; ascending for any thread count.
SelVector SelectColumns(const Expr& pred, int threads) {
  const ColumnBatch& b = Columns();
  std::vector<SelVector> parts((b.num_rows + kMorsel - 1) / kMorsel);
  ParallelFor(threads, b.num_rows, kMorsel,
              [&](size_t m, size_t begin, size_t end) {
                SelRange(begin, end, &parts[m]);
                EvalPredicateBatch(pred, b, &parts[m]);
              });
  SelVector out;
  for (const SelVector& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

void BM_Q6FilterColumns(benchmark::State& state) {
  const int threads = int(state.range(0));
  Columns();
  ExprPtr pred = Q6Predicate();
  size_t selected = 0;
  for (auto _ : state) {
    SelVector sel = SelectColumns(*pred, threads);
    selected = sel.size();
    benchmark::DoNotOptimize(sel.data());
  }
  state.counters["rows/s"] = benchmark::Counter(
      double(kRows), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["selected"] = double(selected);
}

// ---------------------------------------------------------------------------
// Q9-shaped join: lineitem ⋈ σ(part) ⋈ supplier ⋈ partsupp (two keys) ⋈
// orders ⋈ nation, grouped by nation and year, over synthetic column-backed
// tables with TPC-H-like key layouts (sparse order keys, four suppliers per
// part). It exercises packed single keys (part, supplier, orders, nation)
// and packed key pairs.
// ---------------------------------------------------------------------------

constexpr int64_t kParts = 20000;
constexpr int64_t kSuppliers = 1000;
constexpr int64_t kOrders = 75000;
constexpr int64_t kLineitems = 300000;

ColumnPtr I64Column(std::vector<int64_t> v, TypeId type = TypeId::kInt64) {
  ColumnVector c;
  c.repr = ColumnVector::Repr::kI64;
  c.type = c.null_type = type;
  c.nulls.assign(v.size(), 0);
  c.i64 = std::move(v);
  return std::make_shared<const ColumnVector>(std::move(c));
}

ColumnPtr F64Column(std::vector<double> v) {
  ColumnVector c;
  c.repr = ColumnVector::Repr::kF64;
  c.type = c.null_type = TypeId::kDouble;
  c.nulls.assign(v.size(), 0);
  c.f64 = std::move(v);
  return std::make_shared<const ColumnVector>(std::move(c));
}

ColumnPtr StrColumn(std::vector<std::string> v) {
  ColumnVector c;
  c.repr = ColumnVector::Repr::kStr;
  c.type = c.null_type = TypeId::kString;
  c.nulls.assign(v.size(), 0);
  c.str = std::move(v);
  return std::make_shared<const ColumnVector>(std::move(c));
}

using Tables = std::map<std::string, TablePtr>;

const Tables& Q9Tables() {
  static const Tables* tables = [] {
    std::mt19937 rng(9);
    auto* t = new Tables();
    auto add = [&](const char* name, Schema schema, Table::Columns cols) {
      const size_t n = cols[0]->size();
      (*t)[name] =
          std::make_shared<Table>(std::move(schema), std::move(cols), n);
    };
    static const char* kColors[] = {"green", "red",   "blue",  "ivory",
                                    "khaki", "olive", "peach", "lime"};
    std::vector<int64_t> pk, sk, nk, ps_p, ps_s, ok, od, lo, lp, ls;
    std::vector<std::string> pname, nname;
    std::vector<double> cost, qty, price, disc;
    for (int64_t p = 1; p <= kParts; ++p) {
      pk.push_back(p);
      pname.push_back(std::string(kColors[rng() % 8]) + " " +
                      kColors[rng() % 8] + " " + kColors[rng() % 8]);
      for (int64_t j = 0; j < 4; ++j) {
        ps_p.push_back(p);
        ps_s.push_back((p + j * (kSuppliers / 4)) % kSuppliers + 1);
        cost.push_back(double(rng() % 100000) / 100.0);
      }
    }
    for (int64_t s = 1; s <= kSuppliers; ++s) {
      sk.push_back(s);
      nk.push_back(int64_t(rng() % 25));
    }
    for (int64_t n = 0; n < 25; ++n) {
      nname.push_back("NATION" + std::to_string(n));
    }
    for (int64_t o = 0; o < kOrders; ++o) {
      ok.push_back((o / 8) * 32 + o % 8 + 1);  // TPC-H's sparse order keys
      od.push_back(DaysFromCivil(1992, 1, 1) + int64_t(rng() % 2400));
    }
    for (int64_t l = 0; l < kLineitems; ++l) {
      lo.push_back(ok[size_t(rng() % kOrders)]);
      const int64_t p = int64_t(rng() % kParts) + 1;
      lp.push_back(p);
      ls.push_back(ps_s[size_t((p - 1) * 4 + int64_t(rng() % 4))]);
      qty.push_back(double(rng() % 50 + 1));
      price.push_back(double(rng() % 10000000) / 100.0);
      disc.push_back(double(rng() % 11) / 100.0);
    }
    std::vector<int64_t> nkeys(25);
    for (int64_t n = 0; n < 25; ++n) nkeys[size_t(n)] = n;
    add("lineitem",
        Schema({{"l_orderkey", TypeId::kInt64},
                {"l_partkey", TypeId::kInt64},
                {"l_suppkey", TypeId::kInt64},
                {"l_quantity", TypeId::kDouble},
                {"l_extendedprice", TypeId::kDouble},
                {"l_discount", TypeId::kDouble}}),
        {I64Column(lo), I64Column(lp), I64Column(ls), F64Column(qty),
         F64Column(price), F64Column(disc)});
    add("part",
        Schema({{"p_partkey", TypeId::kInt64}, {"p_name", TypeId::kString}}),
        {I64Column(pk), StrColumn(pname)});
    add("supplier",
        Schema({{"s_suppkey", TypeId::kInt64},
                {"s_nationkey", TypeId::kInt64}}),
        {I64Column(sk), I64Column(nk)});
    add("partsupp",
        Schema({{"ps_partkey", TypeId::kInt64},
                {"ps_suppkey", TypeId::kInt64},
                {"ps_supplycost", TypeId::kDouble}}),
        {I64Column(ps_p), I64Column(ps_s), F64Column(cost)});
    add("orders",
        Schema({{"o_orderkey", TypeId::kInt64},
                {"o_orderdate", TypeId::kDate}}),
        {I64Column(ok), I64Column(od, TypeId::kDate)});
    add("nation",
        Schema({{"n_nationkey", TypeId::kInt64}, {"n_name", TypeId::kString}}),
        {I64Column(nkeys), StrColumn(nname)});
    return t;
  }();
  return *tables;
}

/// Serves the Q9 tables to ExecutePlan.
class TablesContext : public ExecContext {
 public:
  TablesContext(const Tables* tables, int threads)
      : tables_(tables), threads_(threads) {}
  Result<TablePtr> GetLocalTable(const std::string& name) override {
    return tables_->at(name);
  }
  Result<TablePtr> ForeignFetch(const std::string&, const std::string& name,
                                double, double) override {
    return GetLocalTable(name);
  }
  ComputeTrace* trace() override { return &trace_; }
  int exec_threads() const override { return threads_; }

 private:
  const Tables* tables_;
  int threads_;
  ComputeTrace trace_;
};

PlanPtr Q9Plan() {
  const Tables& t = Q9Tables();
  auto scan = [&](const char* name) {
    const TablePtr& table = t.at(name);
    return PlanNode::MakeScan("db", name, name, table->schema(),
                              ComputeTableStats(*table));
  };
  auto col = [](int i, TypeId type) {
    return Expr::BoundColumn(i, type, "c" + std::to_string(i));
  };
  // Output columns: lineitem 0-5, part 6-7, supplier 8-9, partsupp 10-12,
  // orders 13-14, nation 15-16.
  PlanPtr part = PlanNode::MakeFilter(
      scan("part"), Expr::Like(col(1, TypeId::kString),
                               Expr::Literal(Value::String("%green%"))));
  PlanPtr p = PlanNode::MakeJoin(scan("lineitem"), part, {1}, {0}, nullptr);
  p = PlanNode::MakeJoin(p, scan("supplier"), {2}, {0}, nullptr);
  p = PlanNode::MakeJoin(p, scan("partsupp"), {2, 1}, {1, 0}, nullptr);
  p = PlanNode::MakeJoin(p, scan("orders"), {0}, {0}, nullptr);
  p = PlanNode::MakeJoin(p, scan("nation"), {9}, {0}, nullptr);
  // amount = l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity
  ExprPtr amount = Expr::Binary(
      BinaryOp::kSub,
      Expr::Binary(BinaryOp::kMul, col(4, TypeId::kDouble),
                   Expr::Binary(BinaryOp::kSub,
                                Expr::Literal(Value::Double(1.0)),
                                col(5, TypeId::kDouble))),
      Expr::Binary(BinaryOp::kMul, col(12, TypeId::kDouble),
                   col(3, TypeId::kDouble)));
  return PlanNode::MakeAggregate(
      p,
      {col(16, TypeId::kString),
       Expr::Function("extract_year", {col(14, TypeId::kDate)})},
      {Expr::Aggregate(AggKind::kSum, amount)});
}

void BM_Q9JoinPlan(benchmark::State& state) {
  const int threads = int(state.range(0));
  PlanPtr plan = Q9Plan();
  size_t groups = 0;
  for (auto _ : state) {
    TablesContext ctx(&Q9Tables(), threads);
    auto result = ExecutePlan(*plan, &ctx);
    groups = result.ok() ? (*result)->num_rows() : 0;
    benchmark::DoNotOptimize(groups);
  }
  state.counters["lineitem rows/s"] = benchmark::Counter(
      double(kLineitems), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["groups"] = double(groups);
}

BENCHMARK(BM_Q6FilterScalar)->Unit(benchmark::kMillisecond)->MinTime(1.0);
BENCHMARK(BM_Q6FilterBatch)
    ->Arg(1)  // constant-factor win, no parallelism
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);
BENCHMARK(BM_Q6FilterColumns)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);
BENCHMARK(BM_Q1ProjectScalar)->Unit(benchmark::kMillisecond)->MinTime(1.0);
BENCHMARK(BM_Q1ProjectBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

BENCHMARK(BM_Q9JoinPlan)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.type() == TypeId::kString) return a.string_value() == b.string_value();
  if (a.type() != TypeId::kDouble) return a.int64_value() == b.int64_value();
  const double x = a.double_value(), y = b.double_value();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

/// The column filter and the Q9-shaped join must give bit-identical results
/// at 1 and 4 threads.
void CheckThreadInvariance() {
  ExprPtr pred = Q6Predicate();
  const SelVector s1 = SelectColumns(*pred, 1);
  const SelVector s4 = SelectColumns(*pred, 4);
  std::printf("Q6 column filter: t1=%zu rows t4=%zu rows -> %s\n", s1.size(),
              s4.size(),
              s1 == s4 ? "IDENTICAL (as required)" : "MISMATCH (bug!)");
  PlanPtr plan = Q9Plan();
  TablesContext c1(&Q9Tables(), 1), c4(&Q9Tables(), 4);
  auto r1 = ExecutePlan(*plan, &c1);
  auto r4 = ExecutePlan(*plan, &c4);
  if (!r1.ok() || !r4.ok()) {
    std::printf("Q9 join failed: %s / %s\n", r1.status().ToString().c_str(),
                r4.status().ToString().c_str());
    return;
  }
  const std::vector<Row>& a = (*r1)->rows();
  const std::vector<Row>& b = (*r4)->rows();
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    for (size_t c = 0; same && c < a[i].size(); ++c) {
      same = SameBits(a[i][c], b[i][c]);
    }
  }
  std::printf("Q9 join plan: t1=%zu groups t4=%zu groups -> %s\n", a.size(),
              b.size(), same ? "IDENTICAL (as required)" : "MISMATCH (bug!)");
}

// The batch path executes inside every federated run; re-check here (like
// micro_parallel) that modelled seconds and transfer MB are bit-identical
// across exec_threads — i.e. vectorization never leaked into the figures.
void CheckModelInvariance() {
  for (const char* qid : {"Q3", "Q10"}) {
    const auto* q = tpch::FindQuery(qid);
    TestbedOptions o1, o4;
    o1.exec_threads = 1;
    o4.exec_threads = 4;
    auto b1 = MakeTestbed(o1), b4 = MakeTestbed(o4);
    auto r1 = b1->Run(SystemKind::kXdb, q->sql);
    auto r4 = b4->Run(SystemKind::kXdb, q->sql);
    if (!r1.ok() || !r4.ok()) {
      std::printf("%s failed: %s / %s\n", qid,
                  r1.status().ToString().c_str(),
                  r4.status().ToString().c_str());
      continue;
    }
    bool same = r1->exec_timing.total == r4->exec_timing.total &&
                r1->transferred_bytes() == r4->transferred_bytes();
    std::printf(
        "%s modelled: t1=%.4fs t4=%.4fs  transfer: %.2fMB / %.2fMB -> %s\n",
        qid, r1->exec_timing.total, r4->exec_timing.total, TransferMb(*r1),
        TransferMb(*r4), same ? "IDENTICAL (as required)" : "MISMATCH (bug!)");
  }
}

}  // namespace
}  // namespace bench
}  // namespace xdb

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  xdb::bench::CheckThreadInvariance();
  xdb::bench::CheckModelInvariance();
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
