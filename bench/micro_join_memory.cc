// Hash-join memory microbenchmark: the heap a large int64 equi-join
// allocates beyond its inputs, and its wall time, through ExecutePlan at
// exec_threads 1.
//
//   ./build/bench/micro_join_memory [build_rows] [probe_rows]
//
// Defaults: a 1M-row build side and a 2M-row probe side, of which one probe
// row in ten matches a build row. Three build-key layouts: unique sparse
// keys (i * 7), unique dense keys (i), and four build rows per key. Heap
// bytes are counted in the global operator new/delete of this program, so
// the peak covers every allocation the join makes: its key table, the
// grouped build rows, the output row ids and the gathered result.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/plan/plan.h"
#include "src/plan/stats.h"
#include "src/types/table.h"

namespace {

std::atomic<long> g_live{0};
std::atomic<long> g_peak{0};

}  // namespace

void* operator new(size_t n) {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  const long now = g_live += static_cast<long>(malloc_usable_size(p));
  long peak = g_peak.load();
  while (now > peak && !g_peak.compare_exchange_weak(peak, now)) {
  }
  return p;
}

// Not inlined: GCC would otherwise pair the free() below with the library's
// own operator new at inlined call sites and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live -= static_cast<long>(malloc_usable_size(p));
  std::free(p);
}

void operator delete(void* p, size_t) noexcept { operator delete(p); }

namespace xdb {
namespace {

ColumnPtr I64Column(std::vector<int64_t> v) {
  ColumnVector c;
  c.repr = ColumnVector::Repr::kI64;
  c.type = c.null_type = TypeId::kInt64;
  c.nulls.assign(v.size(), 0);
  c.i64 = std::move(v);
  return std::make_shared<const ColumnVector>(std::move(c));
}

class TablesContext : public ExecContext {
 public:
  std::map<std::string, TablePtr> tables;
  Result<TablePtr> GetLocalTable(const std::string& name) override {
    return tables.at(name);
  }
  Result<TablePtr> ForeignFetch(const std::string&, const std::string& name,
                                double, double) override {
    return GetLocalTable(name);
  }
  ComputeTrace* trace() override { return &trace_; }
  int exec_threads() const override { return 1; }

 private:
  ComputeTrace trace_;
};

/// Joins a probe table with a build table whose row i has key
/// (i / rows_per_key) * stride; prints best-of-5 time and heap peak.
void Run(const char* label, int64_t build_rows, int64_t probe_rows,
         int64_t stride, int64_t rows_per_key) {
  TablesContext ctx;
  {
    std::vector<int64_t> bk, bv, pk, pv;
    bk.reserve(size_t(build_rows));
    bv.reserve(size_t(build_rows));
    pk.reserve(size_t(probe_rows));
    pv.reserve(size_t(probe_rows));
    for (int64_t i = 0; i < build_rows; ++i) {
      bk.push_back(i / rows_per_key * stride);
      bv.push_back(i);
    }
    const int64_t num_keys = (build_rows + rows_per_key - 1) / rows_per_key;
    uint64_t x = 88172645463325252ULL;  // xorshift64
    for (int64_t i = 0; i < probe_rows; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      pk.push_back(x % 10 == 0
                       ? int64_t(x / 10 % uint64_t(num_keys)) * stride
                       : -int64_t(x % 1000000) - 1);  // never matches
      pv.push_back(i);
    }
    Schema bs({{"bk", TypeId::kInt64}, {"bv", TypeId::kInt64}});
    Schema ps({{"pk", TypeId::kInt64}, {"pv", TypeId::kInt64}});
    ctx.tables["b"] = std::make_shared<Table>(
        bs, Table::Columns{I64Column(std::move(bk)), I64Column(std::move(bv))},
        size_t(build_rows));
    ctx.tables["p"] = std::make_shared<Table>(
        ps, Table::Columns{I64Column(std::move(pk)), I64Column(std::move(pv))},
        size_t(probe_rows));
  }
  auto scan = [&](const char* name) {
    const TablePtr& t = ctx.tables.at(name);
    return PlanNode::MakeScan("db", name, name, t->schema(),
                              ComputeTableStats(*t));
  };
  PlanPtr plan = PlanNode::MakeJoin(scan("p"), scan("b"), {0}, {0}, nullptr);

  const long base = g_live.load();
  g_peak = base;
  double best_ms = 1e300;
  size_t out_rows = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = ExecutePlan(*plan, &ctx);
    const auto t1 = std::chrono::steady_clock::now();
    out_rows = result.ok() ? (*result)->num_rows() : 0;
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  const double peak = double(g_peak.load() - base);
  std::printf(
      "%-26s build=%lld probe=%lld out=%zu  best %.1f ms  heap peak %.1f MB "
      "(%.1f B per build row)\n",
      label, static_cast<long long>(build_rows),
      static_cast<long long>(probe_rows), out_rows, best_ms, peak / 1048576.0,
      peak / double(build_rows));
}

}  // namespace
}  // namespace xdb

int main(int argc, char** argv) {
  const int64_t build_rows = argc > 1 ? std::atoll(argv[1]) : 1000000;
  const int64_t probe_rows = argc > 2 ? std::atoll(argv[2]) : 2000000;
  constexpr int64_t kMaxRows = int64_t{1} << 30;  // row ids are 32-bit
  if (build_rows < 1 || build_rows > kMaxRows || probe_rows < 0 ||
      probe_rows > kMaxRows) {
    std::fprintf(stderr, "usage: %s [build_rows >= 1] [probe_rows >= 0]\n",
                 argv[0]);
    return 2;
  }
  xdb::Run("unique sparse keys (i*7)", build_rows, probe_rows, 7, 1);
  xdb::Run("unique dense keys (i)", build_rows, probe_rows, 1, 1);
  xdb::Run("4 build rows per key", build_rows, probe_rows, 7, 4);
  return 0;
}
