#include "xdbbench/workloads.h"

#include <algorithm>
#include <cstdio>

#include "src/tpch/queries.h"
#include "src/types/value.h"

namespace xdbbench {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t StableHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

uint64_t Rng::Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ULL); }

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  Rng rng(seed ^ (tag * 0x2545f4914f6cdd1dULL));
  rng.Next();
  return rng.Next();
}

uint64_t DbGenSeed(uint64_t seed) {
  // Top bit set: DbGen xors its per-table stream constants (< 2^8) into
  // the seed, which then can never produce the all-zero xorshift state.
  return DeriveSeed(seed, 0xdb) | (1ULL << 63);
}

TpchSchedule::TpchSchedule(uint64_t seed, int client)
    : rng_(DeriveSeed(seed, 0x100 + static_cast<uint64_t>(client))),
      pos_(0) {
  order_.resize(xdb::tpch::EvaluationQueries().size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  pos_ = order_.size();  // shuffle on first Next()
}

Statement TpchSchedule::Next() {
  if (pos_ == order_.size()) {
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1],
                order_[static_cast<size_t>(rng_.Uniform(
                    0, static_cast<int64_t>(i) - 1))]);
    }
    pos_ = 0;
  }
  const auto& q = xdb::tpch::EvaluationQueries()[order_[pos_++]];
  return {q.sql, q.id};
}

namespace {

// Cardinalities of the SF 0.01 tables the literals range over.
constexpr int64_t kCustomers = 1500;
constexpr int64_t kOrders = 15000;
constexpr int64_t kParts = 2000;
constexpr int64_t kFirstOrderDate = 8035;  // 1992-01-01
constexpr int64_t kLastOrderDate = 10440;

const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                "MIDDLE EAST"};

std::string Fmt(const char* format, auto... args) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

}  // namespace

const std::vector<AdhocTemplate>& AdhocTemplates() {
  static const std::vector<AdhocTemplate> kTemplates = {
      {"cust_nation", {"customer", "nation"}},
      {"order_cust_nation", {"orders", "customer", "nation"}},
      {"region_balance", {"customer", "nation", "region"}},
      {"ps_supp_nation", {"partsupp", "supplier", "nation"}},
      {"part_ps_supp", {"part", "partsupp", "supplier"}},
      {"ps_region_offers", {"partsupp", "supplier", "nation", "region"}},
      {"cust_supp_nation", {"customer", "supplier", "nation"}},
      {"region_order_days", {"orders", "customer", "nation", "region"}},
  };
  return kTemplates;
}

AdhocGenerator::AdhocGenerator(uint64_t seed)
    : rng_(DeriveSeed(seed, 0xad40c)) {}

Statement AdhocGenerator::Next() {
  const size_t n = AdhocTemplates().size();
  for (;;) {
    const size_t tmpl =
        static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(n) - 1));
    std::string sql = Render(tmpl);
    if (seen_.insert(StableHash(sql)).second) {
      return {std::move(sql), AdhocTemplates()[tmpl].name};
    }
  }
}

std::string AdhocGenerator::Render(size_t tmpl) {
  switch (tmpl) {
    case 0: {
      const int64_t a = rng_.Uniform(1, kCustomers);
      const int64_t b = a + rng_.Uniform(0, 9);
      return Fmt(
          "SELECT c.c_custkey, c.c_name, c.c_acctbal, n.n_name "
          "FROM customer c, nation n "
          "WHERE c.c_nationkey = n.n_nationkey "
          "AND c.c_custkey BETWEEN %lld AND %lld",
          static_cast<long long>(a), static_cast<long long>(b));
    }
    case 1: {
      const int64_t a = rng_.Uniform(1, kOrders);
      const int64_t b = a + rng_.Uniform(0, 19);
      return Fmt(
          "SELECT o.o_orderkey, o.o_totalprice, c.c_name, n.n_name "
          "FROM orders o, customer c, nation n "
          "WHERE o.o_custkey = c.c_custkey "
          "AND c.c_nationkey = n.n_nationkey "
          "AND o.o_orderkey BETWEEN %lld AND %lld",
          static_cast<long long>(a), static_cast<long long>(b));
    }
    case 2: {
      const char* region = kRegions[rng_.Uniform(0, 4)];
      const int64_t lo = rng_.Uniform(-999, 9500);
      const int64_t hi = lo + rng_.Uniform(20, 300);
      return Fmt(
          "SELECT n.n_name, COUNT(*) AS customers, "
          "SUM(c.c_acctbal) AS balance "
          "FROM customer c, nation n, region r "
          "WHERE c.c_nationkey = n.n_nationkey "
          "AND n.n_regionkey = r.r_regionkey AND r.r_name = '%s' "
          "AND c.c_acctbal BETWEEN %lld AND %lld GROUP BY n.n_name",
          region, static_cast<long long>(lo), static_cast<long long>(hi));
    }
    case 3: {
      const int64_t a = rng_.Uniform(1, kParts);
      const int64_t b = a + rng_.Uniform(0, 4);
      return Fmt(
          "SELECT ps.ps_partkey, ps.ps_suppkey, ps.ps_supplycost, s.s_name, "
          "n.n_name FROM partsupp ps, supplier s, nation n "
          "WHERE ps.ps_suppkey = s.s_suppkey "
          "AND s.s_nationkey = n.n_nationkey "
          "AND ps.ps_partkey BETWEEN %lld AND %lld",
          static_cast<long long>(a), static_cast<long long>(b));
    }
    case 4: {
      const int64_t size_lo = rng_.Uniform(1, 25);
      const int64_t size_hi = rng_.Uniform(26, 50);
      const int64_t a = rng_.Uniform(1, kParts);
      const int64_t b = a + rng_.Uniform(5, 60);
      return Fmt(
          "SELECT p.p_partkey, p.p_name, s.s_name, ps.ps_availqty "
          "FROM part p, partsupp ps, supplier s "
          "WHERE p.p_partkey = ps.ps_partkey AND ps.ps_suppkey = s.s_suppkey "
          "AND p.p_size BETWEEN %lld AND %lld "
          "AND p.p_partkey BETWEEN %lld AND %lld",
          static_cast<long long>(size_lo), static_cast<long long>(size_hi),
          static_cast<long long>(a), static_cast<long long>(b));
    }
    case 5: {
      const int64_t a = rng_.Uniform(1, kParts);
      const int64_t b = a + rng_.Uniform(0, 30);
      return Fmt(
          "SELECT r.r_name, COUNT(*) AS offers, "
          "MIN(ps.ps_supplycost) AS best_cost "
          "FROM partsupp ps, supplier s, nation n, region r "
          "WHERE ps.ps_suppkey = s.s_suppkey "
          "AND s.s_nationkey = n.n_nationkey "
          "AND n.n_regionkey = r.r_regionkey "
          "AND ps.ps_partkey BETWEEN %lld AND %lld GROUP BY r.r_name",
          static_cast<long long>(a), static_cast<long long>(b));
    }
    case 6: {
      const int64_t cust = rng_.Uniform(1, kCustomers);
      const int64_t bal = rng_.Uniform(-999, 5000);
      return Fmt(
          "SELECT c.c_custkey, s.s_suppkey, s.s_acctbal, n.n_name "
          "FROM customer c, supplier s, nation n "
          "WHERE c.c_nationkey = s.s_nationkey "
          "AND s.s_nationkey = n.n_nationkey "
          "AND c.c_custkey = %lld AND s.s_acctbal > %lld",
          static_cast<long long>(cust), static_cast<long long>(bal));
    }
    default: {
      const char* region = kRegions[rng_.Uniform(0, 4)];
      const int64_t day = rng_.Uniform(kFirstOrderDate, kLastOrderDate - 14);
      const int64_t last = day + rng_.Uniform(1, 14);
      return Fmt(
          "SELECT o.o_orderpriority, COUNT(*) AS orders, "
          "SUM(o.o_totalprice) AS total "
          "FROM orders o, customer c, nation n, region r "
          "WHERE o.o_custkey = c.c_custkey "
          "AND c.c_nationkey = n.n_nationkey "
          "AND n.n_regionkey = r.r_regionkey AND r.r_name = '%s' "
          "AND o.o_orderdate BETWEEN DATE '%s' AND DATE '%s' "
          "GROUP BY o.o_orderpriority",
          region, xdb::FormatDate(day).c_str(),
          xdb::FormatDate(last).c_str());
    }
  }
}

}  // namespace xdbbench
