#include "xdbbench/oracle.h"

#include <cmath>
#include <cstring>

#include "src/dbms/server.h"
#include "src/tpch/dbgen.h"
#include "xdbbench/workloads.h"

namespace xdbbench {

std::unique_ptr<xdb::Federation> BuildFederation(
    uint64_t seed, const xdb::tpch::TableDistribution& td) {
  auto fed = std::make_unique<xdb::Federation>();
  for (const auto& node : xdb::tpch::TpchNodes()) {
    fed->AddServer(node, xdb::EngineProfile::Postgres());
  }
  fed->SetNetwork(xdb::Network::Lan(xdb::tpch::TpchNodes()));
  xdb::tpch::DbGen gen(kLocalSf, DbGenSeed(seed));
  for (auto& [table, data] : gen.GenerateAll()) {
    auto it = td.find(table);
    if (it == td.end()) return nullptr;
    if (!fed->GetServer(it->second)->CreateBaseTable(table, data).ok()) {
      return nullptr;
    }
  }
  return fed;
}

xdb::tpch::TableDistribution SingleServer() {
  xdb::tpch::TableDistribution td;
  for (const auto& [table, server] : xdb::tpch::TD1()) td[table] = "db1";
  return td;
}

namespace {

/// The value as it renders: integers and dates as themselves, doubles
/// rounded to 1e-4 (beyond +/-1e14, where that would overflow, their bits),
/// strings by content; the type class and NULL-ness are folded in.
uint64_t CanonicalValue(const xdb::Value& v) {
  if (v.is_null()) return 0x6e756c6cULL;
  switch (v.type()) {
    case xdb::TypeId::kDouble: {
      const double d = v.double_value();
      if (std::isfinite(d) && std::fabs(d) < 1e14) {
        return Mix64(static_cast<uint64_t>(std::llround(d * 1e4)) ^ 1);
      }
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits ^ 2);
    }
    case xdb::TypeId::kString:
      return StableHash(v.string_value()) ^ 3;
    default:  // bool, int64, date
      return Mix64(static_cast<uint64_t>(v.int64_value()) ^
                 (static_cast<uint64_t>(v.type()) << 56));
  }
}

}  // namespace

ResultDigest DigestOf(const xdb::Table& table) {
  ResultDigest d;
  d.rows = table.num_rows();
  d.columns = table.schema().num_fields();
  for (const auto& row : table.rows()) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const auto& v : row) h = Mix64(h ^ CanonicalValue(v));
    d.hash += h;  // a sum: the digest ignores row order
  }
  return d;
}

}  // namespace xdbbench
