#pragma once

// Data set-up and the correctness oracle. The benchmark's federation is the
// paper's TD1 layout over seven all-PostgreSQL nodes; the oracle is a second
// federation generated from the same seed with all eight TPC-H tables on
// one server, so every cross-database answer can be checked against a
// single-DBMS execution of the same SQL.

#include <cstdint>
#include <memory>
#include <string>

#include "src/dbms/federation.h"
#include "src/tpch/distributions.h"
#include "src/types/table.h"

namespace xdbbench {

/// Local TPC-H scale, costed as the paper's SF 10 via kScaleUp.
constexpr double kLocalSf = 0.01;
constexpr double kScaleUp = 1000.0;

/// BuildTpchFederation with a seeded DbGen: seven PostgreSQL nodes on a
/// LAN, tables placed by `td`.
std::unique_ptr<xdb::Federation> BuildFederation(
    uint64_t seed, const xdb::tpch::TableDistribution& td);

/// All eight TPC-H tables on db1 (the oracle layout).
xdb::tpch::TableDistribution SingleServer();

/// Order-independent fingerprint of a result: its shape plus a multiset
/// hash of its rows. Each value is canonicalized the way it renders, with
/// doubles at the four decimals Value::ToString prints, so two results
/// digest equally exactly when their sorted rendered rows agree (up to
/// 64-bit hash collisions). Cheap enough to take inside the timed loop, so
/// no result table has to be kept for the oracle check.
struct ResultDigest {
  uint64_t rows = 0;
  uint64_t columns = 0;
  uint64_t hash = 0;

  bool operator==(const ResultDigest&) const = default;
};

ResultDigest DigestOf(const xdb::Table& table);

}  // namespace xdbbench
