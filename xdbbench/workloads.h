#pragma once

// Seeded statement sources for the serving benchmark's workloads. The
// benchmark seed drives everything the program is fed: the TPC-H data
// generator's seed, each client's query order, and the ad-hoc literal
// draws. The program under test only ever sees the generated SQL.

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace xdbbench {

/// SplitMix64's finalizer: a strong 64-bit mixing function.
uint64_t Mix64(uint64_t z);

/// 64-bit FNV-1a of `s`, mixed; stable across builds and platforms.
uint64_t StableHash(const std::string& s);

/// SplitMix64: a small, well-mixed deterministic stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// Mixes the benchmark seed with a stream tag (client index, purpose).
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// DbGen seed for a benchmark seed. DbGen's xorshift streams are keyed by
/// seed ^ small constants, so the value is mixed and kept away from zero.
uint64_t DbGenSeed(uint64_t seed);

/// One statement handed to a client: its SQL and a bounded query-log label.
struct Statement {
  std::string sql;
  std::string label;
};

/// One client's endless, deterministic statement stream.
class StatementSource {
 public:
  virtual ~StatementSource() = default;
  virtual Statement Next() = 0;
};

/// The paper's six TPC-H evaluation queries (Q3, Q5, Q7, Q8, Q9, Q10),
/// looped in rounds; each round is a seeded shuffle of the six.
class TpchSchedule : public StatementSource {
 public:
  TpchSchedule(uint64_t seed, int client);
  Statement Next() override;

 private:
  Rng rng_;
  std::vector<size_t> order_;
  size_t pos_;
};

/// An ad-hoc statement template: a 2-4-way join over the small TPC-H
/// tables (never lineitem) with selective literals.
struct AdhocTemplate {
  const char* name;
  std::vector<std::string> tables;
};

/// Every ad-hoc template, in draw order.
const std::vector<AdhocTemplate>& AdhocTemplates();

/// Seeded stream of never-repeating ad-hoc cross-database statements. The
/// literal space is far larger than the 64-entry plan cache, so nearly
/// every statement misses it.
class AdhocGenerator : public StatementSource {
 public:
  explicit AdhocGenerator(uint64_t seed);
  Statement Next() override;

 private:
  std::string Render(size_t tmpl);

  Rng rng_;
  std::unordered_set<uint64_t> seen_;  // StableHash of every statement
};

}  // namespace xdbbench
