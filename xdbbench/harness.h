#pragma once

// The serving benchmark: set-up, closed-loop timed phase, traced replay,
// oracle check and metric computation for one workload and seed.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xdbbench {

/// A metric the benchmark reports, with its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with `--trace 0` (the untraced run).
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed with `--trace 1` (the traced run).
const std::vector<MetricSpec>& PerLayerMetrics();

/// Starts with a letter or digit; at most 64 of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name);
/// 1 to 16 of [A-Za-z0-9_/%.-].
bool ValidUnit(const std::string& unit);

/// One workload: a client count and a statement mix.
struct WorkloadSpec {
  const char* name;
  int clients;
  bool adhoc;        // ad-hoc statement stream instead of the TPC-H mix
  bool sessions;     // one XdbSession per client instead of XdbSystem::Query
  size_t sample;     // client 0's first `sample` queries feed the exact
                     // per-query figures (modelled seconds, bytes, counts)
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Every workload uses this plan-cache capacity (micro_qps's serving
/// configuration).
constexpr size_t kPlanCacheCapacity = 64;

/// Per-DBMS morsel workers in every workload. Serial execution: with
/// exec_threads = nproc, identical runs on a 4-vCPU VM differed by up to
/// 65% in wall time at equal CPU time, far beyond any usable bound.
constexpr int kExecThreads = 1;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct BenchResult {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// The run record (seed, nproc, compiler, build type, parameters) as one
  /// JSON object.
  std::string record;
};

/// Runs one workload end to end. Diagnostics go to stderr; the caller
/// prints the result.
BenchResult RunBenchmark(const RunOptions& options);

}  // namespace xdbbench
