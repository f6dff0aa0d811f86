// XDB serving benchmark: the command-line entry point.
//
//   xdb_serving_bench --workload <tpch_mix|tpch_serve|adhoc_point>
//                     --seed <n> --seconds <s> --trace <0|1>
//
// Prints the run record as one JSON line, then, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones. Exits
// non-zero when the run was not correct (the result is still printed) or
// could not run at all (nothing is printed).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/json_writer.h"
#include "xdbbench/harness.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xdbbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || xdbbench::FindWorkload(options.workload) == nullptr ||
      !(options.seconds > 0)) {
    return Usage(argv[0]);
  }

  const xdbbench::BenchResult result = xdbbench::RunBenchmark(options);
  if (result.metrics.empty()) return 1;

  std::printf("%s\n", result.record.c_str());
  xdb::JsonWriter w;
  w.BeginObject();
  w.Field("correct", result.correct);
  w.Field("attempted", result.attempted);
  w.Field("failed", result.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& m : result.metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Field("value", m.value);
    w.Field("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return result.correct ? 0 : 1;
}
