#pragma once

#include <functional>
#include <string>

#include "src/common/result.h"
#include "src/plan/plan.h"
#include "src/types/table.h"

namespace xdb {

class OperatorProfiler;

/// \brief Row-flow counters recorded while a plan executes.
///
/// These feed the timing model: modelled compute time is a weighted sum of
/// these counters under the executing DBMS's engine profile (DESIGN.md §5).
struct ComputeTrace {
  double scan_rows = 0;         // rows produced by local scans
  double foreign_rows = 0;      // rows fetched through foreign tables
  double filter_input_rows = 0;
  double project_rows = 0;
  double join_build_rows = 0;
  double join_probe_rows = 0;
  double join_output_rows = 0;
  double agg_input_rows = 0;
  double agg_output_rows = 0;
  double sort_rows = 0;
  double materialized_rows = 0;  // rows written by explicit materialisation
  double output_rows = 0;        // final result rows

  void Add(const ComputeTrace& other);
};

/// \brief Services a plan needs at execution time.
///
/// A DatabaseServer implements this: local tables resolve against its
/// storage, and foreign fetches go through the (simulated) network to the
/// remote server — the SQL/MED wrapper path.
class ExecContext {
 public:
  virtual ~ExecContext() = default;

  /// Resolves a local base/materialised relation by name.
  virtual Result<TablePtr> GetLocalTable(const std::string& name) = 0;

  /// Fetches `SELECT * FROM relation` from a remote server (foreign scan).
  /// `est_rows`/`est_bytes` carry the planner's stamped estimate for the
  /// scan node driving the fetch (-1 when the plan was never stamped);
  /// implementations attribute them to the transfer they record.
  virtual Result<TablePtr> ForeignFetch(const std::string& server,
                                        const std::string& relation,
                                        double est_rows = -1,
                                        double est_bytes = -1) = 0;

  /// Row-flow counters for this execution.
  virtual ComputeTrace* trace() = 0;

  /// Worker budget for morsel-driven operators (Filter/Project/join probe/
  /// Aggregate). 1 — the default — runs every morsel inline on the calling
  /// thread; results are bit-identical for any value (see ParallelFor).
  virtual int exec_threads() const { return 1; }

  /// Per-operator profiler, or nullptr (the default — EXPLAIN ANALYZE and
  /// benches attach one). When null the executor pays one pointer compare
  /// per plan node; when attached, profiling is purely observational: row
  /// flow, trace counters, and result bits are unchanged.
  virtual OperatorProfiler* profiler() { return nullptr; }
};

/// \brief Executes a fully bound logical plan, one operator at a time.
///
/// Operators pass columnar batches (typed ColumnVectors plus row-id
/// vectors) to one another: filters and joins produce row ids, projections
/// re-point or compute columns, and values are gathered only when an
/// operator reads them. The result is a column-backed Table whose rows are
/// built only if a caller asks for them; a bare scan returns the stored
/// table itself. Pipelining is modelled in the timing layer, not here:
/// whole-operator batches keep the executor simple and do not change
/// row/byte accounting, which is what the reproduction's metrics derive
/// from. Hot operators run morsel-parallel when ctx->exec_threads() > 1;
/// the morsel layout is fixed, so results, row orders, and all trace
/// counters are bit-identical to serial execution (DESIGN.md, "Parallel
/// execution vs. the timing model").
Result<TablePtr> ExecutePlan(const PlanNode& plan, ExecContext* ctx);

}  // namespace xdb
