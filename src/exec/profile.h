#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/dbms/engine_profile.h"
#include "src/plan/plan.h"

namespace xdb {

/// \brief Per-operator execution statistics recorded by the
/// executor when a profiler is attached (EXPLAIN ANALYZE, benches).
struct OperatorStats {
  std::string label;  // e.g. "Filter(l_quantity < 24)"
  PlanKind kind = PlanKind::kScan;
  int depth = 0;      // nesting depth within the executed plan
  bool is_foreign = false;  // kScan through a SQL/MED foreign table

  double input_rows = 0;   // rows consumed (filter/project/agg/sort input)
  double output_rows = 0;  // rows produced
  double build_rows = 0;   // kJoin: build-side input
  double probe_rows = 0;   // kJoin: probe-side input
  int64_t batches = 0;     // morsels processed by parallel operators
  int threads = 1;         // worker budget the operator ran under

  // Planning-time estimates copied off the stamped plan node at Enter.
  // est_rows stays -1 when the plan was never stamped, in which case the
  // render and the accountability ledger skip this record.
  double est_rows = -1;
  double est_input_rows = 0;  // sum of child-node estimates
  double est_bytes = 0;       // est_rows * stamped row width

  /// Output/input fraction for cardinality-reducing operators; 1 when the
  /// operator had no input rows.
  double Selectivity() const {
    return input_rows > 0 ? output_rows / input_rows : 1.0;
  }
};

/// \brief Execution-order operator profile of one plan execution.
///
/// Attached to an ExecContext the same way the fault injector attaches to
/// the federation: a null profiler costs the executor one pointer compare
/// per plan node, and an attached profiler never changes row flow, trace
/// counters, or result bits — it only observes them. Operators are appended
/// in pre-order (parent before children) with their nesting depth, so the
/// profile renders as a tree without retaining plan-node pointers.
class OperatorProfiler {
 public:
  /// Opens a record for `node` at the current depth; returns its index.
  /// The pointer remains valid until the next Enter (callers fill it within
  /// the operator's own scope).
  size_t Enter(const PlanNode& node);
  /// Closes the record opened by the matching Enter.
  void Exit(size_t index);

  /// The innermost record still open (entered, not exited), or nullptr.
  /// Operators fill their own stats through this between executing their
  /// children and returning. Invalidated by the next Enter.
  OperatorStats* current() {
    return open_.empty() ? nullptr : &records_[open_.back()];
  }

  OperatorStats& stats(size_t index) { return records_[index]; }
  const std::vector<OperatorStats>& records() const { return records_; }
  void Clear();

  /// Modelled seconds of one operator under an engine profile (the same
  /// per-row weights the timing model charges — DESIGN.md §5), scaled by
  /// `scale_up`.
  static double ModelledSeconds(const OperatorStats& s,
                                const EngineProfile& profile,
                                double scale_up = 1.0);

  /// Modelled seconds the planner expected for this operator: the same
  /// per-row weights as ModelledSeconds, but fed the stamped estimates
  /// instead of the observed row counts. 0 when the record is unstamped.
  static double EstimatedSeconds(const OperatorStats& s,
                                 const EngineProfile& profile,
                                 double scale_up = 1.0);

  /// Renders the profile as an indented tree, one operator per line, with
  /// rows in/out, selectivity, batches, threads, and modelled seconds —
  /// the body of EXPLAIN ANALYZE.
  std::vector<std::string> Render(const EngineProfile& profile,
                                  double scale_up = 1.0) const;

 private:
  std::vector<OperatorStats> records_;
  std::vector<size_t> open_;  // stack of entered-but-not-exited indices
};

}  // namespace xdb
