#pragma once

#include <string>
#include <string_view>

#include "src/xdb/xdb.h"

namespace xdb {

/// \brief A finished run: its trace and the completeness of its result.
struct FinishedRun {
  RunTrace trace;
  ResultCompleteness completeness;
};

/// \brief The per-query scaffolding every query path shares: XdbSystem (its
/// federation and introspection paths alike) and the three mediators.
///
/// Construction arms the calling thread's modelled-time budget and
/// partial-results policy, installs the context's session span recorder,
/// opens the top-level span and starts the wall clock. Destruction closes
/// the span, lays out the span timeline, and disarms the budget, so every
/// exit path of the query is covered. With no recorder attached every span
/// hook is one pointer compare.
class QueryScope {
 public:
  /// The top-level span is named `span_prefix` + `query_id`.
  QueryScope(Federation* fed, const QueryContext& ctx, const char* span_prefix,
             int query_id);
  ~QueryScope();
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// The recorder this query's spans go to (nullptr when detached).
  SpanRecorder* spans() const { return spans_; }
  /// The top-level span (nullptr when detached).
  Span* span() { return spans_ ? spans_->mutable_span(span_id_) : nullptr; }

  /// Charges `seconds` of modelled time to the budget; kTimeout naming
  /// `where` once the deadline is spent, OK otherwise (always OK without
  /// a deadline).
  Status Charge(double seconds, std::string_view where) const;

  /// Starts recording one run (one deploy + execute round) rooted at
  /// `root_server`.
  void BeginRun(const std::string& root_server);
  /// The run epilogue: ends the recording, gives the run's transfer spans
  /// their modelled wire seconds, and computes the result's completeness
  /// from the fragments the run lost.
  FinishedRun FinishRun(const TimingModel& model);

  /// Real seconds since the scope opened.
  double WallSeconds() const;

 private:
  Federation* fed_;
  double deadline_seconds_;
  bool span_override_;
  SpanRecorder* spans_;
  int64_t span_id_ = -1;
  int64_t run_span_begin_ = 0;
  double wall_start_;
};

/// \brief The per-query recorder: banks one QueryStats for a finished
/// top-level query into the federation's QueryLog and bumps the labeled
/// query counters. `system` names the query path ("xdb", "garlic", ...);
/// `label` is the caller's explicit label (empty = the log's pending
/// next_label, else "adhoc"). A failed query reports `fail_trace`, its
/// recovery trail. No-op when neither sink is attached.
void RecordQueryStats(Federation* fed, const char* system, double scale_up,
                      const std::string& sql, const std::string& label,
                      const Result<XdbReport>& result,
                      const RunTrace& fail_trace);

}  // namespace xdb
