#include "src/xdb/query_scope.h"

#include <algorithm>
#include <chrono>

#include "src/exec/profile.h"

namespace xdb {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryScope::QueryScope(Federation* fed, const QueryContext& ctx,
                       const char* span_prefix, int query_id)
    : fed_(fed),
      deadline_seconds_(ctx.deadline_seconds),
      span_override_(ctx.spans != nullptr),
      wall_start_(NowSeconds()) {
  // Retry backoff and injected delay charge the budget automatically; the
  // query paths charge planning phases and failed rounds through Charge().
  fed_->ArmQueryBudget(ctx.deadline_seconds, ctx.allow_partial);
  // A session-scoped span recorder applies to this thread only.
  if (span_override_) Federation::SetThreadSpanRecorder(ctx.spans);
  spans_ = fed_->span_recorder();
  if (spans_ != nullptr) {
    span_id_ = spans_->StartSpan(span_prefix + std::to_string(query_id));
  }
}

QueryScope::~QueryScope() {
  if (spans_ != nullptr) {
    spans_->EndSpan(span_id_);
    spans_->FinalizeTimeline();
  }
  if (span_override_) Federation::SetThreadSpanRecorder(nullptr);
  fed_->DisarmQueryBudget();
}

Status QueryScope::Charge(double seconds, std::string_view where) const {
  fed_->ChargeBudget(seconds);
  if (fed_->RemainingBudget() != 0.0) return Status::OK();
  return Status::Timeout("query deadline (" +
                         std::to_string(deadline_seconds_) +
                         "s of modelled time) exhausted " + std::string(where));
}

void QueryScope::BeginRun(const std::string& root_server) {
  // Span *id* window, not an index: under ring-buffer retention ids are
  // stable while positions shift.
  run_span_begin_ = spans_ != nullptr ? spans_->next_id() : 0;
  fed_->BeginRun(root_server);
}

FinishedRun QueryScope::FinishRun(const TimingModel& model) {
  FinishedRun run{fed_->FinishRun(), {}};
  const RunTrace& trace = run.trace;
  if (spans_ != nullptr) {
    // Transfer spans carry their record id; ids restart every run, so only
    // spans opened since BeginRun are matched.
    for (Span& s : spans_->mutable_spans()) {
      if (s.id < run_span_begin_ || s.record_id < 0) continue;
      size_t idx = static_cast<size_t>(s.record_id);
      if (idx < trace.transfers.size() &&
          trace.transfers[idx].id == s.record_id) {
        s.duration_seconds = model.TransferSeconds(trace.transfers[idx]);
      }
    }
  }
  // Fragment-count based: est_rows of lost fragments are estimates, not
  // ground truth.
  ResultCompleteness& c = run.completeness;
  c.lost = trace.lost_fragments;
  c.complete = trace.lost_fragments.empty();
  if (!c.complete) {
    double delivered = 0;
    for (const auto& t : trace.transfers) {
      if (!t.failed) delivered += 1;
    }
    const double lost = static_cast<double>(trace.lost_fragments.size());
    c.completeness_fraction = delivered / (delivered + lost);
  }
  return run;
}

double QueryScope::WallSeconds() const { return NowSeconds() - wall_start_; }

void RecordQueryStats(Federation* fed, const char* system, double scale_up,
                      const std::string& sql, const std::string& label_hint,
                      const Result<XdbReport>& result,
                      const RunTrace& fail_trace) {
  QueryLog* qlog = fed->query_log();
  MetricsRegistry* metrics = fed->metrics();
  if (qlog == nullptr && metrics == nullptr) return;

  QueryStats qs;
  qs.system = system;
  qs.sql = sql;
  qs.ok = result.ok();
  // The trace of a failed query is its recovery trail; a successful one
  // reports its winning round's trace.
  const RunTrace& trace = result.ok() ? result->trace : fail_trace;
  qs.useful_bytes = trace.UsefulTransferredBytes();
  qs.wasted_bytes = trace.WastedTransferredBytes();
  qs.raw_bytes = trace.TotalRawTransferredBytes();
  qs.transfer_rows = trace.TotalTransferredRows();
  qs.transfers = static_cast<int>(trace.transfers.size());
  qs.retries = static_cast<int>(trace.retries.size());
  qs.replan_rounds = trace.replan_rounds;
  qs.recovery_action = trace.recovery_action;
  qs.lost_fragments = static_cast<int>(trace.lost_fragments.size());
  // Estimate-vs-actual ledger of the executed plan. A replanned query's
  // trace is the winning round's, so these estimates belong to the plan
  // that actually ran, never to an abandoned alternate.
  qs.estimates = trace.estimates;
  // Winning round's transfer records, verbatim, for `xdb_stat.transfers`.
  qs.transfer_log = trace.transfers;
  if (result.ok()) {
    qs.prep_seconds = result->phases.prep;
    qs.lopt_seconds = result->phases.lopt;
    qs.ann_seconds = result->phases.ann;
    qs.exec_seconds = result->phases.exec;
    qs.plan_cache_hit = result->plan_cache_hit;
    qs.partial = result->partial();
    qs.completeness_fraction = result->completeness.completeness_fraction;
  } else {
    qs.error = result.status().message();
    qs.exec_seconds = trace.wasted_attempt_seconds +
                      trace.total_backoff_seconds +
                      trace.injected_delay_seconds;
  }
  TimingModel model(fed, TimingOptions{scale_up});
  for (const auto& [srv, compute] : trace.per_server) {
    const DatabaseServer* server = fed->GetServer(srv);
    if (server == nullptr) continue;
    qs.per_server_seconds[srv] =
        model.ComputeSeconds(compute, server->profile(),
                             /*free_network=*/false);
  }
  // Hot spots are available whenever profilers happen to be attached
  // (EXPLAIN ANALYZE, benches); plain queries leave this empty.
  for (const auto& name : fed->ServerNames()) {
    const DatabaseServer* server = fed->GetServer(name);
    const OperatorProfiler* prof = server->profiler();
    if (prof == nullptr) continue;
    for (const auto& rec : prof->records()) {
      qs.hot_operators.emplace_back(
          name + ": " + rec.label,
          OperatorProfiler::ModelledSeconds(rec, server->profile(), scale_up));
    }
  }
  std::stable_sort(qs.hot_operators.begin(), qs.hot_operators.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (qs.hot_operators.size() > 3) qs.hot_operators.resize(3);

  // Label priority: explicit label (sessions), then the log's pending
  // next_label (single-threaded bench drivers; consumed by Record below
  // since qs.label stays empty), then the catch-all bucket.
  std::string label = label_hint;
  if (label.empty() && qlog != nullptr) label = qlog->next_label();
  if (label.empty()) label = "adhoc";
  qs.label = label_hint;  // empty = let Record consume the pending hint
  if (metrics != nullptr) {
    // `{query=...}` stays bounded: an explicit hint (bench drivers label
    // "Q5" etc.) or the single bucket "adhoc" — never raw SQL.
    metrics
        ->GetCounter("xdb_queries_total",
                     {{"status", qs.ok ? "ok" : "error"}},
                     "Top-level queries by final status")
        ->Increment();
    metrics
        ->GetCounter("xdb_query_modelled_seconds_total", {{"query", label}},
                     "Modelled end-to-end seconds per query label")
        ->Increment(qs.total_seconds());
  }
  if (qlog != nullptr) qlog->Record(std::move(qs));
}

}  // namespace xdb
