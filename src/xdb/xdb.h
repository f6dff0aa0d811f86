#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/connect/connector.h"
#include "src/timing/timing_model.h"
#include "src/xdb/delegation_engine.h"
#include "src/xdb/delegation_plan.h"
#include "src/xdb/global_catalog.h"
#include "src/xdb/plan_cache.h"

namespace xdb {

class IntrospectionRegistry;
class QueryScope;
class SessionManager;

/// \brief Knobs for the XDB middleware.
struct XdbOptions {
  /// Modelled-time scale-up: local rows are costed as if multiplied by this
  /// factor (local SF -> paper SF mapping; DESIGN.md §1).
  double scale_up = 1.0;

  /// Network node name hosting the middleware + client (control traffic and
  /// the final result flow to it).
  std::string middleware_node = "xdb";

  /// Logical-optimizer switches (for the ablation benches).
  PlannerOptions planner;

  /// Movement-type decision policy (for the ablation benches).
  int movement_policy = 0;  // 0 = cost-based, 1 = always implicit,
                            // 2 = always explicit (MovementPolicy order)

  /// Drop all short-lived relations after each query (on by default; the
  /// examples switch it off to show the deployed cascade).
  bool cleanup_after_query = true;

  /// Failover replanning: when deployment or execution fails with a
  /// retryable status (node down, link dead), re-run annotation with the
  /// implicated placement excluded and redeploy, up to this many alternate
  /// rounds. 0 disables failover (first failure is final).
  int max_failover_alternates = 2;

  /// Morsel-parallel worker budget applied to every component DBMS's
  /// executor: 0 = hardware concurrency (default), 1 = legacy serial path.
  /// Wall-clock only; modelled times and traces are identical either way.
  int exec_threads = 0;

  /// Delegation-plan cache capacity (entries). 0 (the default) disables
  /// caching entirely — every query runs the full parse/optimize/annotate
  /// pipeline, preserving the single-query paths bit-for-bit. The serving
  /// layer and the qps bench turn it on.
  size_t plan_cache_capacity = 0;

  // Control-plane cost constants (seconds per round trip, on top of link
  // latency). Calibrated so prep+lopt+ann stays in the paper's <=10 s band.
  double parse_analyze_cost = 0.05;
  double metadata_roundtrip_cost = 0.02;
  double lopt_base_cost = 0.1;
  double lopt_per_join_cost = 0.05;
  double consultation_cost = 0.04;   // one EXPLAIN probe on a DBMS
  double ddl_roundtrip_cost = 0.02;  // one DDL statement
};

/// \brief Per-query execution context supplied by the serving layer.
/// Defaults reproduce the classic single-tenant behaviour exactly.
struct QueryContext {
  /// Prefix for deployed relation names ("xdb" -> xdb_q<id>_t<k>). Sessions
  /// pass a session-scoped prefix so concurrent deployments cannot collide
  /// even if query-id allocation ever changes.
  std::string ddl_prefix = "xdb";

  /// Query-log label (bounded cardinality; e.g. "Q5"). Empty = use the
  /// log's pending next_label / "adhoc" fallback.
  std::string label;

  /// Per-session span recorder override (nullptr = federation recorder).
  /// Installed thread-locally for the duration of the query so concurrent
  /// sessions each record their own timeline.
  SpanRecorder* spans = nullptr;

  /// Modelled-time deadline for the whole query (seconds; 0 = none). The
  /// budget is threaded through planning phases, retry backoff, injected
  /// fault delay, and failover replanning: a retry loop stops when the
  /// remaining budget cannot cover the next backoff, and when the budget
  /// runs out the query fails fast with kTimeout (or degrades under
  /// allow_partial) instead of burning further replan rounds. A round that
  /// completes successfully still returns its result even if it finished
  /// over budget — the deadline stops new work, not finished work.
  double deadline_seconds = 0;

  /// Opt-in partial results: when a non-root fragment cannot be delivered
  /// (producer down, link dead after retries, deadline expired), an empty
  /// fragment is substituted and the query returns the surviving rows with
  /// a ResultCompleteness annotation instead of failing. Default off —
  /// behaviour and every modelled number stay bit-identical.
  bool allow_partial = false;
};

/// \brief Per-phase modelled times, matching the paper's Figure 15 buckets.
struct PhaseBreakdown {
  double prep = 0;  // parse/analyze + metadata gathering via connectors
  double lopt = 0;  // logical optimization
  double ann = 0;   // plan annotation + finalization (consultations)
  double exec = 0;  // delegation + decentralized execution

  double total() const { return prep + lopt + ann + exec; }
};

/// \brief Everything a query run produces, for benches and inspection.
struct XdbReport {
  TablePtr result;
  DelegationPlan plan;
  XdbQuery xdb_query;
  std::vector<std::pair<std::string, std::string>> ddl_log;
  RunTrace trace;
  TimingBreakdown exec_timing;
  PhaseBreakdown phases;
  double wall_seconds = 0;  // real wall-clock of the whole pipeline

  int metadata_roundtrips = 0;
  int consultations = 0;
  int ddl_statements = 0;
  bool plan_cache_hit = false;  // annotated plan served from the cache

  /// Which fragments made it (always complete unless the query ran with
  /// allow_partial and lost a subtree).
  ResultCompleteness completeness;

  double total_seconds() const { return phases.total(); }
  double transferred_bytes() const { return trace.TotalTransferredBytes(); }
  bool partial() const { return !completeness.complete; }
};

/// \brief The XDB middleware: optimizer + delegation engine over a
/// federation of autonomous DBMSes (the paper's Figure 4b).
///
/// XDB itself has *no execution engine*. Query() optimizes the
/// cross-database query into a delegation plan, deploys it as views +
/// foreign tables through the vendor connectors, and triggers the XDB query
/// on the root DBMS; the component DBMSes then execute the query among
/// themselves, streaming intermediate data directly.
class XdbSystem {
 public:
  /// Builds connectors (with vendor dialects) for every server in `fed` and
  /// discovers the Global-as-a-View schema.
  explicit XdbSystem(Federation* fed, XdbOptions options = {});
  ~XdbSystem();

  /// Runs a cross-database SQL query end to end. When the federation has a
  /// QueryLog and/or MetricsRegistry attached, one QueryStats record and
  /// the `{query=...}`/`{status=...}` labeled query counters are banked per
  /// call — observationally only (results and modelled times are
  /// bit-identical either way).
  Result<XdbReport> Query(const std::string& sql);

  /// Query() with an explicit serving context (DDL namespace, log label,
  /// per-session span recorder). Thread-safe: concurrent calls on one
  /// XdbSystem are supported — each runs on its calling thread with
  /// thread-local run recording and a query-tagged morsel scheduler.
  Result<XdbReport> Query(const std::string& sql, const QueryContext& ctx);

  /// EXPLAIN ANALYZE at the federation level: runs the query with a
  /// per-operator profiler attached to every component DBMS and returns a
  /// one-column text table — phase breakdown, transfer totals (useful vs.
  /// wasted bytes), then each server's executed operator tree annotated
  /// with observed rows, selectivity, morsel batches, and modelled operator
  /// seconds (at the configured scale-up). Purely observational: the
  /// underlying Query() produces bit-identical results and modelled times.
  Result<TablePtr> ExplainAnalyze(const std::string& sql);

  /// ExplainAnalyze under an explicit context (deadline / allow_partial /
  /// session namespace); partial results gain a completeness section.
  Result<TablePtr> ExplainAnalyze(const std::string& sql,
                                  const QueryContext& ctx);

  GlobalCatalog& catalog() { return *catalog_; }
  DbmsConnector* connector(const std::string& server) const;
  const XdbOptions& options() const { return options_; }
  Federation* federation() const { return fed_; }

  /// The delegation-plan cache (nullptr when plan_cache_capacity == 0).
  DelegationPlanCache* plan_cache() const { return plan_cache_.get(); }

  /// Placement epoch: bumped whenever failover replanning routed around a
  /// node or link, retiring every cached plan built for the old placement.
  int64_t placement_epoch() const {
    return placement_epoch_.load(std::memory_order_acquire);
  }

  /// The cache-key fingerprint current placements hash to (catalog/stats
  /// versions + engine-profile hash + placement epoch + policy knobs).
  std::string PlacementFingerprint() const;

  /// JSON calibration log: one record per observed operator/transfer in the
  /// federation QueryLog's retained history, pairing planning-time features
  /// (operator type, input cardinality, predicate class, engine, placement)
  /// with observed outcomes (rows, modelled seconds, bytes, q-error) —
  /// offline training data for estimator recalibration. Empty `records`
  /// when no QueryLog is attached.
  std::string ExportCalibrationLog() const;

  /// Trace of the most recent Query() — kept even when Query returned an
  /// error, so the recovery trail (retries, rollbacks, replan rounds) of a
  /// failed query stays inspectable. Single-threaded inspection API; under
  /// concurrent serving, "most recent" is whichever query finished last.
  const RunTrace& last_trace() const { return last_trace_; }

  // --- SQL-queryable introspection (DESIGN.md §14) ---

  /// Enables the `xdb_stat.*` virtual system tables on this system,
  /// registering the standard providers lazily (idempotent; later calls may
  /// wire a SessionManager that wasn't available earlier). Until this is
  /// called, `xdb_stat` queries fail with a catalog error and the query
  /// pipeline pays nothing — the default detached path is bit-identical.
  /// Setup-time API: call before serving queries concurrently.
  IntrospectionRegistry* EnableIntrospection(
      SessionManager* sessions = nullptr);

  /// The registry when introspection is enabled, else nullptr.
  IntrospectionRegistry* introspection() const { return introspect_.get(); }

  /// Lifetime count of queries started on this system (feeds the
  /// `xdb_uptime_queries_total` snapshot counter).
  int64_t queries_started() const {
    return query_counter_.load(std::memory_order_relaxed);
  }

 private:
  double Rtt(const std::string& server) const;

  /// Query() minus the per-query scope and recording (every early return
  /// of the pipeline funnels through the public wrapper). On failure the
  /// accumulated recovery trail lands in `*fail_trace`.
  Result<XdbReport> QueryImpl(const std::string& sql,
                              const QueryContext& ctx, int query_id,
                              QueryScope* scope, RunTrace* fail_trace);

  /// Bumps xdb_plan_cache_{hits,misses,evictions}_total when a registry is
  /// attached (evictions may be 0).
  void CountPlanCache(bool hit, int evictions);
  void CountPlanCacheEvictions(int evictions);

  /// Runs a `SELECT` over the `xdb_stat.*` system tables mediator-local:
  /// snapshots every referenced provider once at query start, plans with
  /// the normal logical optimizer, and executes on the middleware node with
  /// the vectorized executor — zero metadata roundtrips, zero consultations,
  /// zero transfers, never plan-cached. `*handled` is false (fall through
  /// to the federation pipeline) when the statement parses but references
  /// no xdb_stat relation after all.
  Result<XdbReport> RunIntrospectionQuery(const std::string& sql,
                                          const QueryScope& scope,
                                          bool* handled);

  Federation* fed_;
  XdbOptions options_;
  std::map<std::string, std::unique_ptr<DbmsConnector>> connectors_;
  std::map<std::string, DbmsConnector*> connector_ptrs_;
  std::unique_ptr<GlobalCatalog> catalog_;
  std::unique_ptr<DelegationPlanCache> plan_cache_;
  std::unique_ptr<IntrospectionRegistry> introspect_;  // null until enabled
  uint64_t profile_hash_ = 0;  // engine profiles are setup-time constant
  std::atomic<int64_t> placement_epoch_{0};
  std::atomic<int> query_counter_{0};
  mutable std::mutex trace_mu_;  // guards last_trace_ under concurrency
  RunTrace last_trace_;
};

}  // namespace xdb
