#include "xdbbench/replay.h"

#include <chrono>
#include <optional>

#include "src/common/thread_pool.h"
#include "src/plan/estimator.h"
#include "src/plan/planner.h"
#include "src/sql/parser.h"
#include "src/xdb/annotator.h"
#include "src/xdb/finalizer.h"

namespace xdbbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Appends one span covering the scope's lifetime.
class SpanScope {
 public:
  SpanScope(std::vector<SpanRecord>* out, int64_t query, int layer)
      : out_(out), query_(query), layer_(layer), begin_(NowNs()) {}
  ~SpanScope() { out_->push_back({query_, layer_, begin_, NowNs()}); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::vector<SpanRecord>* out_;
  int64_t query_;
  int layer_;
  int64_t begin_;
};

// Query tags for the morsel scheduler; kept clear of XdbSystem's small ids.
constexpr uint64_t kReplayTagBase = 1ULL << 40;

}  // namespace

const char* LayerMetricName(int layer) {
  static const char* const kNames[kNumLayers] = {
      "sql.parse_us",      "xdb.catalog_us",  "plan.optimize_us",
      "xdb.plan_cache_us", "xdb.annotate_us", "xdb.finalize_us",
      "xdb.deploy_us",     "dbms.execute_us", "timing.model_us",
      "xdb.cleanup_us",
  };
  return kNames[layer];
}

TracedReplayer::TracedReplayer(xdb::XdbSystem* xdb, std::string ddl_prefix)
    : xdb_(xdb),
      ddl_prefix_(std::move(ddl_prefix)),
      model_(xdb->federation(), xdb::TimingOptions{xdb->options().scale_up}) {
  for (const auto& name : xdb->federation()->ServerNames()) {
    connectors_[name] = xdb->connector(name);
  }
}

xdb::Result<xdb::TablePtr> TracedReplayer::Run(const std::string& sql) {
  const int64_t query = next_query_++;
  const int64_t begin = NowNs();
  xdb::Federation* fed = xdb_->federation();
  std::optional<xdb::Result<xdb::TablePtr>> result;
  {
    // The per-query preamble XdbSystem::Query runs before planning.
    xdb::ScopedQueryTag tag(kReplayTagBase + static_cast<uint64_t>(query));
    fed->ArmQueryBudget(0, false);
    xdb::GlobalCatalog::ResetThreadRoundtrips();
    result.emplace(RunPipeline(sql, query));
    fed->DisarmQueryBudget();
  }
  spans_.push_back({query, kQuerySpan, begin, NowNs()});
  return std::move(*result);
}

xdb::Status TracedReplayer::Touch(const xdb::sql::SelectStmt& stmt) {
  for (const auto& ref : stmt.from) {
    if (ref.subquery) {
      XDB_RETURN_NOT_OK(Touch(*ref.subquery));
      continue;
    }
    XDB_RETURN_NOT_OK(xdb_->catalog().Resolve(ref.db, ref.table).status());
    (void)xdb_->catalog().LocateTable(ref.table);
  }
  return xdb::Status::OK();
}

xdb::Result<xdb::TablePtr> TracedReplayer::RunPipeline(const std::string& sql,
                                                       int64_t query) {
  xdb::Federation* fed = xdb_->federation();
  xdb::DelegationPlanCache* cache = xdb_->plan_cache();

  std::string norm_sql;
  std::string fingerprint;
  xdb::PlanPtr round_plan;
  if (cache != nullptr) {
    SpanScope span(&spans_, query, kPlanCache);
    norm_sql = xdb::NormalizeSql(sql);
    fingerprint = xdb_->PlacementFingerprint();
    if (xdb::PlanPtr cached = cache->Lookup(norm_sql, fingerprint)) {
      round_plan = cached->Clone();
    }
  }

  if (round_plan == nullptr) {
    std::optional<xdb::Result<xdb::sql::SelectPtr>> stmt;
    {
      SpanScope span(&spans_, query, kParse);
      stmt.emplace(xdb::sql::ParseSelect(sql));
    }
    XDB_RETURN_NOT_OK(stmt->status());
    {
      SpanScope span(&spans_, query, kCatalog);
      XDB_RETURN_NOT_OK(Touch(***stmt));
    }
    xdb::PlanPtr plan;
    {
      SpanScope span(&spans_, query, kOptimize);
      xdb::Planner planner(&xdb_->catalog(), xdb_->options().planner);
      XDB_ASSIGN_OR_RETURN(plan, planner.Plan(***stmt));
      xdb::Estimator().StampEstimates(*plan);
    }
    {
      SpanScope span(&spans_, query, kAnnotate);
      round_plan = plan->Clone();
      xdb::Annotator annotator(
          connectors_, &fed->network(),
          static_cast<xdb::MovementPolicy>(xdb_->options().movement_policy));
      XDB_RETURN_NOT_OK(annotator.Annotate(round_plan.get()));
    }
    if (cache != nullptr) {
      SpanScope span(&spans_, query, kPlanCache);
      cache->Insert(norm_sql, fingerprint, round_plan->Clone());
    }
  }

  std::optional<xdb::Result<xdb::DelegationPlan>> dplan;
  {
    SpanScope span(&spans_, query, kFinalize);
    dplan.emplace(
        xdb::FinalizePlan(*round_plan, static_cast<int>(query), ddl_prefix_));
  }
  XDB_RETURN_NOT_OK(dplan->status());

  xdb::DelegationEngine engine(connectors_, fed);
  fed->BeginRun((*dplan)->tasks.back().server);
  std::optional<xdb::Result<xdb::XdbQuery>> xdb_query;
  {
    SpanScope span(&spans_, query, kDeploy);
    xdb_query.emplace(engine.Deploy(&**dplan));
  }
  if (!xdb_query->ok()) {
    (void)fed->FinishRun();
    return xdb_query->status();
  }
  const xdb::XdbQuery& root = **xdb_query;
  std::optional<xdb::Result<xdb::TablePtr>> result;
  {
    SpanScope span(&spans_, query, kExecute);
    result.emplace(xdb_->connector(root.server)->RunQuery(root.sql));
  }
  if (!result->ok()) {
    (void)engine.Cleanup();
    (void)fed->FinishRun();
    return result->status();
  }
  fed->network().RecordTransfer(
      root.server, xdb_->options().middleware_node,
      static_cast<double>((**result)->SerializedSize()), 1, false);
  const xdb::RunTrace trace = fed->FinishRun();
  {
    SpanScope span(&spans_, query, kModel);
    modelled_total_ += model_.ModelRun(trace).total;
  }
  {
    SpanScope span(&spans_, query, kCleanup);
    XDB_RETURN_NOT_OK(engine.Cleanup());
  }
  return std::move(*result);
}

}  // namespace xdbbench
