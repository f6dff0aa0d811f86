#include "src/mediator/mediator.h"

#include <optional>

#include "src/sql/parser.h"
#include "src/xdb/delegation_engine.h"
#include "src/xdb/finalizer.h"
#include "src/xdb/query_scope.h"

namespace xdb {

const char* MediatorKindToString(MediatorKind kind) {
  switch (kind) {
    case MediatorKind::kGarlic:
      return "garlic";
    case MediatorKind::kPresto:
      return "presto";
    case MediatorKind::kSclera:
      return "sclera";
  }
  return "unknown";
}

MediatorSystem::MediatorSystem(Federation* fed, MediatorKind kind,
                               MediatorOptions options)
    : fed_(fed), kind_(kind), options_(std::move(options)) {
  mediator_name_ = options_.mediator_node.empty()
                       ? MediatorKindToString(kind)
                       : options_.mediator_node;
  EngineProfile profile;
  switch (kind) {
    case MediatorKind::kGarlic:
      profile = EngineProfile::GarlicMediator();
      break;
    case MediatorKind::kPresto:
      profile = EngineProfile::PrestoMediator(options_.presto_workers);
      break;
    case MediatorKind::kSclera:
      profile = EngineProfile::ScleraMediator();
      break;
  }
  // Component connectors first (before the mediator node joins the
  // federation, so it is not part of the global schema).
  for (const auto& name : fed_->ServerNames()) {
    DatabaseServer* server = fed_->GetServer(name);
    if (options_.exec_threads > 0) {
      server->set_exec_threads(options_.exec_threads);
    }
    auto dc = std::make_unique<DbmsConnector>(server, Dialect::Postgres(),
                                              fed_, mediator_name_);
    connector_ptrs_[name] = dc.get();
    connectors_[name] = std::move(dc);
  }
  catalog_ = std::make_unique<GlobalCatalog>(connector_ptrs_);

  mediator_ = fed_->GetServer(mediator_name_);
  if (mediator_ == nullptr) {
    mediator_ = fed_->AddServer(mediator_name_, profile);
  }
  if (options_.exec_threads > 0) {
    mediator_->set_exec_threads(options_.exec_threads);
  }
  // The mediator issues DDL to itself with zero-latency "round trips".
  auto self = std::make_unique<DbmsConnector>(mediator_, Dialect::Postgres(),
                                              fed_, mediator_name_);
  connector_ptrs_[mediator_name_] = self.get();
  connectors_[mediator_name_] = std::move(self);
}

/// MW placement policy: scans stay put, unary operators follow their input,
/// and every cross-DBMS (for Presto: every) join lands on the mediator.
Status MediatorSystem::AnnotateMw(PlanNode* node) const {
  for (auto& child : node->children) {
    XDB_RETURN_NOT_OK(AnnotateMw(child.get()));
  }
  switch (node->kind) {
    case PlanKind::kScan:
      node->annotation = node->db;
      return Status::OK();
    case PlanKind::kPlaceholder:
      return Status::Internal("unexpected placeholder in MW annotation");
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      node->annotation = node->children[0]->annotation;
      node->children[0]->edge_movement = Movement::kImplicit;
      return Status::OK();
    case PlanKind::kAggregate:
      // MW systems aggregate in the mediator unless the whole input is a
      // single pushed-down source subquery under Garlic/Sclera.
      if (kind_ != MediatorKind::kPresto &&
          node->children[0]->annotation != mediator_name_) {
        node->annotation = node->children[0]->annotation;
      } else {
        node->annotation = mediator_name_;
      }
      node->children[0]->edge_movement = kind_ == MediatorKind::kSclera &&
                                                 node->annotation !=
                                                     node->children[0]
                                                         ->annotation
                                             ? Movement::kExplicit
                                             : Movement::kImplicit;
      return Status::OK();
    case PlanKind::kJoin: {
      const std::string& la = node->children[0]->annotation;
      const std::string& ra = node->children[1]->annotation;
      bool pushdown_joins = kind_ != MediatorKind::kPresto;
      if (pushdown_joins && la == ra && la != mediator_name_) {
        // Co-located join: the wrapper pushes it down to the source.
        node->annotation = la;
        node->children[0]->edge_movement = Movement::kImplicit;
        node->children[1]->edge_movement = Movement::kImplicit;
        return Status::OK();
      }
      node->annotation = mediator_name_;
      for (auto& child : node->children) {
        if (child->annotation == mediator_name_) {
          child->edge_movement = Movement::kImplicit;
        } else {
          // ScleraDB materialises every intermediate in the mediator; the
          // pipelining mediators stream through the wrapper.
          child->edge_movement = kind_ == MediatorKind::kSclera
                                     ? Movement::kExplicit
                                     : Movement::kImplicit;
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown plan kind");
}

Result<XdbReport> MediatorSystem::Query(const std::string& sql) {
  const int query_id = ++query_counter_;
  // Mediators share the deadline budget and partial-results machinery with
  // XDB (same retry and fetch paths under the hood) but have no failover:
  // an undeliverable fragment either degrades (allow_partial) or fails the
  // query outright.
  QueryContext ctx;
  ctx.deadline_seconds = options_.deadline_seconds;
  ctx.allow_partial = options_.allow_partial;
  QueryScope scope(fed_, ctx, "mediator query ", query_id);
  if (Span* sp = scope.span()) {
    sp->Tag("mediator", MediatorKindToString(kind_));
    sp->Tag("sql", sql);
  }

  RunTrace fail_trace;
  Result<XdbReport> result = QueryImpl(sql, query_id, &scope, &fail_trace);
  if (result.ok()) result->wall_seconds = scope.WallSeconds();
  RecordQueryStats(fed_, MediatorKindToString(kind_), options_.scale_up, sql,
                   ctx.label, result, fail_trace);
  return result;
}

Result<XdbReport> MediatorSystem::QueryImpl(const std::string& sql,
                                            int query_id, QueryScope* scope,
                                            RunTrace* fail_trace) {
  XdbReport report;
  catalog_->ResetCounters();

  XDB_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql));
  for (const auto& ref : stmt->from) {
    XDB_RETURN_NOT_OK(catalog_->Resolve(ref.db, ref.table).status());
  }
  report.metadata_roundtrips = catalog_->metadata_roundtrips();
  report.phases.prep = 0.05 + 0.02 * report.metadata_roundtrips;

  PlannerOptions popts;
  // Garlic and ScleraDB decompose by source first (maximal single-DBMS
  // subqueries); Presto's connectors cannot push joins down at all, so its
  // plan follows the global order.
  popts.colocate_joins_first = kind_ != MediatorKind::kPresto;
  Planner planner(catalog_.get(), popts);
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, planner.Plan(*stmt));
  report.phases.lopt =
      0.1 + 0.05 * static_cast<double>(
                       stmt->from.size() > 0 ? stmt->from.size() - 1 : 0);

  XDB_RETURN_NOT_OK(AnnotateMw(plan.get()));
  report.phases.ann = 0;  // MW systems plan centrally — no consulting

  XDB_RETURN_NOT_OK(scope->Charge(report.phases.prep + report.phases.lopt,
                                  "during planning"));

  XDB_ASSIGN_OR_RETURN(DelegationPlan dplan,
                       FinalizePlan(*plan, query_id, mediator_name_));

  // Mediator baselines get the same retry/rollback machinery (so injected
  // faults degrade them comparably) but no failover replanning — their
  // placement policy is fixed by design.
  DelegationEngine engine(connector_ptrs_, fed_);
  TimingModel model(fed_, TimingOptions{options_.scale_up});
  scope->BeginRun(dplan.tasks.back().server);
  Result<XdbQuery> query = engine.Deploy(&dplan);
  std::optional<Result<TablePtr>> result;
  if (query.ok()) {
    SpanGuard exec_span(scope->spans(), "execute");
    if (Span* sp = exec_span.span()) sp->Tag("server", query->server);
    result.emplace(connector_ptrs_.at(query->server)->RunQuery(query->sql));
  }
  FinishedRun run = scope->FinishRun(model);
  const Status& status = query.ok() ? result->status() : query.status();
  if (!status.ok()) {
    *fail_trace = std::move(run.trace);
    fail_trace->recovery_action = "failed";
    (void)engine.Cleanup();
    return status;
  }
  report.trace = std::move(run.trace);
  report.completeness = std::move(run.completeness);
  report.ddl_statements = engine.ddl_count();
  report.ddl_log = engine.ddl_log();
  report.exec_timing = model.ModelRun(report.trace);
  // MW systems report "actual execution" the way the paper measures it:
  // mediator-local compute with subquery results preloaded.
  report.exec_timing.compute_only = model.LocalizedCompute(report.trace);
  report.exec_timing.transfer_share =
      report.exec_timing.total - report.exec_timing.compute_only;
  report.phases.exec = report.exec_timing.total +
                       0.02 * static_cast<double>(report.ddl_statements) +
                       report.trace.total_backoff_seconds +
                       report.trace.injected_delay_seconds;

  report.result = std::move(*result).value();
  report.plan = std::move(dplan);
  report.xdb_query = *query;

  if (options_.cleanup_after_query) {
    XDB_RETURN_NOT_OK(engine.Cleanup());
  }
  return report;
}

}  // namespace xdb
