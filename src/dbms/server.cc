#include "src/dbms/server.h"

#include <algorithm>
#include <cmath>

#include "src/common/retry.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/sql/parser.h"

namespace xdb {

namespace {
// Rows per wire batch (FDW cursor fetch size at the scale we model).
constexpr double kRowsPerMessage = 10000.0;

// When an injected link drop aborts a transfer, this fraction of the
// payload is modelled as already on the wire (wasted bytes that still
// count toward transfer accounting and modelled time).
constexpr double kLinkDropFraction = 0.5;

uint64_t MessagesFor(double rows) {
  return static_cast<uint64_t>(std::ceil(rows / kRowsPerMessage)) + 1;
}

// The server whose CREATE TABLE AS the calling thread is currently
// materializing (nullptr otherwise). Thread-local so concurrent sessions on
// one server don't mislabel each other's fetches as explicit movement.
thread_local const DatabaseServer* t_materializing = nullptr;
}  // namespace

bool DatabaseServer::MaterializingHere() const {
  return t_materializing == this;
}

DatabaseServer::CatalogEntry* DatabaseServer::FindEntry(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = catalog_.find(key);
  return it == catalog_.end() ? nullptr : &it->second;
}

const DatabaseServer::CatalogEntry* DatabaseServer::FindEntry(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = catalog_.find(key);
  return it == catalog_.end() ? nullptr : &it->second;
}

DatabaseServer::DatabaseServer(std::string name, EngineProfile profile,
                               Federation* fed)
    : name_(std::move(name)), profile_(std::move(profile)), fed_(fed) {}

Status DatabaseServer::CreateBaseTable(const std::string& table_name,
                                       TablePtr table) {
  std::string key = ToLower(table_name);
  CatalogEntry entry;
  entry.kind = EntryKind::kBase;
  // Encode and decode the columnar representation at load time: base
  // tables are what scans and wire transfers touch, and preparing their
  // chunks and columns here keeps the first query's hot path free of encode
  // work. The executor reads the columns, so the rows are released; rows()
  // rebuilds them on demand.
  table->ReleaseRows();
  entry.stats = ComputeTableStats(*table);
  entry.table = std::move(table);
  std::lock_guard<std::mutex> lock(catalog_mu_);
  if (catalog_.count(key)) {
    return Status::CatalogError("relation already exists: " + key);
  }
  catalog_[key] = std::move(entry);
  return Status::OK();
}

bool DatabaseServer::HasRelation(const std::string& relation) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return catalog_.count(ToLower(relation)) > 0;
}

std::vector<std::string> DatabaseServer::TransientRelations() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  std::vector<std::string> out;
  for (const auto& [name, entry] : catalog_) {
    if (entry.kind != EntryKind::kBase) out.push_back(name);
  }
  return out;
}

std::vector<std::string> DatabaseServer::BaseRelations() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  std::vector<std::string> out;
  for (const auto& [name, entry] : catalog_) {
    if (entry.kind == EntryKind::kBase) out.push_back(name);
  }
  return out;
}

Result<TableStats> DatabaseServer::GetRelationStats(
    const std::string& relation) const {
  const CatalogEntry* entry = FindEntry(ToLower(relation));
  if (entry == nullptr) {
    return Status::CatalogError("unknown relation '" + relation + "' on " +
                                name_);
  }
  if (entry->kind != EntryKind::kBase &&
      entry->kind != EntryKind::kMaterialized) {
    return Status::CatalogError("statistics only exist for stored tables");
  }
  return entry->stats;
}

// ---------------------------------------------------------------------------
// Execution context
// ---------------------------------------------------------------------------

Result<TablePtr> DatabaseServer::Context::GetLocalTable(
    const std::string& table) {
  const CatalogEntry* found = server_->FindEntry(ToLower(table));
  if (found == nullptr) {
    return Status::CatalogError("unknown relation '" + table + "' on " +
                                server_->name_);
  }
  const CatalogEntry& entry = *found;
  if (entry.kind != EntryKind::kBase &&
      entry.kind != EntryKind::kMaterialized) {
    return Status::Internal("relation '" + table +
                            "' is not a stored table; the planner should "
                            "have expanded it");
  }
  return entry.table;
}

Result<TablePtr> DatabaseServer::Context::ForeignFetch(
    const std::string& server, const std::string& relation, double est_rows,
    double est_bytes) {
  Federation* fed = server_->fed_;
  DatabaseServer* remote = fed->GetServer(server);
  if (remote == nullptr) {
    return Status::NetworkError("unknown foreign server: " + server);
  }
  if (!fed->network().IsReachable(server_->name_, server)) {
    return Status::NetworkError("no connectivity between " +
                                server_->name_ + " and " + server);
  }
  double inflation = std::max(server_->profile_.wire_inflation,
                              remote->profile().wire_inflation);
  // The planner's byte estimate is in serialized row-format bytes; put it
  // on the same wire-inflation basis as the observed charge so the byte
  // q-error reflects cardinality/width error, not protocol constants.
  double est_wire_bytes = est_bytes < 0 ? -1 : est_bytes * inflation;

  // One fetch attempt end to end: fault gate, request message, remote
  // evaluation, wire transfer (which an injected link drop can abort
  // mid-flight, wasting the bytes already sent).
  TablePtr table;
  auto attempt_fetch = [&]() -> Status {
    XDB_RETURN_NOT_OK(
        fed->InjectFault(server, FaultOp::kFetch, server_->name_));
    // Request message (the `SELECT * FROM relation` text).
    fed->network().RecordTransfer(server_->name_, server, 128.0, 1);
    int id = fed->PushFetch(server, server_->name_, relation, est_rows,
                            est_wire_bytes);
    Result<TablePtr> result = remote->ServeRemote(relation);
    if (!result.ok()) {
      fed->PopFetch(id, 0, 0, 0, false);
      return result.status();
    }
    TablePtr t = std::move(result).value();
    double raw_bytes = static_cast<double>(t->SerializedSize()) * inflation;
    // Columnar wire: ship the compressed chunk encoding instead of inflated
    // row text. min() guards the (rare) payload whose encoded form is not
    // smaller — the sender would just fall back to the row protocol.
    const bool encoded = fed->wire_format() == WireFormat::kColumnar;
    double bytes =
        encoded ? std::min(raw_bytes,
                           static_cast<double>(t->EncodedSerializedSize()))
                : raw_bytes;
    double rows = static_cast<double>(t->num_rows());
    uint64_t messages = MessagesFor(rows);
    Status drop = fed->InjectFault(server, FaultOp::kTransfer,
                                   server_->name_);
    if (!drop.ok()) {
      // Link dropped mid-transfer: the producer's compute and part of the
      // payload are wasted but still accounted (they really happened).
      double wasted = bytes * kLinkDropFraction;
      uint64_t partial =
          std::max<uint64_t>(1, static_cast<uint64_t>(
                                    static_cast<double>(messages) *
                                    kLinkDropFraction));
      fed->network().RecordTransfer(server, server_->name_, wasted, partial,
                                    encoded);
      fed->PopFetch(id, 0, wasted, partial, false,
                    encoded ? raw_bytes * kLinkDropFraction : -1);
      fed->MarkTransferFailed(id);
      return drop;
    }
    fed->network().RecordTransfer(server, server_->name_, bytes, messages,
                                  encoded);
    fed->PopFetch(id, rows, bytes, messages, server_->MaterializingHere(),
                  encoded ? raw_bytes : -1);
    table = std::move(t);
    return Status::OK();
  };

  // The retry loop stops early when the remaining deadline budget cannot
  // cover the next backoff; only the backoff actually waited is charged.
  RetryOutcome out = RetryWithBackoffBudget(fed->retry_policy(),
                                            attempt_fetch,
                                            fed->RemainingBudget());
  const Status& st = out.status;
  if (out.attempts > 1 || st.IsRetryable()) {
    fed->RecordRetry({server, "fetch", out.attempts, out.backoff_seconds,
                      st.ok(), st.ok() ? std::string() : st.message()});
  }
  fed->RecordHealthOutcome(server, out.attempts, st);
  if (!st.ok()) {
    // Graceful degradation: when the query opted into partial results, an
    // undeliverable non-root fragment becomes an empty relation with the
    // declared schema (available locally through the foreign-table
    // mapping, like an FDW's) so joins and aggregates above it still run
    // over the surviving fragments. The root query itself never passes
    // through ForeignFetch, so the top of the plan cannot be substituted.
    if (st.IsRetryable() && fed->PartialAllowed()) {
      Result<Schema> schema = remote->DescribeRelation(relation);
      if (schema.ok()) {
        FragmentLoss loss;
        loss.relation = relation;
        loss.server = server;
        loss.consumer = server_->name_;
        loss.reason = out.budget_exhausted ? "deadline"
                      : st.code() == StatusCode::kTimeout ? "link-drop"
                                                          : "node-down";
        if (Result<double> est = remote->EstimateRelationRows(relation);
            est.ok()) {
          loss.est_rows = *est;
        }
        fed->RecordLostFragment(std::move(loss));
        return std::make_shared<Table>(*schema);
      }
    }
    return st.WithContext("foreign fetch of " + server + "." + relation +
                          " by " + server_->name_);
  }
  return table;
}

ComputeTrace* DatabaseServer::Context::trace() {
  return server_->fed_->CurrentTrace();
}

int DatabaseServer::Context::exec_threads() const {
  return server_->exec_threads();
}

OperatorProfiler* DatabaseServer::Context::profiler() {
  return server_->profiler();
}

int DatabaseServer::exec_threads() const {
  return exec_threads_ > 0 ? exec_threads_ : DefaultExecThreads();
}

// ---------------------------------------------------------------------------
// Resolution & planning
// ---------------------------------------------------------------------------

Result<PlanPtr> DatabaseServer::Resolve(const std::string& db,
                                        const std::string& table) {
  if (!db.empty() && !EqualsIgnoreCase(db, name_)) {
    return Status::CatalogError("server " + name_ +
                                " cannot resolve remote qualifier '" + db +
                                "'");
  }
  std::string key = ToLower(table);
  CatalogEntry* found = FindEntry(key);
  if (found == nullptr) {
    return Status::CatalogError("unknown relation '" + key + "' on " +
                                name_);
  }
  CatalogEntry& entry = *found;
  switch (entry.kind) {
    case EntryKind::kBase:
    case EntryKind::kMaterialized:
      return PlanNode::MakeScan(name_, key, key, entry.table->schema(),
                                entry.stats);
    case EntryKind::kView: {
      Planner planner(this);
      return planner.Plan(*entry.view_def);
    }
    case EntryKind::kForeign: {
      if (!entry.schema_cached) {
        DatabaseServer* remote = fed_->GetServer(entry.server);
        if (remote == nullptr) {
          return Status::NetworkError("unknown foreign server: " +
                                      entry.server);
        }
        fed_->RecordControlMessage(name_, entry.server);
        XDB_ASSIGN_OR_RETURN(Schema remote_schema,
                             remote->DescribeRelation(
                                 entry.remote_relation));
        // A column list in CREATE FOREIGN TABLE renames the columns.
        if (!entry.cached_schema.fields().empty()) {
          if (entry.cached_schema.num_fields() !=
              remote_schema.num_fields()) {
            return Status::CatalogError(
                "foreign table '" + key + "' declares " +
                std::to_string(entry.cached_schema.num_fields()) +
                " columns but remote relation has " +
                std::to_string(remote_schema.num_fields()));
          }
          Schema renamed;
          for (size_t i = 0; i < remote_schema.num_fields(); ++i) {
            renamed.AddField({entry.cached_schema.field(i).name,
                              remote_schema.field(i).type});
          }
          entry.cached_schema = std::move(renamed);
        } else {
          entry.cached_schema = std::move(remote_schema);
        }
        fed_->RecordControlMessage(name_, entry.server);
        XDB_ASSIGN_OR_RETURN(double rows, remote->EstimateRelationRows(
                                              entry.remote_relation));
        entry.stats.row_count = rows;
        entry.stats.columns.assign(entry.cached_schema.num_fields(),
                                   ColumnStats{});
        entry.schema_cached = true;
      }
      PlanPtr scan = PlanNode::MakeScan(name_, key, key,
                                        entry.cached_schema, entry.stats);
      scan->is_foreign = true;
      scan->foreign_server = entry.server;
      scan->remote_relation = entry.remote_relation;
      return scan;
    }
  }
  return Status::Internal("unreachable");
}

Result<PlanPtr> DatabaseServer::PlanQuery(const sql::SelectStmt& stmt) {
  Planner planner(this);
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, planner.Plan(stmt));
  // Stamp planning-time estimates on every node before execution: the
  // executor threads them into transfer records, and an attached profiler
  // joins them with observed cardinalities (estimation accountability).
  // One bottom-up pass over a small plan — observationally free.
  Estimator().StampEstimates(*plan);
  return plan;
}

// ---------------------------------------------------------------------------
// Declarative interface
// ---------------------------------------------------------------------------

namespace {
const char* OperatorName(const OperatorStats& s) {
  switch (s.kind) {
    case PlanKind::kScan:
      return s.is_foreign ? "ForeignScan" : "Scan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kPlaceholder:
      return "Placeholder";
  }
  return "Unknown";
}
}  // namespace

Result<TablePtr> DatabaseServer::ExecutePlanHere(const PlanNode& plan) {
  Context ctx(this);
  OperatorProfiler* prof = profiler();
  if (prof == nullptr) return ExecutePlan(plan, &ctx);
  // With a profiler attached, join each newly-profiled operator's stamped
  // estimate with its observed cardinality and bank the divergence on the
  // active run. The watermark scopes the join to this statement, so a
  // profiler attached across a whole bench run never double-emits.
  size_t mark = prof->records().size();
  Result<TablePtr> result = ExecutePlan(plan, &ctx);
  if (result.ok()) {
    for (size_t i = mark; i < prof->records().size(); ++i) {
      const OperatorStats& s = prof->records()[i];
      if (s.est_rows < 0) continue;
      EstimateActual ea;
      ea.op = OperatorName(s);
      ea.server = name_;
      ea.detail = s.label;
      ea.est_input_rows = s.est_input_rows;
      ea.est_rows = s.est_rows;
      ea.act_rows = s.output_rows;
      ea.est_seconds = OperatorProfiler::EstimatedSeconds(s, profile_);
      ea.act_seconds = OperatorProfiler::ModelledSeconds(s, profile_);
      ea.est_bytes = s.est_bytes;
      // Per-operator output bytes are not observed (intermediates are
      // row-format); observed rows at the planned width keeps the byte
      // fields cardinality-accountable without serializing every operator.
      ea.act_bytes = s.output_rows * (s.est_rows > 0
                                          ? s.est_bytes / s.est_rows
                                          : 0.0);
      fed_->RecordEstimate(std::move(ea));
    }
  }
  return result;
}

Result<TablePtr> DatabaseServer::ExecuteQuery(const std::string& sql) {
  XDB_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql));
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt));
  XDB_ASSIGN_OR_RETURN(TablePtr result, ExecutePlanHere(*plan));
  fed_->CurrentTrace()->output_rows +=
      static_cast<double>(result->num_rows());
  return result;
}

Result<TablePtr> DatabaseServer::ServeRemote(const std::string& relation) {
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, Resolve("", relation));
  // Resolve() hands back unstamped plans (base scans, expanded views);
  // stamp here so delegated-view evaluation is accountable too.
  Estimator().StampEstimates(*plan);
  return ExecutePlanHere(*plan);
}

Result<TablePtr> DatabaseServer::ExecuteSql(const std::string& sql) {
  XDB_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  TablePtr out;
  XDB_RETURN_NOT_OK(ExecuteParsed(*stmt, &out));
  if (!out) out = std::make_shared<Table>();
  return out;
}

Status DatabaseServer::ExecuteDdl(const std::string& sql) {
  XDB_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
  if (stmt->kind == sql::StatementKind::kSelect) {
    return Status::InvalidArgument("expected DDL, got a SELECT");
  }
  return ExecuteParsed(*stmt, nullptr);
}

Status DatabaseServer::ExecuteParsed(const sql::Statement& stmt,
                                     TablePtr* out) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt.select));
      XDB_ASSIGN_OR_RETURN(TablePtr result, ExecutePlanHere(*plan));
      fed_->CurrentTrace()->output_rows +=
          static_cast<double>(result->num_rows());
      if (out) *out = std::move(result);
      return Status::OK();
    }
    case sql::StatementKind::kExplain: {
      if (stmt.explain_analyze) {
        // EXPLAIN ANALYZE: execute the query with a per-operator profiler
        // attached and annotate each plan line with observed rows,
        // selectivity, morsel batches, and modelled operator seconds.
        XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt.select));
        OperatorProfiler prof;
        OperatorProfiler* saved = profiler_.exchange(&prof);
        Result<TablePtr> result = ExecutePlanHere(*plan);
        profiler_.store(saved);
        XDB_RETURN_NOT_OK(result.status());
        fed_->CurrentTrace()->output_rows +=
            static_cast<double>((*result)->num_rows());
        auto table = std::make_shared<Table>(
            Schema({{"plan", TypeId::kString}}));
        for (const auto& line : prof.Render(profile_)) {
          table->AppendRow({Value::String(line)});
        }
        double modelled = 0;
        for (const auto& s : prof.records()) {
          modelled += OperatorProfiler::ModelledSeconds(s, profile_);
        }
        char summary[128];
        std::snprintf(summary, sizeof(summary),
                      "(actual rows=%lld, modelled compute=%.6f s)",
                      static_cast<long long>((*result)->num_rows()),
                      modelled);
        table->AppendRow({Value::String(summary)});
        if (out) *out = std::move(table);
        return Status::OK();
      }
      // EXPLAIN as a statement: one text row per plan line, plus a cost
      // summary — roughly what a real DBMS prints.
      XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt.select));
      Estimator est;
      PlanEstimate e = est.Estimate(*plan);
      auto table = std::make_shared<Table>(
          Schema({{"plan", TypeId::kString}}));
      for (const auto& line : Split(plan->ToString(), '\n')) {
        if (!line.empty()) table->AppendRow({Value::String(line)});
      }
      char summary[128];
      std::snprintf(summary, sizeof(summary),
                    "(cost=%.4f s, rows=%.0f, width=%.0f)",
                    ModeledPlanCost(*plan), e.rows, e.row_width);
      table->AppendRow({Value::String(summary)});
      if (out) *out = std::move(table);
      return Status::OK();
    }
    case sql::StatementKind::kCreateView: {
      std::string key = ToLower(stmt.relation_name);
      if (FindEntry(key) != nullptr) {
        return Status::CatalogError("relation already exists: " + key);
      }
      // Validate now so delegation errors surface at DDL time, as they
      // would on a real DBMS. Planning resolves other relations, so it runs
      // outside the catalog lock; the insert re-checks existence.
      XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt.select));
      CatalogEntry entry;
      entry.kind = EntryKind::kView;
      entry.view_def = stmt.select;
      entry.cached_schema = plan->output_schema;
      entry.schema_cached = true;
      std::lock_guard<std::mutex> lock(catalog_mu_);
      if (catalog_.count(key)) {
        return Status::CatalogError("relation already exists: " + key);
      }
      catalog_[key] = std::move(entry);
      return Status::OK();
    }
    case sql::StatementKind::kCreateForeignTable: {
      std::string key = ToLower(stmt.relation_name);
      if (fed_->GetServer(stmt.server) == nullptr) {
        return Status::CatalogError("unknown SERVER: " + stmt.server);
      }
      CatalogEntry entry;
      entry.kind = EntryKind::kForeign;
      entry.server = stmt.server;
      entry.remote_relation = ToLower(stmt.remote_relation);
      for (const auto& c : stmt.column_names) {
        entry.cached_schema.AddField({ToLower(c), TypeId::kInt64});
      }
      entry.schema_cached = false;  // resolved lazily on first use
      std::lock_guard<std::mutex> lock(catalog_mu_);
      if (catalog_.count(key)) {
        return Status::CatalogError("relation already exists: " + key);
      }
      catalog_[key] = std::move(entry);
      return Status::OK();
    }
    case sql::StatementKind::kCreateTableAs: {
      std::string key = ToLower(stmt.relation_name);
      if (FindEntry(key) != nullptr) {
        return Status::CatalogError("relation already exists: " + key);
      }
      XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt.select));
      const DatabaseServer* saved = t_materializing;
      t_materializing = this;
      Result<TablePtr> result = ExecutePlanHere(*plan);
      t_materializing = saved;
      XDB_RETURN_NOT_OK(result.status());
      TablePtr table = std::move(result).value();
      fed_->CurrentTrace()->materialized_rows +=
          static_cast<double>(table->num_rows());
      CatalogEntry entry;
      entry.kind = EntryKind::kMaterialized;
      entry.stats = ComputeTableStats(*table);
      entry.table = std::move(table);
      std::lock_guard<std::mutex> lock(catalog_mu_);
      if (catalog_.count(key)) {
        return Status::CatalogError("relation already exists: " + key);
      }
      catalog_[key] = std::move(entry);
      return Status::OK();
    }
    case sql::StatementKind::kDrop: {
      std::string key = ToLower(stmt.relation_name);
      std::lock_guard<std::mutex> lock(catalog_mu_);
      auto it = catalog_.find(key);
      if (it == catalog_.end()) {
        if (stmt.if_exists) return Status::OK();
        return Status::CatalogError("unknown relation: " + key);
      }
      bool kind_ok =
          (stmt.relation_kind == sql::RelationKind::kView &&
           it->second.kind == EntryKind::kView) ||
          (stmt.relation_kind == sql::RelationKind::kForeignTable &&
           it->second.kind == EntryKind::kForeign) ||
          (stmt.relation_kind == sql::RelationKind::kTable &&
           (it->second.kind == EntryKind::kBase ||
            it->second.kind == EntryKind::kMaterialized));
      if (!kind_ok) {
        return Status::CatalogError("relation '" + key +
                                    "' is not of the dropped kind");
      }
      catalog_.erase(it);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable statement kind");
}

// ---------------------------------------------------------------------------
// Metadata & costing interface
// ---------------------------------------------------------------------------

Result<Schema> DatabaseServer::DescribeRelation(const std::string& relation) {
  std::string key = ToLower(relation);
  CatalogEntry* found = FindEntry(key);
  if (found == nullptr) {
    return Status::CatalogError("unknown relation '" + key + "' on " +
                                name_);
  }
  CatalogEntry& entry = *found;
  if (entry.kind == EntryKind::kBase ||
      entry.kind == EntryKind::kMaterialized) {
    return entry.table->schema();
  }
  if (entry.schema_cached) return entry.cached_schema;
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, Resolve("", key));
  return plan->output_schema;
}

Result<double> DatabaseServer::EstimateRelationRows(
    const std::string& relation) {
  std::string key = ToLower(relation);
  CatalogEntry* found = FindEntry(key);
  if (found == nullptr) {
    return Status::CatalogError("unknown relation '" + key + "' on " +
                                name_);
  }
  CatalogEntry& entry = *found;
  if (entry.kind == EntryKind::kBase ||
      entry.kind == EntryKind::kMaterialized) {
    return entry.stats.row_count;
  }
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, Resolve("", key));
  Estimator est;
  return est.Estimate(*plan).rows;
}

double DatabaseServer::ModeledPlanCost(const PlanNode& plan) const {
  Estimator est;
  double cost = 0;
  // Recursive walk; each node contributes rows x profile weight.
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    for (const auto& c : node.children) walk(*c);
    PlanEstimate e = est.Estimate(node);
    switch (node.kind) {
      case PlanKind::kScan:
        cost += e.rows * (node.is_foreign ? profile_.fetch_row_cost
                                          : profile_.scan_row_cost);
        break;
      case PlanKind::kFilter:
        cost += est.Estimate(*node.children[0]).rows *
                profile_.filter_row_cost;
        break;
      case PlanKind::kProject:
        cost += e.rows * profile_.project_row_cost;
        break;
      case PlanKind::kJoin: {
        double l = est.Estimate(*node.children[0]).rows;
        double r = est.Estimate(*node.children[1]).rows;
        // Joining against a pipelined foreign stream is costlier than a
        // local relation: the engine has no statistics and cannot pick
        // build sides, and a large stream risks rescans (the paper's
        // rationale for explicit movement). Streams that dwarf the local
        // side are penalised sharply — this is what tips Eq. 1 towards
        // explicit movement for large inputs, reproducing Table IV's mix.
        auto stream_penalty = [&](const PlanNode& c, double own_rows,
                                  double other_rows) {
          bool streamed =
              (c.kind == PlanKind::kPlaceholder && c.placeholder_foreign) ||
              (c.kind == PlanKind::kScan && c.is_foreign);
          if (!streamed) return 1.0;
          return own_rows > other_rows / 2 ? 5.0 : 1.5;
        };
        cost += (l * stream_penalty(*node.children[0], l, r) +
                 r * stream_penalty(*node.children[1], r, l) + e.rows) *
                profile_.join_row_cost;
        break;
      }
      case PlanKind::kAggregate:
        cost += (est.Estimate(*node.children[0]).rows + e.rows) *
                profile_.agg_row_cost;
        break;
      case PlanKind::kSort: {
        double n = e.rows;
        cost += n * std::log2(n + 2.0) * profile_.sort_row_cost;
        break;
      }
      case PlanKind::kLimit:
        break;
      case PlanKind::kPlaceholder:
        // Reading the "?" input: a foreign stream pays the per-row fetch
        // overhead; a materialised input is a plain local scan.
        cost += e.rows * (node.placeholder_foreign ? profile_.fetch_row_cost
                                                   : profile_.scan_row_cost);
        break;
    }
  };
  walk(plan);
  return cost + profile_.startup_cost;
}

Result<ExplainResult> DatabaseServer::Explain(const std::string& sql) {
  std::string text = Trim(sql);
  if (StartsWith(ToUpper(text), "EXPLAIN")) {
    text = Trim(text.substr(7));
  }
  XDB_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(text));
  XDB_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*stmt));
  Estimator est;
  PlanEstimate e = est.Estimate(*plan);
  ExplainResult out;
  out.cost_seconds = ModeledPlanCost(*plan);
  out.est_rows = e.rows;
  out.est_bytes = e.bytes();
  return out;
}

}  // namespace xdb
