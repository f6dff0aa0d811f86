#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/connect/connector.h"
#include "src/timing/timing_model.h"
#include "src/xdb/delegation_plan.h"
#include "src/xdb/xdb.h"

namespace xdb {

class QueryScope;

/// \brief Which mediator-wrapper baseline to emulate (paper Section VI).
enum class MediatorKind {
  /// Garlic-like: a single PostgreSQL mediator with SQL/MED wrappers.
  /// Pushes down maximal single-DBMS subqueries (including co-located
  /// joins); fetches intermediates with the binary protocol, pipelined.
  kGarlic,

  /// Presto/Trino-like: an MPP mediator with W workers. Connectors push
  /// down only scans (filters + projections); all joins and aggregation run
  /// in the mediator; fetches pay JDBC per-row overhead.
  kPresto,

  /// ScleraDB-like: "in-situ" querying that nevertheless moves every
  /// intermediate table *explicitly* through its mediator (the paper's
  /// naive execution of Section V), with row-at-a-time transfer.
  kSclera,
};

const char* MediatorKindToString(MediatorKind kind);

/// \brief Options for a mediator system.
struct MediatorOptions {
  double scale_up = 1.0;
  int presto_workers = 4;
  /// Node name for the mediator; defaults to the kind's name.
  std::string mediator_node;
  bool cleanup_after_query = true;
  /// Executor worker budget for the mediator node and every component DBMS:
  /// 0 = hardware concurrency, 1 = legacy serial (see XdbOptions).
  int exec_threads = 0;
  /// Modelled-time deadline per query (seconds; 0 = none) and opt-in
  /// partial results, sharing XDB's budget machinery. Mediators have no
  /// failover, so an undeliverable fragment either degrades under
  /// allow_partial or fails the query.
  double deadline_seconds = 0;
  bool allow_partial = false;
};

/// \brief A mediator-wrapper federated query system (the paper's Figure 4a
/// baseline family).
///
/// Deliberately built from the same substrate as XDB — the same parser,
/// logical optimizer, connectors, and SQL/MED foreign tables — so that the
/// *only* differences are architectural: where cross-database operators are
/// placed (always the mediator) and how intermediates move (always through
/// the mediator). This isolates the paper's claim: the MW architecture
/// itself, not implementation quality, causes the overhead.
class MediatorSystem {
 public:
  /// Registers a mediator DBMS node in `fed` (with the kind's engine
  /// profile) and builds connectors for the component DBMSes.
  MediatorSystem(Federation* fed, MediatorKind kind,
                 MediatorOptions options = {});

  /// Runs a federated query through the mediator. Shares XdbSystem::Query's
  /// query scope and recorder: banks one QueryStats record (system = the
  /// mediator kind) when the federation has a QueryLog attached.
  Result<XdbReport> Query(const std::string& sql);

  const std::string& mediator_name() const { return mediator_name_; }
  MediatorKind kind() const { return kind_; }

 private:
  Status AnnotateMw(PlanNode* node) const;

  /// Query() minus the per-query scope and recording. On failure the run's
  /// trace lands in `*fail_trace`.
  Result<XdbReport> QueryImpl(const std::string& sql, int query_id,
                              QueryScope* scope, RunTrace* fail_trace);

  Federation* fed_;
  MediatorKind kind_;
  MediatorOptions options_;
  std::string mediator_name_;
  DatabaseServer* mediator_ = nullptr;
  std::map<std::string, std::unique_ptr<DbmsConnector>> connectors_;
  std::map<std::string, DbmsConnector*> connector_ptrs_;
  std::unique_ptr<GlobalCatalog> catalog_;
  int query_counter_ = 0;
};

}  // namespace xdb
