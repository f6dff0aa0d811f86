#pragma once

// Traced replay of XdbSystem::Query's fault-free path. The replay calls the
// same public functions the middleware calls, in the same order, and
// records one in-memory span per layer call; nothing inside the program is
// instrumented. End-to-end numbers never come from here.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/timing/timing_model.h"
#include "src/xdb/xdb.h"

namespace xdbbench {

/// Layers a replayed query's wall time is attributed to, in pipeline order.
enum Layer : int {
  kParse,      // sql::ParseSelect
  kCatalog,    // GlobalCatalog::Resolve / LocateTable per referenced table
  kOptimize,   // Planner::Plan + Estimator::StampEstimates
  kPlanCache,  // NormalizeSql, PlacementFingerprint, Lookup/Insert, clones
  kAnnotate,   // Annotator::Annotate (consultations) on a fresh clone
  kFinalize,   // FinalizePlan
  kDeploy,     // DelegationEngine::Deploy (deparse + DBMS DDL)
  kExecute,    // root DbmsConnector::RunQuery, incl. the foreign fetches
  kModel,      // TimingModel::ModelRun
  kCleanup,    // DelegationEngine::Cleanup
  kNumLayers,
};

/// "sql.parse_us", "xdb.catalog_us", ... for each Layer.
const char* LayerMetricName(int layer);

/// Span layer value of the whole-query span that parents a query's spans.
constexpr int kQuerySpan = -1;

/// One layer-boundary crossing. Spans of one query share `query`; every
/// layer span's parent is that query's kQuerySpan span.
struct SpanRecord {
  int64_t query = 0;
  int layer = kQuerySpan;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// Replays statements on one client thread. Deployed relations are named
/// `<ddl_prefix>_q<n>_t<k>`, so concurrent replayers need distinct prefixes.
class TracedReplayer {
 public:
  TracedReplayer(xdb::XdbSystem* xdb, std::string ddl_prefix);

  /// Runs one statement through the replayed pipeline, appending its spans.
  xdb::Result<xdb::TablePtr> Run(const std::string& sql);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  xdb::Result<xdb::TablePtr> RunPipeline(const std::string& sql,
                                         int64_t query);
  xdb::Status Touch(const xdb::sql::SelectStmt& stmt);

  xdb::XdbSystem* xdb_;
  std::string ddl_prefix_;
  std::map<std::string, xdb::DbmsConnector*> connectors_;
  xdb::TimingModel model_;
  int64_t next_query_ = 1;
  double modelled_total_ = 0;  // keeps ModelRun's result observable
  std::vector<SpanRecord> spans_;
};

}  // namespace xdbbench
