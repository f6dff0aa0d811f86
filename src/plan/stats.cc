#include "src/plan/stats.h"

#include <unordered_set>

namespace xdb {

namespace {

/// Fills `cs` from one column's lanes. Lanes are visited in row order and
/// min/max only move on a strict improvement, so among equal extremes the
/// first one wins (this keeps e.g. the first of 0.0 / -0.0).
void ColumnStatsOf(const ColumnVector& v, size_t n, ColumnStats* cs) {
  std::unordered_set<size_t> distinct_hashes;
  double width_sum = 0.0;
  constexpr size_t kNone = static_cast<size_t>(-1);
  size_t min_lane = kNone;
  size_t max_lane = kNone;
  auto visit = [&](size_t i) {
    distinct_hashes.insert(v.LaneHash(i));
    if (min_lane == kNone || v.CompareLanes(i, v, min_lane) < 0) min_lane = i;
    if (max_lane == kNone || v.CompareLanes(i, v, max_lane) > 0) max_lane = i;
  };
  if (v.repr == ColumnVector::Repr::kDict) {
    // Each dictionary entry is hashed and compared once, at its first lane.
    std::vector<uint8_t> seen(v.dict->size(), 0);
    for (size_t i = 0; i < n; ++i) {
      width_sum += static_cast<double>(v.LaneSerializedSize(i));
      if (v.nulls[i] || seen[v.codes[i]]) continue;
      seen[v.codes[i]] = 1;
      visit(i);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      width_sum += static_cast<double>(v.LaneSerializedSize(i));
      if (!v.IsNull(i)) visit(i);
    }
  }
  if (min_lane != kNone) cs->min = v.GetValue(min_lane);
  if (max_lane != kNone) cs->max = v.GetValue(max_lane);
  cs->ndv = std::max<double>(1.0,
                             static_cast<double>(distinct_hashes.size()));
  cs->avg_width = n > 0 ? width_sum / static_cast<double>(n) : 8.0;
}

}  // namespace

TableStats ComputeTableStats(const Table& table) {
  TableStats stats;
  const size_t n = table.num_rows();
  stats.row_count = static_cast<double>(n);
  const size_t ncols = table.schema().num_fields();
  stats.columns.resize(ncols);
  // Statistics read the typed columns, so a column-backed intermediate is
  // analyzed without building its rows.
  const std::shared_ptr<const Table::Columns> cols = table.columns();
  if (cols == nullptr) return stats;  // ragged rows: defaults only
  for (size_t c = 0; c < ncols; ++c) {
    ColumnStatsOf(*(*cols)[c], n, &stats.columns[c]);
  }
  return stats;
}

}  // namespace xdb
