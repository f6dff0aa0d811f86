#include "src/exec/executor.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>

#include "src/common/thread_pool.h"
#include "src/exec/profile.h"
#include "src/expr/vector_eval.h"

namespace xdb {

void ComputeTrace::Add(const ComputeTrace& other) {
  scan_rows += other.scan_rows;
  foreign_rows += other.foreign_rows;
  filter_input_rows += other.filter_input_rows;
  project_rows += other.project_rows;
  join_build_rows += other.join_build_rows;
  join_probe_rows += other.join_probe_rows;
  join_output_rows += other.join_output_rows;
  agg_input_rows += other.agg_input_rows;
  agg_output_rows += other.agg_output_rows;
  sort_rows += other.sort_rows;
  materialized_rows += other.materialized_rows;
  output_rows += other.output_rows;
}

namespace {

// Morsel granules. Fixed constants — never derived from the worker count —
// because morsel boundaries are part of the deterministic contract: output
// row order and floating-point accumulation order depend only on the input,
// so exec_threads=1 and exec_threads=N produce bit-identical results (and
// therefore identical ComputeTrace counters, transfer volumes, and figure
// reproductions).
constexpr size_t kMorselRows = 4096;      // filter / project / join probe
constexpr size_t kAggMorselRows = 16384;  // aggregation partial-state ranges

/// The profiler record of the operator currently executing, or nullptr when
/// no profiler is attached. Only touched on the coordinating thread (stats
/// are filled around — never inside — the morsel-parallel regions).
OperatorStats* ProfCurrent(ExecContext* ctx) {
  OperatorProfiler* prof = ctx->profiler();
  return prof != nullptr ? prof->current() : nullptr;
}

int64_t MorselCount(size_t n, size_t morsel_rows) {
  return static_cast<int64_t>((n + morsel_rows - 1) / morsel_rows);
}

using RowIds = std::vector<uint32_t>;
using RowIdsPtr = std::shared_ptr<const RowIds>;

/// An operator's output: a columnar batch, plus the stored table it is
/// exactly equal to (set by scans only), which ExecutePlan hands back as-is.
struct Relation {
  ColumnBatch batch;
  TablePtr table;
};

/// Concatenates per-morsel id buffers in morsel order.
RowIds ConcatMorsels(std::vector<RowIds>* parts) {
  size_t total = 0;
  for (const RowIds& p : *parts) total += p.size();
  RowIds out;
  out.reserve(total);
  for (const RowIds& p : *parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Rows `pick[0..n)` of `in`, in that order. Only row-id vectors are built:
/// each distinct id vector of `in` is composed with `pick` once and shared
/// by every slice that used it; identity slices take `pick` itself.
ColumnBatch Pick(const ColumnBatch& in, const RowIdsPtr& pick) {
  ColumnBatch out;
  out.num_rows = pick->size();
  out.columns.reserve(in.columns.size());
  std::vector<std::pair<const RowIds*, RowIdsPtr>> composed;
  for (const ColumnSlice& s : in.columns) {
    ColumnSlice o;
    o.data = s.data;
    if (s.ids == nullptr) {
      o.ids = pick;
    } else {
      for (const auto& [from, to] : composed) {
        if (from == s.ids.get()) o.ids = to;
      }
      if (o.ids == nullptr) {
        auto ids = std::make_shared<RowIds>(pick->size());
        const RowIds& src = *s.ids;
        for (size_t i = 0; i < pick->size(); ++i) (*ids)[i] = src[(*pick)[i]];
        composed.emplace_back(s.ids.get(), ids);
        o.ids = std::move(ids);
      }
    }
    out.columns.push_back(std::move(o));
  }
  return out;
}

ColumnBatch Pick(const ColumnBatch& in, RowIds pick) {
  return Pick(in, std::make_shared<const RowIds>(std::move(pick)));
}

/// Evaluates `expr` over every row of `batch`, morsel by morsel, into one
/// vector. Lanes are identical for any worker count.
ColumnVector EvalColumn(const Expr& expr, const ColumnBatch& batch,
                        int workers) {
  const size_t n = batch.num_rows;
  const size_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  if (num_morsels <= 1) {
    SelVector sel;
    SelRange(0, n, &sel);
    return EvalExprBatch(expr, batch, sel);
  }
  std::vector<ColumnVector> parts(num_morsels);
  ParallelFor(workers, n, kMorselRows,
              [&](size_t m, size_t begin, size_t end) {
                SelVector sel;
                SelRange(begin, end, &sel);
                parts[m] = EvalExprBatch(expr, batch, sel);
              });
  ColumnVector out = std::move(parts[0]);
  for (size_t m = 1; m < num_morsels; ++m) out.Append(std::move(parts[m]));
  return out;
}

/// The rows of `batch` where `pred` holds, ascending.
RowIds SelectRows(const Expr& pred, const ColumnBatch& batch, int workers) {
  const size_t n = batch.num_rows;
  std::vector<RowIds> sels((n + kMorselRows - 1) / kMorselRows);
  ParallelFor(workers, n, kMorselRows,
              [&](size_t m, size_t begin, size_t end) {
                SelRange(begin, end, &sels[m]);
                EvalPredicateBatch(pred, batch, &sels[m]);
              });
  return ConcatMorsels(&sels);
}

/// Every row of one column of `batch`, gathered densely.
ColumnVector GatherAll(const ColumnBatch& batch, size_t col) {
  SelVector all;
  SelRange(0, batch.num_rows, &all);
  return GatherSlice(batch.columns[col], all.data(), all.size());
}

Result<Relation> FromTable(TablePtr t) {
  std::shared_ptr<const Table::Columns> cols = t->columns();
  if (cols == nullptr) {
    return Status::Internal("relation rows do not match its schema");
  }
  Relation rel;
  rel.batch.num_rows = t->num_rows();
  rel.batch.columns.reserve(cols->size());
  for (const ColumnPtr& c : *cols) rel.batch.columns.push_back({c, nullptr});
  rel.table = std::move(t);
  return rel;
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();

/// \brief Build side of a hash join, grouped by key: the build rows of key
/// group g are rows[offsets[g] .. offsets[g + 1]), in ascending order — the
/// first-occurrence match order a probe emits.
struct JoinIndex {
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> rows;

  /// Lays out the build rows from each row's group (kNoGroup = NULL key,
  /// never matches).
  void Build(const std::vector<uint32_t>& group_of, size_t num_groups) {
    offsets.assign(num_groups + 1, 0);
    for (uint32_t g : group_of) {
      if (g != kNoGroup) ++offsets[g + 1];
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    rows.resize(offsets[num_groups]);
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < group_of.size(); ++i) {
      if (group_of[i] != kNoGroup) {
        rows[fill[group_of[i]]++] = static_cast<uint32_t>(i);
      }
    }
  }
};

/// One or two int64-class key columns packed into 128 bits.
struct PackedKey {
  uint64_t a = 0;
  uint64_t b = 0;
  bool operator==(const PackedKey& o) const { return a == o.a && b == o.b; }
};

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// \brief Open-addressing (linear probing) map from packed keys to dense
/// group ids, numbered in first-insertion order.
class PackedKeyTable {
 public:
  explicit PackedKeyTable(size_t max_keys) {
    size_t cap = 16;
    while (cap < 2 * max_keys) cap <<= 1;
    mask_ = cap - 1;
    keys_.resize(cap);
    groups_.assign(cap, kNoGroup);
  }

  uint32_t FindOrInsert(const PackedKey& k) {
    size_t slot = Slot(k);
    while (groups_[slot] != kNoGroup) {
      if (keys_[slot] == k) return groups_[slot];
      slot = (slot + 1) & mask_;
    }
    keys_[slot] = k;
    groups_[slot] = num_groups_;
    return num_groups_++;
  }

  uint32_t Find(const PackedKey& k) const {
    size_t slot = Slot(k);
    while (groups_[slot] != kNoGroup) {
      if (keys_[slot] == k) return groups_[slot];
      slot = (slot + 1) & mask_;
    }
    return kNoGroup;
  }

  size_t num_groups() const { return num_groups_; }

 private:
  size_t Slot(const PackedKey& k) const {
    return static_cast<size_t>(Mix64(k.a ^ Mix64(k.b))) & mask_;
  }

  size_t mask_ = 0;
  std::vector<PackedKey> keys_;
  std::vector<uint32_t> groups_;
  uint32_t num_groups_ = 0;
};

/// The join key columns of one side, gathered densely.
struct KeyColumns {
  std::vector<ColumnVector> cols;

  bool AllInt64Class() const {
    for (const ColumnVector& c : cols) {
      if (c.repr != ColumnVector::Repr::kI64) return false;
    }
    return true;
  }
  bool AnyNull(size_t i) const {
    for (const ColumnVector& c : cols) {
      if (c.nulls[i]) return true;
    }
    return false;
  }
  /// Valid only when AllInt64Class() and !AnyNull(i).
  PackedKey Packed(size_t i) const {
    PackedKey k;
    k.a = static_cast<uint64_t>(cols[0].i64[i]);
    if (cols.size() > 1) k.b = static_cast<uint64_t>(cols[1].i64[i]);
    return k;
  }
  /// Serializes row i's key as normalized bytes; false when any key column
  /// is NULL (join keys never match on NULL).
  bool Normalized(size_t i, std::string* key) const {
    key->clear();
    for (const ColumnVector& c : cols) {
      if (c.IsNull(i)) return false;
      c.AppendNormalizedKey(i, key);
    }
    return true;
  }
};

KeyColumns GatherKeys(const ColumnBatch& batch, const std::vector<int>& keys) {
  KeyColumns out;
  out.cols.reserve(keys.size());
  for (int k : keys) {
    out.cols.push_back(GatherAll(batch, static_cast<size_t>(k)));
  }
  return out;
}

/// Probes every row of the probe side morsel by morsel: `lookup(i, scratch)`
/// returns row i's key group (kNoGroup for none). Emits (probe row, build
/// row) pairs in probe order, build matches ascending.
template <typename Lookup>
void ProbeJoin(int workers, size_t n, const JoinIndex& index,
               const Lookup& lookup, RowIds* probe_ids, RowIds* build_ids) {
  const size_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  std::vector<RowIds> probe_parts(num_morsels), build_parts(num_morsels);
  ParallelFor(workers, n, kMorselRows,
              [&](size_t m, size_t begin, size_t end) {
                std::string scratch;
                RowIds& pp = probe_parts[m];
                RowIds& bp = build_parts[m];
                for (size_t i = begin; i < end; ++i) {
                  const uint32_t g = lookup(i, &scratch);
                  if (g == kNoGroup) continue;
                  for (uint32_t k = index.offsets[g]; k < index.offsets[g + 1];
                       ++k) {
                    pp.push_back(static_cast<uint32_t>(i));
                    bp.push_back(index.rows[k]);
                  }
                }
              });
  *probe_ids = ConcatMorsels(&probe_parts);
  *build_ids = ConcatMorsels(&build_parts);
}

/// Hash equi-join on `build` / `probe` key columns. Keys made only of one or
/// two int64-class columns on both sides are packed into a 128-bit word and
/// looked up in an open-addressing table; every other key (strings, doubles,
/// mixed types) is matched on its normalized-key bytes, under which 1 == 1.0
/// and -0.0 == 0.0 exactly as Value::Compare has it. Both paths group the
/// build rows by key in first-occurrence order, so they emit the same pairs
/// in the same order.
void HashJoin(int workers, const KeyColumns& build, const KeyColumns& probe,
              size_t build_rows, size_t probe_rows, RowIds* probe_ids,
              RowIds* build_ids) {
  JoinIndex index;
  std::vector<uint32_t> group_of(build_rows, kNoGroup);
  if (build.cols.size() <= 2 && build.AllInt64Class() &&
      probe.AllInt64Class()) {
    PackedKeyTable table(build_rows);
    for (size_t i = 0; i < build_rows; ++i) {
      if (!build.AnyNull(i)) group_of[i] = table.FindOrInsert(build.Packed(i));
    }
    index.Build(group_of, table.num_groups());
    ProbeJoin(workers, probe_rows, index,
              [&](size_t i, std::string*) {
                return probe.AnyNull(i) ? kNoGroup
                                        : table.Find(probe.Packed(i));
              },
              probe_ids, build_ids);
    return;
  }
  std::unordered_map<std::string, uint32_t> groups;
  groups.reserve(build_rows);
  std::string key;
  for (size_t i = 0; i < build_rows; ++i) {
    if (!build.Normalized(i, &key)) continue;
    auto it = groups.try_emplace(key, static_cast<uint32_t>(groups.size()));
    group_of[i] = it.first->second;
  }
  index.Build(group_of, groups.size());
  ProbeJoin(workers, probe_rows, index,
            [&](size_t i, std::string* scratch) {
              if (!probe.Normalized(i, scratch)) return kNoGroup;
              auto it = groups.find(*scratch);
              return it == groups.end() ? kNoGroup : it->second;
            },
            probe_ids, build_ids);
}

Result<Relation> ExecJoin(const PlanNode& plan, ExecContext* ctx,
                          const ColumnBatch& left, const ColumnBatch& right) {
  ComputeTrace* trace = ctx->trace();
  const int workers = ctx->exec_threads();
  RowIds left_ids, right_ids;

  if (plan.left_keys.empty()) {
    // Cross product (kept for completeness; the planners avoid it).
    trace->join_build_rows += static_cast<double>(right.num_rows);
    trace->join_probe_rows += static_cast<double>(left.num_rows);
    if (OperatorStats* s = ProfCurrent(ctx)) {
      s->build_rows = static_cast<double>(right.num_rows);
      s->probe_rows = static_cast<double>(left.num_rows);
      s->batches = MorselCount(left.num_rows, kMorselRows);
    }
    const size_t num_morsels = (left.num_rows + kMorselRows - 1) / kMorselRows;
    std::vector<RowIds> lparts(num_morsels), rparts(num_morsels);
    ParallelFor(workers, left.num_rows, kMorselRows,
                [&](size_t m, size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) {
                    for (size_t j = 0; j < right.num_rows; ++j) {
                      lparts[m].push_back(static_cast<uint32_t>(i));
                      rparts[m].push_back(static_cast<uint32_t>(j));
                    }
                  }
                });
    left_ids = ConcatMorsels(&lparts);
    right_ids = ConcatMorsels(&rparts);
  } else {
    // Hash join; build on the smaller input, probe with the larger, emitting
    // rows in (left || right) schema order either way.
    const bool build_right = right.num_rows <= left.num_rows;
    const ColumnBatch& build = build_right ? right : left;
    const ColumnBatch& probe = build_right ? left : right;
    trace->join_build_rows += static_cast<double>(build.num_rows);
    trace->join_probe_rows += static_cast<double>(probe.num_rows);
    if (OperatorStats* s = ProfCurrent(ctx)) {
      s->build_rows = static_cast<double>(build.num_rows);
      s->probe_rows = static_cast<double>(probe.num_rows);
      s->batches = MorselCount(probe.num_rows, kMorselRows);
    }
    const KeyColumns build_keys = GatherKeys(
        build, build_right ? plan.right_keys : plan.left_keys);
    const KeyColumns probe_keys = GatherKeys(
        probe, build_right ? plan.left_keys : plan.right_keys);
    RowIds probe_ids, build_ids;
    HashJoin(workers, build_keys, probe_keys, build.num_rows, probe.num_rows,
             &probe_ids, &build_ids);
    left_ids = std::move(build_right ? probe_ids : build_ids);
    right_ids = std::move(build_right ? build_ids : probe_ids);
  }

  // The output is two row-id vectors over the inputs' columns; values are
  // gathered only when a later operator reads them.
  ColumnBatch joined = Pick(left, std::move(left_ids));
  ColumnBatch rhs = Pick(right, std::move(right_ids));
  for (ColumnSlice& s : rhs.columns) joined.columns.push_back(std::move(s));
  if (plan.residual != nullptr) {
    RowIds keep = SelectRows(*plan.residual, joined, workers);
    if (keep.size() != joined.num_rows) joined = Pick(joined, std::move(keep));
  }
  trace->join_output_rows += static_cast<double>(joined.num_rows);
  return Relation{std::move(joined), nullptr};
}

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

/// One aggregate's running state.
struct AggState {
  double sum = 0;
  int64_t isum = 0;
  bool int_sum = true;
  int64_t count = 0;
  Value min = Value::Null(TypeId::kInt64);
  Value max = Value::Null(TypeId::kInt64);

  /// Folds lane `i` of an evaluated argument (`kind` is not COUNT(*)).
  void Fold(AggKind kind, const ColumnVector& v, size_t i) {
    if (v.IsNull(i)) return;  // SQL aggregates skip NULLs
    ++count;
    switch (kind) {
      case AggKind::kSum:
      case AggKind::kAvg:
        if (v.repr == ColumnVector::Repr::kF64) {
          int_sum = false;
          sum += v.f64[i];
        } else if (v.repr == ColumnVector::Repr::kI64) {
          sum += static_cast<double>(v.i64[i]);
          isum += v.i64[i];
        } else {
          const Value x = v.GetValue(i);
          if (x.type() == TypeId::kDouble) int_sum = false;
          sum += x.AsDouble();
          isum += x.type() == TypeId::kDouble ? 0 : x.int64_value();
        }
        break;
      case AggKind::kMin: {
        Value x = v.GetValue(i);
        if (min.is_null() || x.Compare(min) < 0) min = std::move(x);
        break;
      }
      case AggKind::kMax: {
        Value x = v.GetValue(i);
        if (max.is_null() || x.Compare(max) > 0) max = std::move(x);
        break;
      }
      default:
        break;
    }
  }

  /// Folds a later partition's state into this one. Merge order is fixed
  /// (partition order), keeping double summation associativity — and thus
  /// SUM/AVG bits — independent of the worker count. Ties in MIN/MAX keep
  /// the earlier partition's value, matching serial first-seen semantics.
  void Merge(const AggState& o) {
    sum += o.sum;
    isum += o.isum;
    int_sum = int_sum && o.int_sum;
    count += o.count;
    if (!o.min.is_null() && (min.is_null() || o.min.Compare(min) < 0)) {
      min = o.min;
    }
    if (!o.max.is_null() && (max.is_null() || o.max.Compare(max) > 0)) {
      max = o.max;
    }
  }
};

/// A group's representative key values plus per-aggregate states, keyed in
/// the hash table by the normalized key bytes.
struct GroupEntry {
  Row key;
  std::vector<AggState> states;
};

using GroupMap = std::unordered_map<std::string, GroupEntry>;

/// The aggregate's output value for one group.
Value AggResult(const ExprPtr& agg, const AggState& st) {
  switch (agg->agg_kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(st.count);
    case AggKind::kSum:
      if (st.count == 0) return Value::Null(InferType(agg));
      return st.int_sum ? Value::Int64(st.isum) : Value::Double(st.sum);
    case AggKind::kAvg:
      if (st.count == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(st.sum / static_cast<double>(st.count));
    case AggKind::kMin:
      // An all-NULL (or empty) group yields a NULL of the aggregate's
      // inferred type, not the AggState's kInt64 placeholder.
      return st.min.is_null() ? Value::Null(InferType(agg)) : st.min;
    case AggKind::kMax:
      return st.max.is_null() ? Value::Null(InferType(agg)) : st.max;
  }
  return Value::Null(TypeId::kInt64);
}

Result<Relation> ExecAggregate(const PlanNode& plan, ExecContext* ctx,
                               const ColumnBatch& input) {
  ComputeTrace* trace = ctx->trace();
  const int workers = ctx->exec_threads();
  const size_t n = input.num_rows;
  trace->agg_input_rows += static_cast<double>(n);
  if (OperatorStats* s = ProfCurrent(ctx)) {
    s->input_rows = static_cast<double>(n);
    s->batches = MorselCount(n, kAggMorselRows);
  }

  const size_t nkeys = plan.group_keys.size();
  const size_t naggs = plan.aggregates.size();

  // Partial aggregation over fixed row ranges, merged in range order. The
  // range cut depends only on n, so accumulation order — and with it every
  // SUM/AVG double — is identical for any worker count.
  const size_t num_parts =
      std::max<size_t>(1, (n + kAggMorselRows - 1) / kAggMorselRows);
  std::vector<GroupMap> partials(num_parts);
  // Global aggregation (no GROUP BY) must yield one row even on empty input.
  if (nkeys == 0) {
    GroupEntry& e = partials[0][std::string()];
    e.states.resize(naggs);
  }

  ParallelFor(workers, n, kAggMorselRows, [&](size_t part, size_t begin,
                                              size_t end) {
    SelVector sel;
    SelRange(begin, end, &sel);
    // Group keys and aggregate arguments are evaluated a range at a time;
    // key bytes come straight from the typed lanes and the representative
    // key values are boxed only when a group is first seen.
    std::vector<ColumnVector> keys(nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      keys[k] = EvalExprBatch(*plan.group_keys[k], input, sel);
    }
    std::vector<ColumnVector> args(naggs);
    for (size_t a = 0; a < naggs; ++a) {
      if (plan.aggregates[a]->agg_kind != AggKind::kCountStar) {
        args[a] = EvalExprBatch(*plan.aggregates[a]->children[0], input, sel);
      }
    }
    GroupMap& groups = partials[part];
    std::string norm;
    for (size_t i = 0; i < sel.size(); ++i) {
      norm.clear();
      for (const ColumnVector& k : keys) k.AppendNormalizedKey(i, &norm);
      auto [it, inserted] = groups.try_emplace(norm);
      GroupEntry& entry = it->second;
      if (inserted) {
        entry.key.reserve(nkeys);
        for (const ColumnVector& k : keys) entry.key.push_back(k.GetValue(i));
        entry.states.resize(naggs);
      }
      for (size_t a = 0; a < naggs; ++a) {
        const AggKind kind = plan.aggregates[a]->agg_kind;
        if (kind == AggKind::kCountStar) {
          ++entry.states[a].count;
        } else {
          entry.states[a].Fold(kind, args[a], i);
        }
      }
    }
  });

  // Deterministic merge: partitions fold into the first map in range order,
  // so the merged map's contents (and its iteration order, which sets the
  // output row order) are a pure function of the input.
  GroupMap merged = std::move(partials[0]);
  for (size_t p = 1; p < partials.size(); ++p) {
    for (auto& [key, entry] : partials[p]) {
      auto [it, inserted] = merged.try_emplace(key);
      if (inserted) {
        it->second = std::move(entry);
        continue;
      }
      for (size_t a = 0; a < naggs; ++a) {
        it->second.states[a].Merge(entry.states[a]);
      }
    }
  }

  std::vector<std::vector<Value>> out_cols(nkeys + naggs);
  for (auto& col : out_cols) col.reserve(merged.size());
  for (auto& [key, entry] : merged) {
    for (size_t k = 0; k < nkeys; ++k) {
      out_cols[k].push_back(std::move(entry.key[k]));
    }
    for (size_t a = 0; a < naggs; ++a) {
      out_cols[nkeys + a].push_back(
          AggResult(plan.aggregates[a], entry.states[a]));
    }
  }
  Relation out;
  out.batch.num_rows = merged.size();
  for (auto& col : out_cols) {
    out.batch.columns.push_back(
        {std::make_shared<const ColumnVector>(
             ColumnVector::FromValues(std::move(col))),
         nullptr});
  }
  trace->agg_output_rows += static_cast<double>(out.batch.num_rows);
  return out;
}

// ---------------------------------------------------------------------------
// Sort / Top-N
// ---------------------------------------------------------------------------

constexpr size_t kFullSort = std::numeric_limits<size_t>::max();

/// The row order of `batch` under `sort_keys`: a stable sort of the whole
/// input (`limit` = kFullSort), or — for Top-N — the first `limit` rows of a
/// partial sort. The comparator and algorithms are those of sorting the
/// rows themselves, so ties land exactly where they would.
RowIds SortOrder(const ColumnBatch& batch,
                 const std::vector<std::pair<int, bool>>& sort_keys,
                 size_t limit) {
  std::vector<ColumnVector> keys;
  keys.reserve(sort_keys.size());
  for (const auto& [idx, desc] : sort_keys) {
    keys.push_back(GatherAll(batch, static_cast<size_t>(idx)));
  }
  RowIds order(batch.num_rows);
  std::iota(order.begin(), order.end(), 0u);
  auto less = [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const int c = keys[k].CompareLanes(a, keys[k], b);
      if (c != 0) return sort_keys[k].second ? c > 0 : c < 0;
    }
    return false;
  };
  if (limit == kFullSort) {
    std::stable_sort(order.begin(), order.end(), less);
  } else {
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(limit),
                      order.end(), less);
    order.resize(limit);
  }
  return order;
}

Result<Relation> ExecNode(const PlanNode& plan, ExecContext* ctx);

/// The unprofiled operator body; ExecNode wraps it with the per-operator
/// profiling hook. Child recursion goes back through ExecNode so every node
/// gets its own record.
Result<Relation> ExecNodeBody(const PlanNode& plan, ExecContext* ctx) {
  ComputeTrace* trace = ctx->trace();
  const int workers = ctx->exec_threads();
  switch (plan.kind) {
    case PlanKind::kScan: {
      if (plan.is_foreign) {
        XDB_ASSIGN_OR_RETURN(
            TablePtr t,
            ctx->ForeignFetch(plan.foreign_server, plan.remote_relation,
                              plan.est_rows,
                              plan.est_rows >= 0
                                  ? plan.est_rows * plan.est_width
                                  : -1));
        trace->foreign_rows += static_cast<double>(t->num_rows());
        return FromTable(std::move(t));
      }
      XDB_ASSIGN_OR_RETURN(TablePtr t, ctx->GetLocalTable(plan.table));
      trace->scan_rows += static_cast<double>(t->num_rows());
      return FromTable(std::move(t));
    }
    case PlanKind::kFilter: {
      XDB_ASSIGN_OR_RETURN(Relation in, ExecNode(*plan.children[0], ctx));
      const size_t n = in.batch.num_rows;
      trace->filter_input_rows += static_cast<double>(n);
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(n);
        s->batches = MorselCount(n, kMorselRows);
      }
      // A selection vector, not a copy: the surviving rows become new row
      // ids over the same columns.
      RowIds keep = SelectRows(*plan.predicate, in.batch, workers);
      if (keep.size() == n) return Relation{std::move(in.batch), nullptr};
      return Relation{Pick(in.batch, std::move(keep)), nullptr};
    }
    case PlanKind::kProject: {
      XDB_ASSIGN_OR_RETURN(Relation in, ExecNode(*plan.children[0], ctx));
      const size_t n = in.batch.num_rows;
      trace->project_rows += static_cast<double>(n);
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(n);
        s->batches = MorselCount(n, kMorselRows);
      }
      // Column references re-point at the input's slices; computed
      // expressions keep the evaluator's typed result.
      Relation out;
      out.batch.num_rows = n;
      for (const ExprPtr& e : plan.exprs) {
        if (e->kind == ExprKind::kColumnRef) {
          out.batch.columns.push_back(
              in.batch.columns[static_cast<size_t>(e->column_index)]);
          continue;
        }
        out.batch.columns.push_back(
            {std::make_shared<const ColumnVector>(
                 EvalColumn(*e, in.batch, workers)),
             nullptr});
      }
      return out;
    }
    case PlanKind::kJoin: {
      XDB_ASSIGN_OR_RETURN(Relation l, ExecNode(*plan.children[0], ctx));
      XDB_ASSIGN_OR_RETURN(Relation r, ExecNode(*plan.children[1], ctx));
      return ExecJoin(plan, ctx, l.batch, r.batch);
    }
    case PlanKind::kAggregate: {
      XDB_ASSIGN_OR_RETURN(Relation in, ExecNode(*plan.children[0], ctx));
      return ExecAggregate(plan, ctx, in.batch);
    }
    case PlanKind::kSort: {
      XDB_ASSIGN_OR_RETURN(Relation in, ExecNode(*plan.children[0], ctx));
      const size_t n = in.batch.num_rows;
      trace->sort_rows += static_cast<double>(n);
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(n);
        s->batches = 1;
      }
      return Relation{
          Pick(in.batch, SortOrder(in.batch, plan.sort_keys, kFullSort)),
          nullptr};
    }
    case PlanKind::kLimit: {
      // Top-N fusion: LIMIT directly over a Sort keeps only the N best
      // rows with a bounded partial sort instead of ordering everything —
      // the pattern TPC-H Q3/Q10 ("ORDER BY revenue DESC LIMIT k") hits.
      const PlanNode& child = *plan.children[0];
      if (child.kind == PlanKind::kSort && plan.limit >= 0) {
        XDB_ASSIGN_OR_RETURN(Relation in, ExecNode(*child.children[0], ctx));
        const size_t n = in.batch.num_rows;
        trace->sort_rows += static_cast<double>(n);
        if (OperatorStats* s = ProfCurrent(ctx)) {
          s->input_rows = static_cast<double>(n);
          s->batches = 1;
        }
        const size_t limit =
            std::min<size_t>(static_cast<size_t>(plan.limit), n);
        return Relation{
            Pick(in.batch, SortOrder(in.batch, child.sort_keys, limit)),
            nullptr};
      }
      XDB_ASSIGN_OR_RETURN(Relation in, ExecNode(child, ctx));
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(in.batch.num_rows);
        s->batches = 1;
      }
      // The first n rows: every slice already maps them.
      in.batch.num_rows = std::min<size_t>(static_cast<size_t>(plan.limit),
                                           in.batch.num_rows);
      return Relation{std::move(in.batch), nullptr};
    }
    case PlanKind::kPlaceholder:
      return Status::Internal(
          "placeholder node reached the executor; delegation should have "
          "replaced it with a foreign table reference");
  }
  return Status::Internal("unknown plan node kind");
}

Result<Relation> ExecNode(const PlanNode& plan, ExecContext* ctx) {
  OperatorProfiler* prof = ctx->profiler();
  if (prof == nullptr) return ExecNodeBody(plan, ctx);
  size_t idx = prof->Enter(plan);
  Result<Relation> result = ExecNodeBody(plan, ctx);
  OperatorStats& s = prof->stats(idx);
  s.threads = ctx->exec_threads();
  if (result.ok()) {
    s.output_rows = static_cast<double>(result->batch.num_rows);
  }
  prof->Exit(idx);
  return result;
}

/// Builds the result table: slices that already are a whole column are
/// shared; the rest are gathered once each (slices over the same column and
/// row ids share one gather).
TablePtr Materialize(const ColumnBatch& batch, const Schema& schema) {
  Table::Columns cols;
  cols.reserve(batch.columns.size());
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    const ColumnSlice& s = batch.columns[c];
    if (s.ids == nullptr && s.data->size() == batch.num_rows) {
      cols.push_back(s.data);
      continue;
    }
    ColumnPtr gathered;
    for (size_t prev = 0; prev < c && gathered == nullptr; ++prev) {
      const ColumnSlice& p = batch.columns[prev];
      if (p.data == s.data && p.ids == s.ids) gathered = cols[prev];
    }
    if (gathered == nullptr) {
      gathered = std::make_shared<const ColumnVector>(GatherAll(batch, c));
    }
    cols.push_back(std::move(gathered));
  }
  return std::make_shared<Table>(schema, std::move(cols), batch.num_rows);
}

}  // namespace

Result<TablePtr> ExecutePlan(const PlanNode& plan, ExecContext* ctx) {
  XDB_ASSIGN_OR_RETURN(Relation rel, ExecNode(plan, ctx));
  if (rel.table != nullptr) return rel.table;
  return Materialize(rel.batch, plan.output_schema);
}

}  // namespace xdb
