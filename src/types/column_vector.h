#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/types/value.h"

namespace xdb {

class ColumnChunk;

using Row = std::vector<Value>;

/// \brief One typed column of lanes — the representation intermediate
/// results take between executor operators, the result of the batch
/// expression evaluator, and the storage of column-backed Tables.
///
/// Lanes of the int64-payload type class (bool/int64/date) live unboxed in
/// `i64`, doubles in `f64`, strings in `str`, and dictionary-coded strings
/// stay in code space (`codes` into a `dict` shared with the base table's
/// ColumnChunk). `nulls` is a bytemap sized to the lanes for every repr but
/// kBoxed. Lanes whose types mix (or deviate from one another) fall back to
/// boxed Values. `type` is the type tag of non-NULL lanes and `null_type`
/// the tag a NULL lane carries — kept separately because the scalar
/// evaluator types NULLs by operator, not by operand (arithmetic yields
/// Null(kDouble) even over int64 inputs), and bit-identity with the row form
/// includes the NULL's type tag.
///
/// GetValue(i) reconstructs lane i exactly (type tag, NULL-ness and double
/// bit pattern); every other lane accessor agrees with the same operation on
/// GetValue(i) (Compare, Hash, SerializedSize, AppendNormalizedKey).
struct ColumnVector {
  enum class Repr : uint8_t { kI64, kF64, kStr, kDict, kBoxed };

  Repr repr = Repr::kBoxed;
  TypeId type = TypeId::kInt64;
  TypeId null_type = TypeId::kInt64;
  bool uniform = false;  // all lanes hold the same value (literal splat)
  std::vector<uint8_t> nulls;  // 1 = NULL; sized to lanes except kBoxed
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;
  std::shared_ptr<const std::vector<std::string>> dict;  // kDict
  std::vector<uint32_t> codes;                           // kDict
  std::vector<Value> boxed;

  size_t size() const {
    return repr == Repr::kBoxed ? boxed.size() : nulls.size();
  }
  bool IsNull(size_t i) const {
    return repr == Repr::kBoxed ? boxed[i].is_null() : nulls[i] != 0;
  }
  bool IsString() const {
    return repr == Repr::kStr || repr == Repr::kDict;
  }
  /// String payload of a kStr/kDict lane.
  const std::string& StrAt(size_t i) const {
    return repr == Repr::kStr ? str[i] : (*dict)[codes[i]];
  }

  /// Reconstructs lane `i` as the exact Value it stands for.
  Value GetValue(size_t i) const;
  /// The type tag GetValue(i) carries.
  TypeId LaneType(size_t i) const;
  /// GetValue(i).SerializedSize().
  size_t LaneSerializedSize(size_t i) const;
  /// Sum of LaneSerializedSize over all lanes (row-format width).
  size_t SerializedSize() const;
  /// GetValue(i).Hash(); only meaningful for non-NULL lanes.
  size_t LaneHash(size_t i) const;
  /// GetValue(i).AppendNormalizedKey(out).
  void AppendNormalizedKey(size_t i, std::string* out) const;
  /// GetValue(i).Compare(other.GetValue(j)), without boxing typed lanes.
  int CompareLanes(size_t i, const ColumnVector& other, size_t j) const;

  /// A new vector holding lanes `lanes[0..n)` of this one, same repr.
  ColumnVector Gather(const uint32_t* lanes, size_t n) const;

  /// Appends `tail`'s lanes. Vectors of different repr or type tags
  /// combine as boxed Values, so the lanes stay exact either way.
  void Append(ColumnVector&& tail);

  /// Packs Values into the tightest exact repr: typed when every non-NULL
  /// lane shares one type and every NULL lane one tag, boxed otherwise.
  static ColumnVector FromValues(std::vector<Value> values);
  /// FromValues over column `col` of rows `lanes[0..n)`.
  static ColumnVector FromRows(const std::vector<Row>& rows,
                               size_t col, const uint32_t* lanes, size_t n);

  /// Decodes lanes `lanes[0..n)` of a storage chunk. Dictionary chunks stay
  /// in code space, sharing the dictionary; `owner` keeps the chunk alive
  /// for as long as the returned vector references it.
  static ColumnVector FromChunk(const ColumnChunk& chunk,
                                const std::shared_ptr<const void>& owner,
                                const uint32_t* lanes, size_t n);
};

using ColumnPtr = std::shared_ptr<const ColumnVector>;

/// \brief One column of an executor intermediate: the lanes of `data` picked
/// by `ids` (row i reads lane (*ids)[i]; a null `ids` means lane i). Filters,
/// joins and sorts only produce new id vectors; values are gathered when an
/// operator reads the column (late materialization).
struct ColumnSlice {
  ColumnPtr data;
  std::shared_ptr<const std::vector<uint32_t>> ids;
};

/// \brief A columnar relation between operators: `num_rows` rows, one slice
/// per output column. Slices left empty are never read.
struct ColumnBatch {
  size_t num_rows = 0;
  std::vector<ColumnSlice> columns;
};

/// Gathers rows `rows[0..n)` of `slice` into a dense vector.
ColumnVector GatherSlice(const ColumnSlice& slice, const uint32_t* rows,
                         size_t n);

}  // namespace xdb
