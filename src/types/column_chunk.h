#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/types/column_vector.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace xdb {

/// \brief Physical encoding chosen for one column chunk.
enum class ColumnEncoding : uint8_t {
  kPlain,       // typed vector, one slot per lane
  kDictionary,  // string dictionary + per-lane codes
  kRle,         // run-length encoded int64 runs (null-free columns only)
  kFor,         // frame-of-reference: base value + narrow per-lane offsets
  kBoxed,       // vector<Value> fallback (mixed/unknown lane types)
};

const char* ColumnEncodingToString(ColumnEncoding e);

/// \brief One column of a table in columnar form.
///
/// Encode() picks the cheapest representation per column: strings get a
/// first-occurrence dictionary with narrow codes when that beats plain,
/// int64-class columns (bool/int64/date) get RLE when the run structure pays
/// for itself or frame-of-reference offsets when the value range fits a
/// narrow width (keys, dates, and years almost always do), everything whose
/// lanes do not all match the declared schema
/// type falls back to boxed Values (bit-identical trivially). Decoding via
/// GetValue() reconstructs the original Value exactly — type tag, NULL-ness
/// and double bit patterns included — which the Columnar* property tests
/// assert across randomized tables.
///
/// EncodedSize() is the modelled wire width of the chunk (what the columnar
/// wire format charges); DecodedSize() matches the row-format accounting
/// (sum of Value::SerializedSize). EncodedSize() <= DecodedSize() always:
/// dictionary/RLE are only chosen when smaller, plain equals the row width,
/// and the null bytemap never costs more than row-format NULL markers.
class ColumnChunk {
 public:
  /// Encodes column `col` of `rows` (declared schema type `declared`).
  static ColumnChunk Encode(const std::vector<Row>& rows, size_t col,
                            TypeId declared);
  /// Encodes the lanes of `column`; the same lanes as rows encode to the
  /// same chunk (one encoder serves both).
  static ColumnChunk Encode(const ColumnVector& column, TypeId declared);

  ColumnEncoding encoding() const { return encoding_; }
  TypeId type() const { return type_; }
  size_t size() const { return size_; }
  bool has_nulls() const { return !nulls_.empty(); }
  bool IsNull(size_t i) const { return !nulls_.empty() && nulls_[i] != 0; }

  /// Reconstructs lane `i` as the exact original Value.
  Value GetValue(size_t i) const;

  size_t EncodedSize() const { return encoded_size_; }
  size_t DecodedSize() const { return decoded_size_; }

  // Typed payload access for the vectorized kernels. Valid per encoding().
  const std::vector<int64_t>& i64_data() const { return i64_; }
  const std::vector<double>& f64_data() const { return f64_; }
  const std::vector<std::string>& str_data() const { return strs_; }
  const std::vector<std::string>& dict() const { return dict_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  const std::vector<int64_t>& run_values() const { return run_values_; }
  const std::vector<uint32_t>& run_starts() const { return run_starts_; }
  int64_t for_ref() const { return for_ref_; }
  const std::vector<uint8_t>& null_bytemap() const { return nulls_; }
  const std::vector<Value>& boxed() const { return boxed_; }

 private:
  template <typename Lanes>
  static ColumnChunk EncodeLanes(const Lanes& lanes, TypeId declared);

  ColumnEncoding encoding_ = ColumnEncoding::kBoxed;
  TypeId type_ = TypeId::kInt64;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;  // 1 = NULL; empty when the column has none
  std::vector<int64_t> i64_;    // kPlain bool/int64/date payload
  std::vector<double> f64_;     // kPlain double payload
  std::vector<std::string> strs_;  // kPlain string payload
  std::vector<std::string> dict_;  // kDictionary: first-occurrence order
  std::vector<uint32_t> codes_;    // kDictionary: per-lane dict index;
                                   // kFor: per-lane offset from for_ref_
  int64_t for_ref_ = 0;            // kFor: base (minimum non-null) value
  std::vector<int64_t> run_values_;   // kRle: value of each run
  std::vector<uint32_t> run_starts_;  // kRle: first lane of each run (asc)
  std::vector<Value> boxed_;          // kBoxed fallback
  size_t encoded_size_ = 0;
  size_t decoded_size_ = 0;
};

/// \brief Columnar mirror of a Table: one ColumnChunk per schema field.
class ChunkedTable {
 public:
  /// Encodes `rows` under `schema`. Returns nullptr if any row's width does
  /// not match the schema (defensive: such tables stay on the row path).
  static std::shared_ptr<const ChunkedTable> FromRows(
      const Schema& schema, const std::vector<Row>& rows);
  /// Encodes a column-backed table (one `num_rows`-lane vector per schema
  /// field). Returns nullptr when the column count does not match the
  /// schema.
  static std::shared_ptr<const ChunkedTable> FromColumns(
      const Schema& schema, const std::vector<ColumnPtr>& columns,
      size_t num_rows);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnChunk& column(size_t c) const { return columns_[c]; }

  /// Modelled wire width of the encoded table (sum over columns).
  size_t EncodedSize() const;
  /// Row-format width (matches Table::SerializedSize on the same rows).
  size_t DecodedSize() const;

 private:
  size_t num_rows_ = 0;
  std::vector<ColumnChunk> columns_;
};

}  // namespace xdb
