#include "src/types/column_chunk.h"

#include <algorithm>
#include <unordered_map>

namespace xdb {

const char* ColumnEncodingToString(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain:
      return "plain";
    case ColumnEncoding::kDictionary:
      return "dict";
    case ColumnEncoding::kRle:
      return "rle";
    case ColumnEncoding::kFor:
      return "for";
    case ColumnEncoding::kBoxed:
      return "boxed";
  }
  return "unknown";
}

namespace {

// Modelled wire cost of the null marks: a bytemap, but never more than the
// row format's one-byte-per-NULL markers (a sparse null list is cheaper than
// a bitmap when NULLs are very rare), so EncodedSize <= DecodedSize holds.
size_t NullOverhead(size_t n, size_t null_count) {
  if (null_count == 0) return 0;
  return std::min((n + 7) / 8, null_count);
}

size_t PlainLaneWidth(TypeId t) { return t == TypeId::kBool ? 1 : 8; }

size_t DictCodeWidth(size_t dict_size) {
  if (dict_size <= 256) return 1;
  if (dict_size <= 65536) return 2;
  return 4;
}

// Narrowest offset width covering an unsigned range; 0 = range too wide for
// frame-of-reference to pay (an 8-byte offset is just plain again).
size_t ForOffsetWidth(uint64_t range) {
  if (range < (1ull << 8)) return 1;
  if (range < (1ull << 16)) return 2;
  if (range < (1ull << 32)) return 4;
  return 0;
}

// Lane views the encoder reads. Both present a column's lanes exactly as
// the Values they stand for, so a table encodes identically whether its
// data arrives as rows or as column vectors.
struct RowLanes {
  const std::vector<Row>& rows;
  size_t col;

  size_t size() const { return rows.size(); }
  const Value& value(size_t i) const { return rows[i][col]; }
  bool null(size_t i) const { return value(i).is_null(); }
  TypeId type(size_t i) const { return value(i).type(); }
  size_t width(size_t i) const { return value(i).SerializedSize(); }
  int64_t i64(size_t i) const { return value(i).int64_value(); }
  double f64(size_t i) const { return value(i).double_value(); }
  const std::string& str(size_t i) const { return value(i).string_value(); }
};

struct VectorLanes {
  const ColumnVector& v;

  size_t size() const { return v.size(); }
  Value value(size_t i) const { return v.GetValue(i); }
  bool null(size_t i) const { return v.IsNull(i); }
  TypeId type(size_t i) const { return v.LaneType(i); }
  size_t width(size_t i) const { return v.LaneSerializedSize(i); }
  // The typed accessors below are only read on non-NULL lanes of a column
  // whose every lane carries the declared type.
  int64_t i64(size_t i) const {
    return v.repr == ColumnVector::Repr::kBoxed ? v.boxed[i].int64_value()
                                                : v.i64[i];
  }
  double f64(size_t i) const {
    return v.repr == ColumnVector::Repr::kBoxed ? v.boxed[i].double_value()
                                                : v.f64[i];
  }
  const std::string& str(size_t i) const {
    return v.repr == ColumnVector::Repr::kBoxed ? v.boxed[i].string_value()
                                                : v.StrAt(i);
  }
};

}  // namespace

ColumnChunk ColumnChunk::Encode(const std::vector<Row>& rows, size_t col,
                                TypeId declared) {
  return EncodeLanes(RowLanes{rows, col}, declared);
}

ColumnChunk ColumnChunk::Encode(const ColumnVector& column, TypeId declared) {
  return EncodeLanes(VectorLanes{column}, declared);
}

template <typename Lanes>
ColumnChunk ColumnChunk::EncodeLanes(const Lanes& lanes, TypeId declared) {
  ColumnChunk c;
  c.type_ = declared;
  const size_t n = lanes.size();
  c.size_ = n;

  size_t null_count = 0;
  bool uniform = true;
  for (size_t i = 0; i < n; ++i) {
    c.decoded_size_ += lanes.width(i);
    if (lanes.null(i)) ++null_count;
    // NULL lanes carry type tags too; a foreign tag forces the boxed
    // fallback so GetValue can reconstruct it exactly.
    if (lanes.type(i) != declared) uniform = false;
  }

  if (!uniform) {
    c.encoding_ = ColumnEncoding::kBoxed;
    c.boxed_.reserve(n);
    for (size_t i = 0; i < n; ++i) c.boxed_.push_back(lanes.value(i));
    if (null_count > 0) {
      c.nulls_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) c.nulls_[i] = lanes.null(i);
    }
    c.encoded_size_ = c.decoded_size_;  // boxed ships as rows
    return c;
  }

  if (null_count > 0) {
    c.nulls_.resize(n, 0);
    for (size_t i = 0; i < n; ++i) c.nulls_[i] = lanes.null(i);
  }
  const size_t non_null = n - null_count;
  const size_t null_bytes = NullOverhead(n, null_count);

  switch (declared) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate: {
      c.i64_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (!lanes.null(i)) c.i64_[i] = lanes.i64(i);
      }
      const size_t plain_bytes = PlainLaneWidth(declared) * non_null;
      size_t rle_bytes = plain_bytes;
      if (null_count == 0 && n > 0) {
        size_t runs = 1;
        for (size_t i = 1; i < n; ++i) runs += c.i64_[i] != c.i64_[i - 1];
        rle_bytes = runs * 12;  // 8B value + 4B length per run
      }
      // Frame of reference: keys, dates, and years span tiny ranges, so
      // narrow offsets from the column minimum beat full 8-byte lanes.
      // Bools are excluded (plain is already 1 byte per lane).
      size_t for_bytes = plain_bytes;
      size_t for_width = 0;
      int64_t for_min = 0;
      if (declared != TypeId::kBool && non_null > 0) {
        int64_t mn = 0;
        int64_t mx = 0;
        bool first = true;
        for (size_t i = 0; i < n; ++i) {
          if (c.IsNull(i)) continue;
          if (first || c.i64_[i] < mn) mn = c.i64_[i];
          if (first || c.i64_[i] > mx) mx = c.i64_[i];
          first = false;
        }
        const uint64_t range =
            static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
        for_width = ForOffsetWidth(range);
        if (for_width > 0) {
          for_min = mn;
          for_bytes = 8 + for_width * non_null + null_bytes;
        }
      }
      if (rle_bytes < plain_bytes && rle_bytes <= for_bytes) {
        c.encoding_ = ColumnEncoding::kRle;
        c.run_values_.reserve(rle_bytes / 12);
        c.run_starts_.reserve(rle_bytes / 12);
        for (size_t i = 0; i < n; ++i) {
          if (i == 0 || c.i64_[i] != c.i64_[i - 1]) {
            c.run_values_.push_back(c.i64_[i]);
            c.run_starts_.push_back(static_cast<uint32_t>(i));
          }
        }
        c.i64_.clear();
        c.i64_.shrink_to_fit();
        c.encoded_size_ = rle_bytes;
        return c;
      }
      if (for_width > 0 && for_bytes < plain_bytes + null_bytes) {
        c.encoding_ = ColumnEncoding::kFor;
        c.for_ref_ = for_min;
        c.codes_.resize(n, 0);
        for (size_t i = 0; i < n; ++i) {
          if (c.IsNull(i)) continue;
          c.codes_[i] = static_cast<uint32_t>(
              static_cast<uint64_t>(c.i64_[i]) -
              static_cast<uint64_t>(for_min));
        }
        c.i64_.clear();
        c.i64_.shrink_to_fit();
        c.encoded_size_ = for_bytes;
        return c;
      }
      c.encoding_ = ColumnEncoding::kPlain;
      c.encoded_size_ = plain_bytes + null_bytes;
      return c;
    }
    case TypeId::kDouble: {
      c.encoding_ = ColumnEncoding::kPlain;
      c.f64_.resize(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        if (!lanes.null(i)) c.f64_[i] = lanes.f64(i);
      }
      c.encoded_size_ = 8 * non_null + null_bytes;
      return c;
    }
    case TypeId::kString: {
      size_t plain_bytes = 0;
      std::unordered_map<std::string, uint32_t> index;
      c.codes_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (lanes.null(i)) continue;
        const std::string& s = lanes.str(i);
        plain_bytes += 4 + s.size();
        auto [it, inserted] =
            index.emplace(s, static_cast<uint32_t>(c.dict_.size()));
        if (inserted) c.dict_.push_back(s);
        c.codes_[i] = it->second;
      }
      size_t dict_bytes = DictCodeWidth(c.dict_.size()) * non_null;
      for (const std::string& s : c.dict_) dict_bytes += 4 + s.size();
      if (dict_bytes < plain_bytes) {
        c.encoding_ = ColumnEncoding::kDictionary;
        c.encoded_size_ = dict_bytes + null_bytes;
        return c;
      }
      c.encoding_ = ColumnEncoding::kPlain;
      c.strs_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        if (!lanes.null(i)) c.strs_[i] = lanes.str(i);
      }
      c.dict_.clear();
      c.codes_.clear();
      c.codes_.shrink_to_fit();
      c.encoded_size_ = plain_bytes + null_bytes;
      return c;
    }
  }
  // Unreachable; keep the boxed default if a new TypeId ever appears.
  c.encoding_ = ColumnEncoding::kBoxed;
  c.boxed_.reserve(n);
  for (size_t i = 0; i < n; ++i) c.boxed_.push_back(lanes.value(i));
  c.encoded_size_ = c.decoded_size_;
  return c;
}

namespace {

size_t RunIndexFor(const std::vector<uint32_t>& starts, size_t i) {
  auto it = std::upper_bound(starts.begin(), starts.end(),
                             static_cast<uint32_t>(i));
  return static_cast<size_t>(it - starts.begin()) - 1;
}

}  // namespace

Value ColumnChunk::GetValue(size_t i) const {
  if (encoding_ == ColumnEncoding::kBoxed) return boxed_[i];
  if (IsNull(i)) return Value::Null(type_);
  switch (encoding_) {
    case ColumnEncoding::kPlain:
      switch (type_) {
        case TypeId::kBool:
          return Value::Bool(i64_[i] != 0);
        case TypeId::kInt64:
          return Value::Int64(i64_[i]);
        case TypeId::kDate:
          return Value::Date(i64_[i]);
        case TypeId::kDouble:
          return Value::Double(f64_[i]);
        case TypeId::kString:
          return Value::String(strs_[i]);
      }
      break;
    case ColumnEncoding::kDictionary:
      return Value::String(dict_[codes_[i]]);
    case ColumnEncoding::kRle: {
      int64_t v = run_values_[RunIndexFor(run_starts_, i)];
      switch (type_) {
        case TypeId::kBool:
          return Value::Bool(v != 0);
        case TypeId::kDate:
          return Value::Date(v);
        default:
          return Value::Int64(v);
      }
    }
    case ColumnEncoding::kFor: {
      const int64_t v = static_cast<int64_t>(
          static_cast<uint64_t>(for_ref_) + codes_[i]);
      return type_ == TypeId::kDate ? Value::Date(v) : Value::Int64(v);
    }
    case ColumnEncoding::kBoxed:
      break;
  }
  return Value::Null(type_);
}

std::shared_ptr<const ChunkedTable> ChunkedTable::FromRows(
    const Schema& schema, const std::vector<Row>& rows) {
  const size_t width = schema.num_fields();
  for (const Row& r : rows) {
    if (r.size() != width) return nullptr;
  }
  auto t = std::make_shared<ChunkedTable>();
  t->num_rows_ = rows.size();
  t->columns_.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    t->columns_.push_back(ColumnChunk::Encode(rows, c, schema.field(c).type));
  }
  return t;
}

std::shared_ptr<const ChunkedTable> ChunkedTable::FromColumns(
    const Schema& schema, const std::vector<ColumnPtr>& columns,
    size_t num_rows) {
  const size_t width = schema.num_fields();
  if (columns.size() != width) return nullptr;
  auto t = std::make_shared<ChunkedTable>();
  t->num_rows_ = num_rows;
  t->columns_.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    t->columns_.push_back(
        ColumnChunk::Encode(*columns[c], schema.field(c).type));
  }
  return t;
}

size_t ChunkedTable::EncodedSize() const {
  size_t total = 0;
  for (const ColumnChunk& c : columns_) total += c.EncodedSize();
  return total;
}

size_t ChunkedTable::DecodedSize() const {
  size_t total = 0;
  for (const ColumnChunk& c : columns_) total += c.DecodedSize();
  return total;
}

}  // namespace xdb
