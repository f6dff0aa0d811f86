#include "src/types/column_vector.h"

#include <algorithm>
#include <functional>

#include "src/types/column_chunk.h"

namespace xdb {

namespace {

bool IsI64Class(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt64 || t == TypeId::kDate;
}

int Sign3(int c) { return c < 0 ? -1 : (c == 0 ? 0 : 1); }

}  // namespace

Value ColumnVector::GetValue(size_t i) const {
  if (repr == Repr::kBoxed) return boxed[i];
  if (nulls[i]) return Value::Null(null_type);
  switch (repr) {
    case Repr::kF64:
      return Value::Double(f64[i]);
    case Repr::kStr:
      return Value::String(str[i]);
    case Repr::kDict:
      return Value::String((*dict)[codes[i]]);
    default:
      break;
  }
  switch (type) {
    case TypeId::kBool: return Value::Bool(i64[i] != 0);
    case TypeId::kDate: return Value::Date(i64[i]);
    default: return Value::Int64(i64[i]);
  }
}

TypeId ColumnVector::LaneType(size_t i) const {
  if (repr == Repr::kBoxed) return boxed[i].type();
  return nulls[i] ? null_type : type;
}

size_t ColumnVector::LaneSerializedSize(size_t i) const {
  if (repr == Repr::kBoxed) return boxed[i].SerializedSize();
  if (nulls[i]) return 1;
  switch (repr) {
    case Repr::kI64:
      return type == TypeId::kBool ? 1 : 8;
    case Repr::kStr:
    case Repr::kDict:
      return 4 + StrAt(i).size();
    default:
      return 8;
  }
}

size_t ColumnVector::SerializedSize() const {
  const size_t n = size();
  size_t total = 0;
  switch (repr) {
    case Repr::kI64:
    case Repr::kF64: {
      const size_t width =
          repr == Repr::kI64 && type == TypeId::kBool ? 1 : 8;
      for (size_t i = 0; i < n; ++i) total += nulls[i] ? 1 : width;
      return total;
    }
    default:
      for (size_t i = 0; i < n; ++i) total += LaneSerializedSize(i);
      return total;
  }
}

size_t ColumnVector::LaneHash(size_t i) const {
  switch (repr) {
    case Repr::kI64:
      return std::hash<int64_t>()(i64[i]);
    case Repr::kF64: {
      double d = f64[i];
      if (d == 0.0) d = 0.0;  // -0.0 hashes like 0.0, as in Value::Hash
      return std::hash<double>()(d);
    }
    case Repr::kStr:
    case Repr::kDict:
      return std::hash<std::string>()(StrAt(i));
    case Repr::kBoxed:
      break;
  }
  return boxed[i].Hash();
}

void ColumnVector::AppendNormalizedKey(size_t i, std::string* out) const {
  if (repr == Repr::kBoxed) {
    boxed[i].AppendNormalizedKey(out);
    return;
  }
  if (nulls[i]) {
    AppendNormalizedNullKey(out);
    return;
  }
  switch (repr) {
    case Repr::kI64:
      AppendNormalizedInt64Key(i64[i], out);
      return;
    case Repr::kF64:
      AppendNormalizedDoubleKey(f64[i], out);
      return;
    default:
      AppendNormalizedStringKey(StrAt(i), out);
      return;
  }
}

int ColumnVector::CompareLanes(size_t i, const ColumnVector& o,
                               size_t j) const {
  const bool a_null = IsNull(i);
  const bool b_null = o.IsNull(j);
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;
  }
  // Typed fast paths mirror Value::Compare: two int64-class lanes compare
  // as int64, any double side widens both to double, strings compare
  // bytewise.
  if (repr == Repr::kI64 && o.repr == Repr::kI64) {
    const int64_t a = i64[i], b = o.i64[j];
    return a < b ? -1 : (a == b ? 0 : 1);
  }
  if ((repr == Repr::kI64 || repr == Repr::kF64) &&
      (o.repr == Repr::kI64 || o.repr == Repr::kF64)) {
    const double a =
        repr == Repr::kF64 ? f64[i] : static_cast<double>(i64[i]);
    const double b =
        o.repr == Repr::kF64 ? o.f64[j] : static_cast<double>(o.i64[j]);
    return a < b ? -1 : (a == b ? 0 : 1);
  }
  if (IsString() && o.IsString()) return Sign3(StrAt(i).compare(o.StrAt(j)));
  return GetValue(i).Compare(o.GetValue(j));
}

ColumnVector ColumnVector::Gather(const uint32_t* lanes, size_t n) const {
  ColumnVector out;
  out.repr = repr;
  out.type = type;
  out.null_type = null_type;
  out.uniform = uniform;
  if (repr == Repr::kBoxed) {
    out.boxed.reserve(n);
    for (size_t i = 0; i < n; ++i) out.boxed.push_back(boxed[lanes[i]]);
    return out;
  }
  out.nulls.resize(n);
  for (size_t i = 0; i < n; ++i) out.nulls[i] = nulls[lanes[i]];
  switch (repr) {
    case Repr::kI64:
      out.i64.resize(n);
      for (size_t i = 0; i < n; ++i) out.i64[i] = i64[lanes[i]];
      break;
    case Repr::kF64:
      out.f64.resize(n);
      for (size_t i = 0; i < n; ++i) out.f64[i] = f64[lanes[i]];
      break;
    case Repr::kStr:
      out.str.reserve(n);
      for (size_t i = 0; i < n; ++i) out.str.push_back(str[lanes[i]]);
      break;
    case Repr::kDict:
      out.dict = dict;
      out.codes.resize(n);
      for (size_t i = 0; i < n; ++i) out.codes[i] = codes[lanes[i]];
      break;
    case Repr::kBoxed:
      break;
  }
  return out;
}

void ColumnVector::Append(ColumnVector&& tail) {
  if (tail.size() == 0) return;
  if (size() == 0) {
    *this = std::move(tail);
    return;
  }
  uniform = false;
  const bool same = repr == tail.repr && type == tail.type &&
                    null_type == tail.null_type &&
                    (repr != Repr::kDict || dict == tail.dict);
  if (!same) {
    // Box both sides: the lanes keep their exact values and tags.
    if (repr != Repr::kBoxed) {
      std::vector<Value> values;
      values.reserve(size() + tail.size());
      for (size_t i = 0; i < size(); ++i) values.push_back(GetValue(i));
      *this = ColumnVector();
      boxed = std::move(values);
    }
    for (size_t i = 0; i < tail.size(); ++i) boxed.push_back(tail.GetValue(i));
    return;
  }
  if (repr == Repr::kBoxed) {
    for (Value& v : tail.boxed) boxed.push_back(std::move(v));
    return;
  }
  nulls.insert(nulls.end(), tail.nulls.begin(), tail.nulls.end());
  i64.insert(i64.end(), tail.i64.begin(), tail.i64.end());
  f64.insert(f64.end(), tail.f64.begin(), tail.f64.end());
  codes.insert(codes.end(), tail.codes.begin(), tail.codes.end());
  for (std::string& s : tail.str) str.push_back(std::move(s));
}

namespace {

/// Packs lanes `at(0..n)` into the tightest exact repr (see FromValues);
/// `boxed` yields them all as a Value vector for the mixed-type fallback.
template <typename At, typename Boxed>
ColumnVector PackLanes(size_t n, const At& at, const Boxed& boxed) {
  using Repr = ColumnVector::Repr;
  ColumnVector out;
  bool have_value = false, have_null = false, mixed = false;
  TypeId vt = TypeId::kInt64, nt = TypeId::kInt64;
  for (size_t i = 0; i < n && !mixed; ++i) {
    const Value& v = at(i);
    if (v.is_null()) {
      if (have_null && v.type() != nt) mixed = true;
      nt = v.type();
      have_null = true;
    } else {
      if (have_value && v.type() != vt) mixed = true;
      vt = v.type();
      have_value = true;
    }
  }
  if (n == 0 || mixed) {
    out.boxed = boxed();
    return out;
  }
  if (!have_value) vt = nt;
  if (!have_null) nt = vt;
  out.type = vt;
  out.null_type = nt;
  out.nulls.resize(n);
  for (size_t i = 0; i < n; ++i) out.nulls[i] = at(i).is_null() ? 1 : 0;
  if (IsI64Class(vt)) {
    out.repr = Repr::kI64;
    out.i64.resize(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (!out.nulls[i]) out.i64[i] = at(i).int64_value();
    }
  } else if (vt == TypeId::kDouble) {
    out.repr = Repr::kF64;
    out.f64.resize(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (!out.nulls[i]) out.f64[i] = at(i).double_value();
    }
  } else {
    out.repr = Repr::kStr;
    out.str.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (!out.nulls[i]) out.str[i] = at(i).string_value();
    }
  }
  return out;
}

}  // namespace

ColumnVector ColumnVector::FromValues(std::vector<Value> values) {
  return PackLanes(
      values.size(), [&](size_t i) -> const Value& { return values[i]; },
      [&] { return std::move(values); });
}

ColumnVector ColumnVector::FromRows(const std::vector<Row>& rows, size_t col,
                                    const uint32_t* lanes, size_t n) {
  auto at = [&](size_t i) -> const Value& { return rows[lanes[i]][col]; };
  return PackLanes(n, at, [&] {
    std::vector<Value> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) values.push_back(at(i));
    return values;
  });
}

ColumnVector ColumnVector::FromChunk(const ColumnChunk& chunk,
                                     const std::shared_ptr<const void>& owner,
                                     const uint32_t* lanes, size_t n) {
  ColumnVector out;
  const TypeId t = chunk.type();
  out.type = t;
  out.null_type = t;
  if (chunk.encoding() == ColumnEncoding::kBoxed) {
    out.boxed.reserve(n);
    for (size_t i = 0; i < n; ++i) out.boxed.push_back(chunk.boxed()[lanes[i]]);
    return out;
  }
  out.nulls.assign(n, 0);
  if (chunk.has_nulls()) {
    const std::vector<uint8_t>& cn = chunk.null_bytemap();
    for (size_t i = 0; i < n; ++i) out.nulls[i] = cn[lanes[i]];
  }
  switch (chunk.encoding()) {
    case ColumnEncoding::kPlain:
      if (t == TypeId::kDouble) {
        out.repr = Repr::kF64;
        out.f64.resize(n);
        for (size_t i = 0; i < n; ++i) out.f64[i] = chunk.f64_data()[lanes[i]];
      } else if (t == TypeId::kString) {
        out.repr = Repr::kStr;
        out.str.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          out.str.push_back(chunk.str_data()[lanes[i]]);
        }
      } else {
        out.repr = Repr::kI64;
        out.i64.resize(n);
        for (size_t i = 0; i < n; ++i) out.i64[i] = chunk.i64_data()[lanes[i]];
      }
      return out;
    case ColumnEncoding::kDictionary:
      out.repr = Repr::kDict;
      out.dict = std::shared_ptr<const std::vector<std::string>>(
          owner, &chunk.dict());
      out.codes.resize(n);
      for (size_t i = 0; i < n; ++i) out.codes[i] = chunk.codes()[lanes[i]];
      return out;
    case ColumnEncoding::kRle: {
      // Lanes usually ascend, so a forward cursor walks the runs; a lane
      // behind the cursor re-seeks by binary search.
      out.repr = Repr::kI64;
      out.i64.resize(n);
      const std::vector<uint32_t>& starts = chunk.run_starts();
      const std::vector<int64_t>& vals = chunk.run_values();
      size_t run = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t lane = lanes[i];
        if (run < starts.size() && starts[run] > lane) {
          run = static_cast<size_t>(
                    std::upper_bound(starts.begin(), starts.end(), lane) -
                    starts.begin()) -
                1;
        }
        while (run + 1 < starts.size() && starts[run + 1] <= lane) ++run;
        out.i64[i] = vals[run];
      }
      return out;
    }
    case ColumnEncoding::kFor: {
      out.repr = Repr::kI64;
      out.i64.resize(n);
      const std::vector<uint32_t>& offsets = chunk.codes();
      const uint64_t ref = static_cast<uint64_t>(chunk.for_ref());
      for (size_t i = 0; i < n; ++i) {
        // NULL lanes decode to ref + 0; their payload is never read.
        out.i64[i] = static_cast<int64_t>(ref + offsets[lanes[i]]);
      }
      return out;
    }
    case ColumnEncoding::kBoxed:
      break;
  }
  return out;
}

ColumnVector GatherSlice(const ColumnSlice& slice, const uint32_t* rows,
                         size_t n) {
  if (!slice.ids) return slice.data->Gather(rows, n);
  std::vector<uint32_t> lanes(n);
  const std::vector<uint32_t>& ids = *slice.ids;
  for (size_t i = 0; i < n; ++i) lanes[i] = ids[rows[i]];
  return slice.data->Gather(lanes.data(), n);
}

}  // namespace xdb
