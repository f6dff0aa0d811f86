#include "src/types/value.h"

#include <cstdio>
#include <cstring>
#include <functional>

namespace xdb {

const char* TypeIdToString(TypeId t) {
  switch (t) {
    case TypeId::kBool:
      return "bool";
    case TypeId::kInt64:
      return "int64";
    case TypeId::kDouble:
      return "double";
    case TypeId::kString:
      return "string";
    case TypeId::kDate:
      return "date";
  }
  return "unknown";
}

// Howard Hinnant's days-from-civil algorithm.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097LL + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* year, int* month, int* day) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  *year = static_cast<int>(y + (m <= 2));
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

Result<int64_t> ParseDate(const std::string& s) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) != 3 || m < 1 ||
      m > 12 || d < 1 || d > 31) {
    return Status::ParseError("invalid date literal: '" + s + "'");
  }
  return DaysFromCivil(y, m, d);
}

std::string FormatDate(int64_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  // Room for three full-width ints: CivilFromDays accepts any day count, so
  // the compiler cannot bound the year to four digits.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

double Value::AsDouble() const {
  switch (type_) {
    case TypeId::kDouble:
      return f64_;
    default:
      return static_cast<double>(i64_);
  }
}

namespace {
bool IsNumericType(TypeId t) { return t != TypeId::kString; }
}  // namespace

int Value::Compare(const Value& other) const {
  if (is_null_ || other.is_null_) {
    if (is_null_ && other.is_null_) return 0;
    return is_null_ ? -1 : 1;
  }
  if (type_ == TypeId::kString && other.type_ == TypeId::kString) {
    return str_.compare(other.str_) < 0 ? -1 : (str_ == other.str_ ? 0 : 1);
  }
  if (IsNumericType(type_) && IsNumericType(other.type_)) {
    // Avoid double rounding for same-repr integer comparisons.
    if (type_ != TypeId::kDouble && other.type_ != TypeId::kDouble) {
      return i64_ < other.i64_ ? -1 : (i64_ == other.i64_ ? 0 : 1);
    }
    double a = AsDouble(), b = other.AsDouble();
    return a < b ? -1 : (a == b ? 0 : 1);
  }
  // Mixed string/numeric: deterministic order by type tag.
  return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
}

size_t Value::SerializedSize() const {
  if (is_null_) return 1;
  switch (type_) {
    case TypeId::kBool:
      return 1;
    case TypeId::kInt64:
    case TypeId::kDouble:
    case TypeId::kDate:
      return 8;
    case TypeId::kString:
      return 4 + str_.size();
  }
  return 8;
}

size_t Value::Hash() const {
  if (is_null_) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case TypeId::kString:
      return std::hash<std::string>()(str_);
    case TypeId::kDouble: {
      double d = f64_;
      // Normalize -0.0 so it hashes like 0.0 (they compare equal).
      if (d == 0.0) d = 0.0;
      return std::hash<double>()(d);
    }
    default:
      return std::hash<int64_t>()(i64_);
  }
}

namespace {

void AppendFixed64(std::string* out, uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

}  // namespace

// Tag bytes keep different type classes (and NULL) from colliding; fixed or
// length-prefixed payloads keep concatenated keys unambiguous. These free
// functions are the single source of truth for the encoding — Value and
// ColumnVector both call them, so keys read from typed columns cannot drift
// from keys of the boxed values.

void AppendNormalizedNullKey(std::string* out) {
  out->push_back('\1');  // NULL, regardless of declared type (Compare: all
                         // NULLs are equal)
}

void AppendNormalizedStringKey(const std::string& s, std::string* out) {
  out->push_back('s');
  AppendFixed64(out, static_cast<uint64_t>(s.size()));
  out->append(s);
}

void AppendNormalizedInt64Key(int64_t i, std::string* out) {
  // One class for the int64-payload types: Compare treats bool, int64 and
  // date as the same numeric domain.
  out->push_back('i');
  AppendFixed64(out, static_cast<uint64_t>(i));
}

void AppendNormalizedDoubleKey(double d, std::string* out) {
  if (d == 0.0) d = 0.0;  // -0.0 compares equal to 0.0
  // Integral doubles encode as int64 so that 1.0 == 1 (Compare widens the
  // int side to double for mixed comparisons).
  int64_t i = static_cast<int64_t>(d);
  if (d >= -9007199254740992.0 && d <= 9007199254740992.0 &&
      static_cast<double>(i) == d) {
    AppendNormalizedInt64Key(i, out);
    return;
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  out->push_back('d');
  AppendFixed64(out, bits);
}

void Value::AppendNormalizedKey(std::string* out) const {
  if (is_null_) {
    AppendNormalizedNullKey(out);
    return;
  }
  switch (type_) {
    case TypeId::kString:
      AppendNormalizedStringKey(str_, out);
      return;
    case TypeId::kDouble:
      AppendNormalizedDoubleKey(f64_, out);
      return;
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      AppendNormalizedInt64Key(i64_, out);
      return;
  }
}

std::string Value::ToSqlLiteral() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case TypeId::kBool:
      return i64_ ? "TRUE" : "FALSE";
    case TypeId::kInt64:
      return std::to_string(i64_);
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.10g", f64_);
      return buf;
    }
    case TypeId::kString: {
      std::string out = "'";
      for (char c : str_) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
    case TypeId::kDate:
      return "DATE '" + FormatDate(i64_) + "'";
  }
  return "NULL";
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case TypeId::kBool:
      return i64_ ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(i64_);
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", f64_);
      return buf;
    }
    case TypeId::kString:
      return str_;
    case TypeId::kDate:
      return FormatDate(i64_);
  }
  return "NULL";
}

}  // namespace xdb
