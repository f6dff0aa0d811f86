#pragma once

#include <cstdint>
#include <string>

#include "src/common/result.h"

namespace xdb {

/// \brief Physical type of a Value / column.
enum class TypeId : uint8_t {
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,  // stored as days since 1970-01-01 in an int64 payload
};

/// \brief Stable lowercase name of a type ("int64", "date", ...).
const char* TypeIdToString(TypeId t);

/// \brief Converts a calendar date to days since the Unix epoch.
///
/// Valid for years 1..9999 (proleptic Gregorian), which covers TPC-H's
/// 1992-1998 date range with room to spare.
int64_t DaysFromCivil(int year, int month, int day);

/// \brief Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int* year, int* month, int* day);

/// \brief Parses "YYYY-MM-DD" into days since epoch.
Result<int64_t> ParseDate(const std::string& s);

/// \brief Formats days since epoch as "YYYY-MM-DD".
std::string FormatDate(int64_t days);

/// Normalized-key encoding primitives shared by Value::AppendNormalizedKey
/// and ColumnVector::AppendNormalizedKey, so keys read from typed columns
/// are byte-identical to keys of the boxed values by construction.
void AppendNormalizedNullKey(std::string* out);
void AppendNormalizedStringKey(const std::string& s, std::string* out);
void AppendNormalizedInt64Key(int64_t i, std::string* out);
void AppendNormalizedDoubleKey(double d, std::string* out);

/// \brief A single, nullable SQL value.
///
/// Values are small (int64/double inline, string out-of-line) and carry their
/// type tag. NULL values still have a type. Comparison follows SQL semantics
/// except that NULLs order first (used by ORDER BY and group keys; expression
/// evaluation handles three-valued logic separately).
class Value {
 public:
  /// Constructs a typed NULL.
  static Value Null(TypeId t) {
    Value v;
    v.type_ = t;
    v.is_null_ = true;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.i64_ = b ? 1 : 0;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.i64_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.f64_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = TypeId::kString;
    v.str_ = std::move(s);
    return v;
  }
  static Value Date(int64_t days) {
    Value v;
    v.type_ = TypeId::kDate;
    v.i64_ = days;
    return v;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  bool bool_value() const { return i64_ != 0; }
  int64_t int64_value() const { return i64_; }
  double double_value() const { return f64_; }
  const std::string& string_value() const { return str_; }
  int64_t date_value() const { return i64_; }

  /// Numeric view: int64 and date widen to double; bool to 0/1.
  double AsDouble() const;

  /// Total order: NULL < non-NULL; cross-numeric compares as double.
  /// Comparing string to numeric is an ordering by type id (deterministic).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Approximate serialized width in bytes, used for transfer accounting.
  size_t SerializedSize() const;

  /// Hash combining type class and payload; equal values hash equally.
  size_t Hash() const;

  /// Appends a normalized-key encoding of this value to `out`: byte strings
  /// that are equal exactly when the values are equal under Compare()
  /// (including NULL == NULL and cross-numeric equality like 1 == 1.0), and
  /// unambiguous under concatenation, so a multi-column join/group key can be
  /// serialized once into a flat std::string and hashed/compared as raw
  /// bytes instead of re-hashing a vector<Value> per probe.
  void AppendNormalizedKey(std::string* out) const;

  /// SQL-literal rendering: strings quoted, dates as DATE '...', NULL as NULL.
  std::string ToSqlLiteral() const;

  /// Display rendering (no quotes), used for result printing.
  std::string ToString() const;

 private:
  TypeId type_ = TypeId::kInt64;
  bool is_null_ = false;
  int64_t i64_ = 0;
  double f64_ = 0.0;
  std::string str_;
};

}  // namespace xdb
