#include "src/expr/vector_eval.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "src/common/str_util.h"

namespace xdb {

namespace {

// Short names for the kernels below; Vec is ColumnVector, not a second type.
using Vec = ColumnVector;
using Repr = ColumnVector::Repr;

/// Three-valued truth of a lane, matching `!v.is_null() && v.bool_value()`
/// plus the NULL case. Note Value::bool_value() reads the int64 payload, so a
/// double or string lane is never TRUE — the f64/string reprs mirror that
/// quirk exactly.
enum class Truth : uint8_t { kFalse, kTrue, kNull };

Truth LaneTruth(const Vec& v, size_t i) {
  if (v.IsNull(i)) return Truth::kNull;
  switch (v.repr) {
    case Repr::kI64: return v.i64[i] != 0 ? Truth::kTrue : Truth::kFalse;
    case Repr::kBoxed:
      return v.boxed[i].bool_value() ? Truth::kTrue : Truth::kFalse;
    default: return Truth::kFalse;
  }
}

bool IsI64Class(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt64 || t == TypeId::kDate;
}

Vec EvalVec(const Expr& expr, const ColumnBatch& b, const SelVector& sel);

/// Whole-subtree fallback: scalar-evaluates the node per selected row over
/// the columns it references. Any shape without a typed kernel lands here,
/// which makes batch coverage total.
Vec EvalVecScalarFallback(const Expr& expr, const ColumnBatch& b,
                          const SelVector& sel) {
  std::vector<int> refs;
  CollectColumnIndices(expr, &refs);
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  std::vector<Vec> cols;
  cols.reserve(refs.size());
  for (int c : refs) {
    cols.push_back(GatherSlice(b.columns[static_cast<size_t>(c)], sel.data(),
                               sel.size()));
  }
  // A scratch row holding just the referenced columns; the evaluator never
  // reads the others.
  Row row(refs.empty() ? 0 : static_cast<size_t>(refs.back()) + 1);
  std::vector<Value> values;
  values.reserve(sel.size());
  for (size_t i = 0; i < sel.size(); ++i) {
    for (size_t k = 0; k < refs.size(); ++k) {
      row[static_cast<size_t>(refs[k])] = cols[k].GetValue(i);
    }
    values.push_back(EvalExpr(expr, row));
  }
  return Vec::FromValues(std::move(values));
}

Vec GatherColumn(const Expr& expr, const ColumnBatch& b,
                 const SelVector& sel) {
  return GatherSlice(b.columns[static_cast<size_t>(expr.column_index)],
                     sel.data(), sel.size());
}

Vec SplatLiteral(const Value& lit, size_t n) {
  Vec out;
  out.uniform = true;
  if (!lit.is_null()) {
    out.type = out.null_type = lit.type();
    out.nulls.assign(n, 0);
    if (IsI64Class(lit.type())) {
      out.repr = Repr::kI64;
      out.i64.assign(n, lit.int64_value());
    } else if (lit.type() == TypeId::kDouble) {
      out.repr = Repr::kF64;
      out.f64.assign(n, lit.double_value());
    } else {
      out.repr = Repr::kStr;
      out.str.assign(n, lit.string_value());
    }
    return out;
  }
  out.repr = Repr::kBoxed;
  out.boxed.assign(n, lit);
  return out;
}

bool IsTypedNumeric(const Vec& v) {
  return v.repr == Repr::kI64 || v.repr == Repr::kF64;
}

double LaneAsDouble(const Vec& v, size_t i) {
  return v.repr == Repr::kF64 ? v.f64[i]
                                   : static_cast<double>(v.i64[i]);
}

/// Arithmetic over two evaluated operand vectors. Typed loops mirror
/// EvalBinaryValues' int/double promotion exactly; shapes the loops don't
/// cover (dates, strings, boxed/dict lanes) combine per lane through
/// EvalBinaryValues itself.
Vec EvalArithVec(BinaryOp op, const Vec& l, const Vec& r) {
  const size_t n = l.size();
  Vec out;
  out.null_type = TypeId::kDouble;  // arithmetic NULLs are typed double
  // Integer loop: both int64-class, no date (date +/- has its own result
  // type), and not division (always double).
  if (l.repr == Repr::kI64 && r.repr == Repr::kI64 &&
      l.type != TypeId::kDate && r.type != TypeId::kDate &&
      op != BinaryOp::kDiv) {
    out.repr = Repr::kI64;
    out.type = TypeId::kInt64;
    out.nulls.resize(n);
    out.i64.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (l.nulls[i] | r.nulls[i]) {
        out.nulls[i] = 1;
        out.i64[i] = 0;
        continue;
      }
      const int64_t a = l.i64[i], b = r.i64[i];
      out.i64[i] = op == BinaryOp::kAdd   ? a + b
                   : op == BinaryOp::kSub ? a - b
                                          : a * b;
    }
    return out;
  }
  // Double loop: either side double (dates allowed on the int side — scalar
  // widens them with AsDouble), or any op over two doubles, or division.
  if (IsTypedNumeric(l) && IsTypedNumeric(r) &&
      (l.repr == Repr::kF64 || r.repr == Repr::kF64 ||
       op == BinaryOp::kDiv)) {
    // kDiv over two int64-class lanes also lands here (scalar: div is always
    // double); date lanes widen via AsDouble the same way scalar does.
    out.repr = Repr::kF64;
    out.type = TypeId::kDouble;
    out.nulls.resize(n);
    out.f64.resize(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (l.nulls[i] | r.nulls[i]) {
        out.nulls[i] = 1;
        continue;
      }
      const double a = LaneAsDouble(l, i), b = LaneAsDouble(r, i);
      switch (op) {
        case BinaryOp::kAdd: out.f64[i] = a + b; break;
        case BinaryOp::kSub: out.f64[i] = a - b; break;
        case BinaryOp::kMul: out.f64[i] = a * b; break;
        default:
          if (b == 0.0) out.nulls[i] = 1;
          else out.f64[i] = a / b;
          break;
      }
    }
    return out;
  }
  out.repr = Repr::kBoxed;
  out.boxed.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.boxed.push_back(EvalBinaryValues(op, l.GetValue(i), r.GetValue(i)));
  }
  return out;
}

int CmpResult(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    default: return c >= 0;  // kGe
  }
}

/// Which three-way results (Value::Compare's -1 / 0 / 1, at index c + 1) a
/// comparison operator accepts.
struct Verdicts {
  uint8_t keep[3];
};

Verdicts VerdictsOf(BinaryOp op) {
  return {{static_cast<uint8_t>(CmpResult(op, -1)),
           static_cast<uint8_t>(CmpResult(op, 0)),
           static_cast<uint8_t>(CmpResult(op, 1))}};
}

/// One verdict per dictionary entry: Value::Compare of the entry against
/// `lit`, on the operand side each occupies.
std::vector<uint8_t> DictVerdicts(const Vec& v, const Value& lit, bool lit_left,
                                  const Verdicts& keep) {
  const std::vector<std::string>& dict = *v.dict;
  std::vector<uint8_t> out(dict.size());
  for (size_t k = 0; k < dict.size(); ++k) {
    const Value entry = Value::String(dict[k]);
    const int c = lit_left ? lit.Compare(entry) : entry.Compare(lit);
    out[k] = keep.keep[c + 1];
  }
  return out;
}

/// Comparison over two evaluated operand vectors. Value::Compare for two
/// non-double numerics is a raw int64 compare; when either side is double it
/// widens with AsDouble — both decisions are lane-uniform for typed vectors,
/// so the loop body is branch-free on type.
Vec EvalCompareVec(BinaryOp op, const Vec& l, const Vec& r) {
  const size_t n = l.size();
  Vec out;
  out.repr = Repr::kI64;
  out.type = TypeId::kBool;
  out.null_type = TypeId::kBool;
  out.nulls.resize(n);
  out.i64.resize(n, 0);
  if (l.repr == Repr::kI64 && r.repr == Repr::kI64) {
    for (size_t i = 0; i < n; ++i) {
      if (l.nulls[i] | r.nulls[i]) {
        out.nulls[i] = 1;
        continue;
      }
      const int64_t a = l.i64[i], b = r.i64[i];
      out.i64[i] = CmpResult(op, a < b ? -1 : (a == b ? 0 : 1));
    }
    return out;
  }
  if (IsTypedNumeric(l) && IsTypedNumeric(r)) {
    for (size_t i = 0; i < n; ++i) {
      if (l.nulls[i] | r.nulls[i]) {
        out.nulls[i] = 1;
        continue;
      }
      const double a = LaneAsDouble(l, i), b = LaneAsDouble(r, i);
      out.i64[i] = CmpResult(op, a < b ? -1 : (a == b ? 0 : 1));
    }
    return out;
  }
  // Dictionary-code kernel: comparing a dict column against a uniform
  // (literal) operand translates the literal into a per-dictionary-entry
  // verdict table once, then each lane is a code lookup — no string compare,
  // no Value materialization. Value::Compare's verdict depends only on the
  // entry and the literal, so the table is exact (including mixed-type
  // ordering when the literal is not a string).
  {
    const Vec* dv = nullptr;
    const Vec* lit = nullptr;
    bool dict_left = false;
    if (l.repr == Repr::kDict && r.uniform) {
      dv = &l; lit = &r; dict_left = true;
    } else if (r.repr == Repr::kDict && l.uniform) {
      dv = &r; lit = &l;
    }
    if (dv != nullptr && n > 0 && !lit->IsNull(0)) {
      const std::vector<uint8_t> match =
          DictVerdicts(*dv, lit->GetValue(0), !dict_left, VerdictsOf(op));
      for (size_t i = 0; i < n; ++i) {
        if (dv->nulls[i]) {
          out.nulls[i] = 1;
          continue;
        }
        out.i64[i] = match[dv->codes[i]];
      }
      return out;
    }
  }
  // Two string operands (columns or a literal): bytewise compare, the same
  // verdict Value::Compare gives two strings, without boxing either side.
  if (l.IsString() && r.IsString()) {
    for (size_t i = 0; i < n; ++i) {
      if (l.nulls[i] | r.nulls[i]) {
        out.nulls[i] = 1;
        continue;
      }
      const int c = l.StrAt(i).compare(r.StrAt(i));
      out.i64[i] = CmpResult(op, c < 0 ? -1 : (c == 0 ? 0 : 1));
    }
    return out;
  }
  // Boxed/mixed lanes: NULL-check + Value::Compare per lane, exactly the
  // scalar default branch, on the already-evaluated operands.
  for (size_t i = 0; i < n; ++i) {
    const Value lv = l.GetValue(i), rv = r.GetValue(i);
    if (lv.is_null() || rv.is_null()) {
      out.nulls[i] = 1;
      continue;
    }
    out.i64[i] = CmpResult(op, lv.Compare(rv));
  }
  return out;
}

/// AND/OR with short-circuit by selection intersection: the right child is
/// evaluated only on lanes the left child did not already decide (non-null
/// FALSE decides AND; non-null TRUE decides OR), then scattered back.
/// Lane-wise combination follows the scalar three-valued truth table.
Vec EvalAndOrVec(const Expr& expr, const ColumnBatch& b, const SelVector& sel) {
  const bool is_and = expr.binary_op == BinaryOp::kAnd;
  const size_t n = sel.size();
  Vec left = EvalVec(*expr.children[0], b, sel);

  SelVector sub_sel;
  std::vector<uint32_t> sub_pos;
  sub_sel.reserve(n);
  sub_pos.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Truth t = LaneTruth(left, i);
    const bool decided = is_and ? t == Truth::kFalse : t == Truth::kTrue;
    if (!decided) {
      sub_sel.push_back(sel[i]);
      sub_pos.push_back(static_cast<uint32_t>(i));
    }
  }

  Vec out;
  out.repr = Repr::kI64;
  out.type = TypeId::kBool;
  out.null_type = TypeId::kBool;
  out.nulls.assign(n, 0);
  // Decided lanes: AND -> FALSE (0), OR -> TRUE (1).
  out.i64.assign(n, is_and ? 0 : 1);

  if (!sub_sel.empty()) {
    Vec right = EvalVec(*expr.children[1], b, sub_sel);
    for (size_t s = 0; s < sub_sel.size(); ++s) {
      const size_t i = sub_pos[s];
      const Truth lt = LaneTruth(left, i);
      const Truth rt = LaneTruth(right, s);
      Truth res;
      if (is_and) {
        // left is TRUE or NULL here.
        if (rt == Truth::kFalse) res = Truth::kFalse;
        else if (lt == Truth::kNull || rt == Truth::kNull) res = Truth::kNull;
        else res = Truth::kTrue;
      } else {
        // left is FALSE or NULL here.
        if (rt == Truth::kTrue) res = Truth::kTrue;
        else if (lt == Truth::kNull || rt == Truth::kNull) res = Truth::kNull;
        else res = Truth::kFalse;
      }
      if (res == Truth::kNull) out.nulls[i] = 1, out.i64[i] = 0;
      else out.i64[i] = res == Truth::kTrue ? 1 : 0;
    }
  }
  return out;
}

Vec EvalUnaryVec(const Expr& expr, const ColumnBatch& b, const SelVector& sel) {
  Vec child = EvalVec(*expr.children[0], b, sel);
  const size_t n = child.size();
  Vec out;
  switch (expr.unary_op) {
    case UnaryOp::kIsNull:
    case UnaryOp::kIsNotNull: {
      const bool want_null = expr.unary_op == UnaryOp::kIsNull;
      out.repr = Repr::kI64;
      out.type = out.null_type = TypeId::kBool;
      out.nulls.assign(n, 0);
      out.i64.resize(n);
      for (size_t i = 0; i < n; ++i) {
        out.i64[i] = child.IsNull(i) == want_null ? 1 : 0;
      }
      return out;
    }
    case UnaryOp::kNot:
      if (child.repr == Repr::kI64 && child.type == TypeId::kBool) {
        out.repr = Repr::kI64;
        out.type = out.null_type = TypeId::kBool;
        out.nulls = child.nulls;
        out.i64.resize(n);
        for (size_t i = 0; i < n; ++i) {
          out.i64[i] = child.nulls[i] ? 0 : (child.i64[i] == 0 ? 1 : 0);
        }
        return out;
      }
      break;
    case UnaryOp::kNeg:
      if (child.repr == Repr::kI64) {
        out.repr = Repr::kI64;
        out.type = TypeId::kInt64;
        // Scalar kNeg returns a NULL operand unchanged, keeping its type.
        out.null_type = child.null_type;
        out.nulls = child.nulls;
        out.i64.resize(n);
        for (size_t i = 0; i < n; ++i) {
          out.i64[i] = child.nulls[i] ? 0 : -child.i64[i];
        }
        return out;
      }
      if (child.repr == Repr::kF64) {
        out.repr = Repr::kF64;
        out.type = TypeId::kDouble;
        out.null_type = child.null_type;
        out.nulls = child.nulls;
        out.f64.resize(n);
        for (size_t i = 0; i < n; ++i) {
          out.f64[i] = child.nulls[i] ? 0.0 : -child.f64[i];
        }
        return out;
      }
      break;
  }
  out.repr = Repr::kBoxed;
  out.boxed.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.boxed.push_back(EvalUnaryValue(expr.unary_op, child.GetValue(i)));
  }
  return out;
}

Vec EvalBetweenVec(const Expr& expr, const ColumnBatch& b,
                   const SelVector& sel) {
  Vec v = EvalVec(*expr.children[0], b, sel);
  Vec lo = EvalVec(*expr.children[1], b, sel);
  Vec hi = EvalVec(*expr.children[2], b, sel);
  const size_t n = v.size();
  Vec out;
  out.repr = Repr::kI64;
  out.type = out.null_type = TypeId::kBool;
  out.nulls.resize(n);
  out.i64.resize(n, 0);
  if (IsTypedNumeric(v) && IsTypedNumeric(lo) && IsTypedNumeric(hi)) {
    // Each bound pair picks int or double comparison exactly as
    // Value::Compare would, decided once per vector pair. Compare(v, lo) >= 0
    // is !(v < lo): a NaN on either side compares as greater.
    const bool lo_int =
        v.repr == Repr::kI64 && lo.repr == Repr::kI64;
    const bool hi_int =
        v.repr == Repr::kI64 && hi.repr == Repr::kI64;
    for (size_t i = 0; i < n; ++i) {
      if (v.nulls[i] | lo.nulls[i] | hi.nulls[i]) {
        out.nulls[i] = 1;
        continue;
      }
      const bool ge_lo = lo_int ? v.i64[i] >= lo.i64[i]
                                : !(LaneAsDouble(v, i) < LaneAsDouble(lo, i));
      const bool le_hi = hi_int ? v.i64[i] <= hi.i64[i]
                                : LaneAsDouble(v, i) <= LaneAsDouble(hi, i);
      out.i64[i] = ge_lo && le_hi ? 1 : 0;
    }
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    const Value vv = v.GetValue(i);
    const Value lv = lo.GetValue(i);
    const Value hv = hi.GetValue(i);
    if (vv.is_null() || lv.is_null() || hv.is_null()) {
      out.nulls[i] = 1;
      continue;
    }
    out.i64[i] = vv.Compare(lv) >= 0 && vv.Compare(hv) <= 0 ? 1 : 0;
  }
  return out;
}

/// LIKE against a literal pattern: per lane for plain strings, once per
/// entry for dictionary columns. Non-string lanes match as the empty string,
/// as Value::string_value() reads them in the scalar evaluator.
Vec EvalLikeVec(const Expr& expr, const ColumnBatch& b, const SelVector& sel) {
  const Expr& pattern = *expr.children[1];
  if (pattern.kind != ExprKind::kLiteral || pattern.literal.is_null()) {
    return EvalVecScalarFallback(expr, b, sel);
  }
  const std::string& p = pattern.literal.string_value();
  Vec v = EvalVec(*expr.children[0], b, sel);
  const size_t n = v.size();
  Vec out;
  out.repr = Repr::kI64;
  out.type = out.null_type = TypeId::kBool;
  out.nulls.resize(n);
  out.i64.resize(n, 0);
  std::vector<uint8_t> dict_match;
  if (v.repr == Repr::kDict) {
    dict_match.resize(v.dict->size());
    for (size_t k = 0; k < dict_match.size(); ++k) {
      dict_match[k] = LikeMatch((*v.dict)[k], p) ? 1 : 0;
    }
  }
  static const std::string kEmpty;
  for (size_t i = 0; i < n; ++i) {
    if (v.IsNull(i)) {
      out.nulls[i] = 1;
      continue;
    }
    switch (v.repr) {
      case Repr::kDict:
        out.i64[i] = dict_match[v.codes[i]];
        break;
      case Repr::kStr:
        out.i64[i] = LikeMatch(v.str[i], p) ? 1 : 0;
        break;
      case Repr::kBoxed:
        out.i64[i] = LikeMatch(v.boxed[i].string_value(), p) ? 1 : 0;
        break;
      default:
        out.i64[i] = LikeMatch(kEmpty, p) ? 1 : 0;
        break;
    }
  }
  return out;
}

/// CASE WHEN with the scalar evaluator's laziness: each WHEN is evaluated
/// only on the rows no earlier WHEN took, and each THEN (and the ELSE) only
/// on the rows that select it.
Vec EvalCaseVec(const Expr& expr, const ColumnBatch& b, const SelVector& sel) {
  const size_t n = sel.size();
  const size_t pairs =
      (expr.children.size() - (expr.case_has_else ? 1 : 0)) / 2;
  std::vector<Value> values(n, Value::Null(TypeId::kString));
  SelVector rest = sel;
  std::vector<uint32_t> rest_pos(n);
  for (size_t i = 0; i < n; ++i) rest_pos[i] = static_cast<uint32_t>(i);
  auto scatter = [&](const Expr& branch, const SelVector& rows,
                     const std::vector<uint32_t>& pos) {
    if (rows.empty()) return;
    Vec v = EvalVec(branch, b, rows);
    for (size_t j = 0; j < rows.size(); ++j) values[pos[j]] = v.GetValue(j);
  };
  for (size_t k = 0; k < pairs && !rest.empty(); ++k) {
    Vec cond = EvalVec(*expr.children[2 * k], b, rest);
    SelVector hit, miss;
    std::vector<uint32_t> hit_pos, miss_pos;
    for (size_t i = 0; i < rest.size(); ++i) {
      const bool take = LaneTruth(cond, i) == Truth::kTrue;
      (take ? hit : miss).push_back(rest[i]);
      (take ? hit_pos : miss_pos).push_back(rest_pos[i]);
    }
    scatter(*expr.children[2 * k + 1], hit, hit_pos);
    rest = std::move(miss);
    rest_pos = std::move(miss_pos);
  }
  if (expr.case_has_else) scatter(*expr.children.back(), rest, rest_pos);
  return Vec::FromValues(std::move(values));
}

/// EXTRACT(YEAR FROM d) over int64-payload lanes; other shapes go scalar.
Vec EvalFunctionVec(const Expr& expr, const ColumnBatch& b,
                    const SelVector& sel) {
  if (expr.function_name != "extract_year" || expr.children.size() != 1) {
    return EvalVecScalarFallback(expr, b, sel);
  }
  Vec v = EvalVec(*expr.children[0], b, sel);
  if (v.repr != Repr::kI64) return EvalVecScalarFallback(expr, b, sel);
  const size_t n = v.size();
  Vec out;
  out.repr = Repr::kI64;
  out.type = out.null_type = TypeId::kInt64;
  out.nulls = v.nulls;
  out.i64.resize(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (v.nulls[i]) continue;
    int y, m, d;
    CivilFromDays(v.i64[i], &y, &m, &d);
    out.i64[i] = y;
  }
  return out;
}

Vec EvalVec(const Expr& expr, const ColumnBatch& b, const SelVector& sel) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return GatherColumn(expr, b, sel);
    case ExprKind::kLiteral:
      return SplatLiteral(expr.literal, sel.size());
    case ExprKind::kBinary:
      if (expr.binary_op == BinaryOp::kAnd ||
          expr.binary_op == BinaryOp::kOr) {
        return EvalAndOrVec(expr, b, sel);
      }
      {
        Vec l = EvalVec(*expr.children[0], b, sel);
        Vec r = EvalVec(*expr.children[1], b, sel);
        switch (expr.binary_op) {
          case BinaryOp::kAdd:
          case BinaryOp::kSub:
          case BinaryOp::kMul:
          case BinaryOp::kDiv:
            return EvalArithVec(expr.binary_op, l, r);
          default:
            return EvalCompareVec(expr.binary_op, l, r);
        }
      }
    case ExprKind::kUnary:
      return EvalUnaryVec(expr, b, sel);
    case ExprKind::kBetween:
      return EvalBetweenVec(expr, b, sel);
    case ExprKind::kLike:
      return EvalLikeVec(expr, b, sel);
    case ExprKind::kCaseWhen:
      return EvalCaseVec(expr, b, sel);
    case ExprKind::kFunction:
      return EvalFunctionVec(expr, b, sel);
    default:
      // IN lists, (mis-planned) aggregates.
      return EvalVecScalarFallback(expr, b, sel);
  }
}

}  // namespace

void SelRange(size_t begin, size_t end, SelVector* sel) {
  sel->resize(end - begin);
  std::iota(sel->begin(), sel->end(), static_cast<uint32_t>(begin));
}

ColumnVector EvalExprBatch(const Expr& expr, const ColumnBatch& batch,
                           const SelVector& sel) {
  return EvalVec(expr, batch, sel);
}

namespace {

// ---------------------------------------------------------------------------
// In-place predicate kernels: read the column slice through its row ids and
// compact the selection vector directly — no gathered operand, no literal
// splat, no result vector.
// ---------------------------------------------------------------------------

/// Index into Verdicts::keep of Value::Compare(a, b) for two numbers of one
/// kind: NaN compares as greater from either side, exactly as Compare does.
template <typename T>
int CmpIndex(T a, T b) {
  return 2 - static_cast<int>(a == b) - 2 * static_cast<int>(a < b);
}

int CmpIndex(const std::string& a, const std::string& b) {
  const int c = a.compare(b);
  return c < 0 ? 0 : (c == 0 ? 1 : 2);
}

/// Keeps the selected rows whose lane of `slice` is non-NULL and passes
/// `pass(lane)`, in order. Typed reprs only (`nulls` is sized to the lanes).
template <typename Pass>
void CompactInPlace(const ColumnSlice& slice, SelVector* sel,
                    const Pass& pass) {
  const uint32_t* ids = slice.ids != nullptr ? slice.ids->data() : nullptr;
  const uint8_t* nulls = slice.data->nulls.data();
  uint32_t* rows = sel->data();
  const size_t n = sel->size();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows[i];
    const uint32_t lane = ids != nullptr ? ids[row] : row;
    rows[kept] = row;
    kept += static_cast<size_t>(!nulls[lane] && pass(lane));
  }
  sel->resize(kept);
}

/// `lit` is on the left when `lit_left`; Compare is antisymmetric for two
/// int64s or two strings, so the verdicts are mirrored instead.
Verdicts Oriented(Verdicts v, bool lit_left) {
  if (lit_left) std::swap(v.keep[0], v.keep[2]);
  return v;
}

/// `column op literal` or `literal op column` over a typed column; false
/// when the shape has no in-place kernel.
bool CompareInPlace(const Expr& expr, const ColumnBatch& b, SelVector* sel) {
  const Expr& l = *expr.children[0];
  const Expr& r = *expr.children[1];
  const bool lit_left = l.kind == ExprKind::kLiteral;
  const Expr& col = lit_left ? r : l;
  const Expr& lit_expr = lit_left ? l : r;
  if (col.kind != ExprKind::kColumnRef || lit_expr.kind != ExprKind::kLiteral) {
    return false;
  }
  const Value& lit = lit_expr.literal;
  const ColumnSlice& slice = b.columns[static_cast<size_t>(col.column_index)];
  const Vec& v = *slice.data;
  if (v.repr == Repr::kBoxed) return false;
  if (lit.is_null()) {  // a comparison with NULL is never TRUE
    sel->clear();
    return true;
  }
  const Verdicts keep = VerdictsOf(expr.binary_op);
  const bool lit_num = lit.type() != TypeId::kString;
  switch (v.repr) {
    case Repr::kI64:
      if (IsI64Class(lit.type())) {
        const Verdicts k = Oriented(keep, lit_left);
        const int64_t x = lit.int64_value();
        CompactInPlace(slice, sel, [&](uint32_t i) {
          return k.keep[CmpIndex(v.i64[i], x)];
        });
        return true;
      }
      if (lit.type() == TypeId::kDouble) {
        const double x = lit.double_value();
        CompactInPlace(slice, sel, [&](uint32_t i) {
          const double a = static_cast<double>(v.i64[i]);
          return keep.keep[lit_left ? CmpIndex(x, a) : CmpIndex(a, x)];
        });
        return true;
      }
      return false;
    case Repr::kF64:
      if (lit_num) {
        const double x = lit.AsDouble();
        CompactInPlace(slice, sel, [&](uint32_t i) {
          const double a = v.f64[i];
          return keep.keep[lit_left ? CmpIndex(x, a) : CmpIndex(a, x)];
        });
        return true;
      }
      return false;
    case Repr::kStr:
      if (!lit_num) {
        const Verdicts k = Oriented(keep, lit_left);
        const std::string& x = lit.string_value();
        CompactInPlace(slice, sel, [&](uint32_t i) {
          return k.keep[CmpIndex(v.str[i], x)];
        });
        return true;
      }
      return false;
    case Repr::kDict: {
      const std::vector<uint8_t> pass = DictVerdicts(v, lit, lit_left, keep);
      CompactInPlace(slice, sel,
                     [&](uint32_t i) { return pass[v.codes[i]] != 0; });
      return true;
    }
    case Repr::kBoxed:
      break;
  }
  return false;
}

/// `column BETWEEN literal AND literal` over a typed column whose bounds
/// compare in one kind (both int64-class over an int64-class column, both
/// numeric over a double column, both strings over a string column); false
/// otherwise. Keeps Compare(v, lo) >= 0 && Compare(v, hi) <= 0.
bool BetweenInPlace(const Expr& expr, const ColumnBatch& b, SelVector* sel) {
  const Expr& col = *expr.children[0];
  const Expr& lo_expr = *expr.children[1];
  const Expr& hi_expr = *expr.children[2];
  if (col.kind != ExprKind::kColumnRef ||
      lo_expr.kind != ExprKind::kLiteral ||
      hi_expr.kind != ExprKind::kLiteral) {
    return false;
  }
  const Value& lo = lo_expr.literal;
  const Value& hi = hi_expr.literal;
  const ColumnSlice& slice = b.columns[static_cast<size_t>(col.column_index)];
  const Vec& v = *slice.data;
  if (v.repr == Repr::kBoxed) return false;
  if (lo.is_null() || hi.is_null()) {
    sel->clear();
    return true;
  }
  // CmpIndex >= 1 is Compare >= 0; CmpIndex <= 1 is Compare <= 0.
  const bool lo_str = lo.type() == TypeId::kString;
  const bool hi_str = hi.type() == TypeId::kString;
  switch (v.repr) {
    case Repr::kI64:
      if (IsI64Class(lo.type()) && IsI64Class(hi.type())) {
        const int64_t x = lo.int64_value(), y = hi.int64_value();
        CompactInPlace(slice, sel, [&](uint32_t i) {
          return v.i64[i] >= x && v.i64[i] <= y;
        });
        return true;
      }
      return false;
    case Repr::kF64:
      if (!lo_str && !hi_str) {
        const double x = lo.AsDouble(), y = hi.AsDouble();
        CompactInPlace(slice, sel, [&](uint32_t i) {
          return CmpIndex(v.f64[i], x) >= 1 && CmpIndex(v.f64[i], y) <= 1;
        });
        return true;
      }
      return false;
    case Repr::kStr:
      if (lo_str && hi_str) {
        const std::string& x = lo.string_value();
        const std::string& y = hi.string_value();
        CompactInPlace(slice, sel, [&](uint32_t i) {
          return CmpIndex(v.str[i], x) >= 1 && CmpIndex(v.str[i], y) <= 1;
        });
        return true;
      }
      return false;
    case Repr::kDict: {
      std::vector<uint8_t> pass =
          DictVerdicts(v, lo, false, VerdictsOf(BinaryOp::kGe));
      const std::vector<uint8_t> le_hi =
          DictVerdicts(v, hi, false, VerdictsOf(BinaryOp::kLe));
      for (size_t k = 0; k < pass.size(); ++k) pass[k] &= le_hi[k];
      CompactInPlace(slice, sel,
                     [&](uint32_t i) { return pass[v.codes[i]] != 0; });
      return true;
    }
    case Repr::kBoxed:
      break;
  }
  return false;
}

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

}  // namespace

void EvalPredicateBatch(const Expr& expr, const ColumnBatch& batch,
                        SelVector* sel) {
  if (sel->empty()) return;
  // Conjunction = selection intersection: the left conjunct shrinks the
  // selection, the right conjunct never sees rejected rows. (NULL and FALSE
  // both reject, exactly like scalar EvalPredicate on an AND.)
  if (expr.kind == ExprKind::kBinary && expr.binary_op == BinaryOp::kAnd) {
    EvalPredicateBatch(*expr.children[0], batch, sel);
    EvalPredicateBatch(*expr.children[1], batch, sel);
    return;
  }
  if (expr.kind == ExprKind::kBinary && expr.binary_op == BinaryOp::kOr) {
    // Disjunction = selection union. A filter keeps only TRUE rows, and
    // `a OR b` is TRUE exactly when a or b is TRUE, so the right side runs
    // on the rows the left side did not keep and the two ascending lists
    // merge.
    SelVector left = *sel;
    EvalPredicateBatch(*expr.children[0], batch, &left);
    if (left.size() == sel->size()) return;
    SelVector rest;
    rest.reserve(sel->size() - left.size());
    size_t j = 0;
    for (uint32_t row : *sel) {
      if (j < left.size() && left[j] == row) {
        ++j;
      } else {
        rest.push_back(row);
      }
    }
    EvalPredicateBatch(*expr.children[1], batch, &rest);
    sel->resize(left.size() + rest.size());
    std::merge(left.begin(), left.end(), rest.begin(), rest.end(),
               sel->begin());
    return;
  }
  if (expr.kind == ExprKind::kBinary && IsComparison(expr.binary_op) &&
      CompareInPlace(expr, batch, sel)) {
    return;
  }
  if (expr.kind == ExprKind::kBetween && BetweenInPlace(expr, batch, sel)) {
    return;
  }
  Vec v = EvalVec(expr, batch, *sel);
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    if (LaneTruth(v, i) == Truth::kTrue) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
}

namespace {

/// The selected rows of a row span (or of its chunked mirror), restricted to
/// the columns `expr` references, as a dense batch: row i of the batch is
/// row sel[i] of the span.
ColumnBatch BatchOf(const Expr& expr, const RowBlock& block,
                    const SelVector& sel) {
  ColumnBatch batch;
  batch.num_rows = sel.size();
  std::vector<int> refs;
  CollectColumnIndices(expr, &refs);
  for (int ref : refs) {
    const size_t c = static_cast<size_t>(ref);
    if (c >= batch.columns.size()) batch.columns.resize(c + 1);
    if (batch.columns[c].data != nullptr) continue;
    if (block.chunks != nullptr && c < block.chunks->num_columns()) {
      // The caller keeps the chunks alive for the whole evaluation.
      batch.columns[c].data = std::make_shared<const ColumnVector>(
          ColumnVector::FromChunk(block.chunks->column(c), nullptr,
                                  sel.data(), sel.size()));
      continue;
    }
    batch.columns[c].data = std::make_shared<const ColumnVector>(
        ColumnVector::FromRows(*block.rows, c, sel.data(), sel.size()));
  }
  return batch;
}

}  // namespace

void EvalExprBatch(const Expr& expr, const RowBlock& block,
                   const SelVector& sel, std::vector<Value>* out) {
  SelVector dense;
  SelRange(0, sel.size(), &dense);
  Vec v = EvalVec(expr, BatchOf(expr, block, sel), dense);
  out->reserve(out->size() + sel.size());
  if (v.repr == Repr::kBoxed) {
    for (auto& val : v.boxed) out->push_back(std::move(val));
    return;
  }
  for (size_t i = 0; i < v.size(); ++i) out->push_back(v.GetValue(i));
}

void EvalExprBatch(const Expr& expr, const std::vector<Row>& rows,
                   const SelVector& sel, std::vector<Value>* out) {
  EvalExprBatch(expr, RowBlock{&rows, nullptr}, sel, out);
}

void EvalPredicateBatch(const Expr& expr, const RowBlock& block,
                        SelVector* sel) {
  SelVector dense;
  SelRange(0, sel->size(), &dense);
  EvalPredicateBatch(expr, BatchOf(expr, block, *sel), &dense);
  for (size_t i = 0; i < dense.size(); ++i) (*sel)[i] = (*sel)[dense[i]];
  sel->resize(dense.size());
}

void EvalPredicateBatch(const Expr& expr, const std::vector<Row>& rows,
                        SelVector* sel) {
  EvalPredicateBatch(expr, RowBlock{&rows, nullptr}, sel);
}

}  // namespace xdb
