#pragma once

#include <cstdint>
#include <vector>

#include "src/expr/expr.h"
#include "src/types/column_vector.h"
#include "src/types/table.h"

namespace xdb {

/// \brief Selection vector: ascending row indices into a batch. The batch
/// evaluator touches only selected rows, so Filter chains (AND conjuncts)
/// shrink it in place instead of re-testing already-rejected rows.
using SelVector = std::vector<uint32_t>;

/// Fills `sel` with [begin, end) — the dense selection a morsel starts from.
void SelRange(size_t begin, size_t end, SelVector* sel);

/// \brief Evaluates a bound, aggregate-free expression over the selected
/// rows of a columnar batch; lane i of the result is row sel[i].
///
/// Contract: lane i is bit-identical to `EvalExpr(expr, row sel[i])` —
/// including NULL type tags, `-0.0` payloads, int-vs-double promotion, date
/// arithmetic, and division by zero. Hot shapes (column refs and literals,
/// + - * /, comparisons, AND/OR, NOT/negate/IS NULL, BETWEEN, LIKE against a
/// literal, CASE WHEN, EXTRACT(YEAR)) run typed inner loops over unboxed
/// payloads; dictionary-coded strings stay in code space, so comparing them
/// against a literal translates the literal once per dictionary. Everything
/// else falls back to the scalar evaluator per selected row over the
/// referenced columns, so coverage is total.
ColumnVector EvalExprBatch(const Expr& expr, const ColumnBatch& batch,
                           const SelVector& sel);

/// \brief Filters `sel` (ascending) down to the rows where the predicate
/// evaluates to (non-NULL) TRUE, preserving order — identical to keeping
/// the rows where `EvalPredicate(expr, row)` holds.
///
/// AND intersects selections: the left conjunct shrinks `sel`, and the
/// right conjunct is only evaluated on the survivors. OR unions them: the
/// right disjunct runs on the rows the left one did not keep. `column ⊙
/// literal` (either side) and `column BETWEEN literal AND literal` over a
/// typed column read the column through its row ids and compact `sel` in
/// place; other shapes evaluate into a vector and keep its TRUE lanes.
void EvalPredicateBatch(const Expr& expr, const ColumnBatch& batch,
                        SelVector* sel);

/// \brief A row span plus an optional columnar mirror of the same data
/// (Table::chunked()) — the input of the row-span adapters below, which
/// tests and micro benchmarks use. The columns an expression references are
/// converted to ColumnVectors (from the chunks when present, dictionary
/// columns staying in code space) and evaluated by the columnar kernels.
struct RowBlock {
  const std::vector<Row>* rows = nullptr;
  const ChunkedTable* chunks = nullptr;
};

/// Appends one boxed Value per selection lane to `out`, under the same
/// contract as the columnar EvalExprBatch.
void EvalExprBatch(const Expr& expr, const RowBlock& block,
                   const SelVector& sel, std::vector<Value>* out);
void EvalExprBatch(const Expr& expr, const std::vector<Row>& rows,
                   const SelVector& sel, std::vector<Value>* out);

void EvalPredicateBatch(const Expr& expr, const RowBlock& block,
                        SelVector* sel);
void EvalPredicateBatch(const Expr& expr, const std::vector<Row>& rows,
                        SelVector* sel);

}  // namespace xdb
