#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/types/column_chunk.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace xdb {

/// \brief Approximate serialized size of a row (for transfer accounting).
size_t RowSerializedSize(const Row& row);

/// \brief In-memory relation: a schema plus its data, held either as rows
/// or as typed columns.
///
/// Tables are loaded row by row (a DBMS's base tables then release their
/// rows, see ReleaseRows), and the executor's results are column-backed:
/// operators pass typed columns between one another and gather values
/// late, so query results are built from columns. Each form
/// derives the other on demand and caches it: a column-backed table builds
/// its rows on the first rows() call (callers outside the executor), and a
/// row-backed table derives its columns from its chunked mirror on the first
/// columns() call (the executor's view of every input). Mutating a table
/// through mutable_rows() or AppendRow() makes its rows authoritative.
class Table {
 public:
  using Columns = std::vector<ColumnPtr>;

  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}
  /// Column-backed table: one vector of `num_rows` lanes per schema field.
  Table(Schema schema, Columns columns, size_t num_rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const {
    return columns_ != nullptr ? num_rows_ : rows_.size();
  }
  /// The rows; built from the columns (once) for a column-backed table.
  const std::vector<Row>& rows() const;
  std::vector<Row>& mutable_rows() {
    // Handing out mutable rows bumps the generation: the derived caches
    // (serialized size, chunked mirror, columns) lazily revalidate on next
    // read instead of being rebuilt eagerly, so repeated read-modify cycles
    // cost one rebuild per burst and pure readers never pay anything.
    MakeRowBacked();
    BumpGeneration();
    return rows_;
  }
  const Row& row(size_t i) const { return rows()[i]; }

  void AppendRow(Row row) {
    MakeRowBacked();
    rows_.push_back(std::move(row));
    BumpGeneration();
  }

  /// Pre-sizes the row vector for `n` total rows (see std::vector::reserve);
  /// loaders that know their cardinality use this to avoid repeated
  /// reallocation while appending.
  void Reserve(size_t n) {
    MakeRowBacked();
    rows_.reserve(n);
  }

  /// Monotone mutation counter; derived caches key off it.
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Total approximate serialized size of all rows in row format (what the
  /// classic wire mode ships). Cached per generation: this sits on the
  /// transfer-accounting path of every foreign fetch.
  size_t SerializedSize() const;

  /// Wire width of the columnar encoding (dictionary/RLE compressed; see
  /// ColumnChunk). Encodes and caches the chunked mirror on first call.
  /// Always <= SerializedSize(); falls back to it when the rows cannot be
  /// chunked (ragged widths).
  size_t EncodedSerializedSize() const;

  /// Builds (or revalidates) the cached columnar mirror and returns it.
  /// Thread-safe; nullptr only when the rows don't match the schema.
  std::shared_ptr<const ChunkedTable> EnsureChunked() const;

  /// The cached columnar mirror if one exists for the current generation,
  /// else nullptr. Never encodes.
  std::shared_ptr<const ChunkedTable> chunked() const;

  /// The table as typed columns, one per schema field — the form the
  /// executor reads. Column-backed tables return their own columns;
  /// row-backed ones decode (once per generation) their chunked mirror, so
  /// dictionary columns stay in code space. Thread-safe; nullptr only when
  /// the rows don't match the schema.
  std::shared_ptr<const Columns> columns() const;

  /// Makes a row-backed table column-backed and frees its rows (rows()
  /// rebuilds them on demand). The data, the generation and the derived
  /// caches stay valid. Not thread-safe: for loaders, before the table is
  /// shared.
  void ReleaseRows();

  /// Renders the first `max_rows` rows as an ASCII table (for examples).
  std::string ToDisplayString(size_t max_rows = 20) const;

 private:
  static constexpr uint64_t kNoGeneration =
      std::numeric_limits<uint64_t>::max();

  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Converts a column-backed table into a row-backed one (no-op otherwise).
  void MakeRowBacked();
  /// EnsureChunked with cache_mu_ held.
  std::shared_ptr<const ChunkedTable> EnsureChunkedLocked() const;

  Schema schema_;
  // Rows: authoritative when columns_ is null, else a lazily built cache.
  mutable std::vector<Row> rows_;
  // Set only for column-backed tables; immutable once set.
  std::shared_ptr<const Columns> columns_;
  size_t num_rows_ = 0;  // row count of a column-backed table
  // Mutations are single-writer (loaders, before sharing); the caches below
  // may be filled from concurrent const readers (tables are shared
  // read-only across morsel workers and sessions), hence the mutex + atomic
  // generation.
  std::atomic<uint64_t> generation_{0};
  mutable std::atomic<bool> rows_built_{false};
  mutable std::mutex cache_mu_;
  mutable uint64_t size_generation_ = kNoGeneration;
  mutable size_t cached_size_ = 0;
  mutable uint64_t chunk_generation_ = kNoGeneration;
  mutable std::shared_ptr<const ChunkedTable> chunks_;
  mutable uint64_t columns_generation_ = kNoGeneration;
  mutable std::shared_ptr<const Columns> derived_columns_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace xdb
