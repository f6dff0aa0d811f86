#include "src/types/table.h"

#include <algorithm>
#include <numeric>

namespace xdb {

size_t RowSerializedSize(const Row& row) {
  size_t n = 0;
  for (const auto& v : row) n += v.SerializedSize();
  return n;
}

namespace {

/// Every column of a chunked mirror, decoded (nullptr for no mirror).
std::shared_ptr<const Table::Columns> DecodeColumns(
    const std::shared_ptr<const ChunkedTable>& chunks) {
  if (chunks == nullptr) return nullptr;
  std::vector<uint32_t> all(chunks->num_rows());
  std::iota(all.begin(), all.end(), 0u);
  auto cols = std::make_shared<Table::Columns>();
  cols->reserve(chunks->num_columns());
  for (size_t c = 0; c < chunks->num_columns(); ++c) {
    cols->push_back(std::make_shared<const ColumnVector>(
        ColumnVector::FromChunk(chunks->column(c), chunks, all.data(),
                                all.size())));
  }
  return cols;
}

}  // namespace

Table::Table(Schema schema, Columns columns, size_t num_rows)
    : schema_(std::move(schema)),
      columns_(std::make_shared<const Columns>(std::move(columns))),
      num_rows_(num_rows) {}

const std::vector<Row>& Table::rows() const {
  if (columns_ == nullptr || rows_built_.load(std::memory_order_acquire)) {
    return rows_;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (!rows_built_.load(std::memory_order_relaxed)) {
    const Columns& cols = *columns_;
    rows_.assign(num_rows_, Row());
    for (size_t r = 0; r < num_rows_; ++r) {
      Row& row = rows_[r];
      row.reserve(cols.size());
      for (const ColumnPtr& c : cols) row.push_back(c->GetValue(r));
    }
    rows_built_.store(true, std::memory_order_release);
  }
  return rows_;
}

void Table::MakeRowBacked() {
  if (columns_ == nullptr) return;
  rows();
  columns_.reset();
  rows_built_.store(false, std::memory_order_relaxed);
}

void Table::ReleaseRows() {
  if (columns_ != nullptr) return;
  std::shared_ptr<const ChunkedTable> chunks = EnsureChunked();
  if (chunks == nullptr) return;  // ragged rows stay row-backed
  // Free the rows before decoding, so the decoded columns can reuse their
  // memory; the chunk mirror stays valid (same data, same generation).
  num_rows_ = rows_.size();
  std::vector<Row>().swap(rows_);
  columns_ = DecodeColumns(chunks);
  rows_built_.store(false, std::memory_order_relaxed);
}

size_t Table::SerializedSize() const {
  const uint64_t gen = generation();
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (size_generation_ == gen) return cached_size_;
  size_t n = 0;
  if (columns_ != nullptr) {
    for (const ColumnPtr& c : *columns_) n += c->SerializedSize();
  } else {
    for (const auto& r : rows_) n += RowSerializedSize(r);
  }
  cached_size_ = n;
  size_generation_ = gen;
  return n;
}

size_t Table::EncodedSerializedSize() const {
  auto chunks = EnsureChunked();
  if (!chunks) return SerializedSize();
  return chunks->EncodedSize();
}

std::shared_ptr<const ChunkedTable> Table::EnsureChunkedLocked() const {
  const uint64_t gen = generation();
  if (chunk_generation_ != gen) {
    chunks_ = columns_ != nullptr
                  ? ChunkedTable::FromColumns(schema_, *columns_, num_rows_)
                  : ChunkedTable::FromRows(schema_, rows_);
    chunk_generation_ = gen;
  }
  return chunks_;
}

std::shared_ptr<const ChunkedTable> Table::EnsureChunked() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return EnsureChunkedLocked();
}

std::shared_ptr<const ChunkedTable> Table::chunked() const {
  const uint64_t gen = generation();
  std::lock_guard<std::mutex> lock(cache_mu_);
  return chunk_generation_ == gen ? chunks_ : nullptr;
}

std::shared_ptr<const Table::Columns> Table::columns() const {
  if (columns_ != nullptr) return columns_;
  const uint64_t gen = generation();
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (columns_generation_ != gen) {
    derived_columns_ = DecodeColumns(EnsureChunkedLocked());
    columns_generation_ = gen;
  }
  return derived_columns_;
}

std::string Table::ToDisplayString(size_t max_rows) const {
  // Compute column widths over header + shown rows.
  const std::vector<Row>& all = rows();
  size_t shown = std::min(max_rows, all.size());
  std::vector<size_t> widths(schema_.num_fields());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    widths[c] = schema_.field(c).name.size();
  }
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(schema_.num_fields());
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      cells[r][c] = all[r][c].ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string out;
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    out += (c ? " | " : "| ") + pad(schema_.field(c).name, widths[c]);
  }
  out += " |\n";
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    out += (c ? "-+-" : "+-") + std::string(widths[c], '-');
  }
  out += "-+\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      out += (c ? " | " : "| ") + pad(cells[r][c], widths[c]);
    }
    out += " |\n";
  }
  if (shown < all.size()) {
    out += "... (" + std::to_string(all.size() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace xdb
