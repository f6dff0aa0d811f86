// Property tests for the columnar chunk storage (ISSUE 7): every encoding
// (plain / dictionary / RLE / frame-of-reference / boxed) must round-trip
// bit-identically to the row it was built from, the code-space kernels must
// match the scalar evaluator bit for bit, the Table facade's generation
// counter must keep the derived caches coherent under mutation and
// concurrent readers, and the columnar wire must never change a federated
// query's result — only shrink its bytes.
//
// Suite names all start with "Columnar" so the ASan/UBSan and TSan CI jobs
// pick them up by regex.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <thread>

#include "src/expr/expr.h"
#include "src/expr/vector_eval.h"
#include "src/obs/metrics.h"
#include "src/plan/stats.h"
#include "src/tpch/distributions.h"
#include "src/tpch/queries.h"
#include "src/types/table.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

bool BitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  switch (a.type()) {
    case TypeId::kString:
      return a.string_value() == b.string_value();
    case TypeId::kDouble: {
      double x = a.double_value(), y = b.double_value();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    default:
      return a.int64_value() == b.int64_value();
  }
}

// Random single-column tables spanning the encoding space: every TypeId,
// null densities from none to mostly-null, cardinalities from constant to
// unique, sorted and shuffled, plus narrow ranges that trigger
// frame-of-reference and mixed-type columns that force the boxed fallback.
struct ColumnSpec {
  TypeId type;
  double null_density;
  int cardinality;    // distinct non-null values to draw from
  bool sorted;
  int64_t base;       // value offset: drives the FOR range
  int64_t stride;     // distance between distinct values
  bool mixed_types;   // inject foreign-typed lanes (boxed fallback)
};

std::vector<Row> GenerateColumn(const ColumnSpec& spec, size_t n,
                                std::mt19937* rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> pick(0, spec.cardinality - 1);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (unit(*rng) < spec.null_density) {
      rows.push_back(Row{Value::Null(spec.type)});
      continue;
    }
    if (spec.mixed_types && unit(*rng) < 0.05) {
      rows.push_back(Row{Value::String("stray")});
      continue;
    }
    const int64_t k = spec.base + int64_t(pick(*rng)) * spec.stride;
    switch (spec.type) {
      case TypeId::kBool:
        rows.push_back(Row{Value::Bool((k & 1) != 0)});
        break;
      case TypeId::kInt64:
        rows.push_back(Row{Value::Int64(k)});
        break;
      case TypeId::kDate:
        rows.push_back(Row{Value::Date(k)});
        break;
      case TypeId::kDouble:
        rows.push_back(Row{Value::Double(double(k) / 3.0)});
        break;
      case TypeId::kString: {
        std::string s = "v";
        s += std::to_string(k);
        rows.push_back(Row{Value::String(std::move(s))});
        break;
      }
    }
  }
  if (spec.sorted) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      if (a[0].is_null() != b[0].is_null()) return a[0].is_null();
      if (a[0].is_null()) return false;
      if (a[0].type() == TypeId::kString) {
        return a[0].string_value() < b[0].string_value();
      }
      if (a[0].type() == TypeId::kDouble) {
        return a[0].double_value() < b[0].double_value();
      }
      return a[0].int64_value() < b[0].int64_value();
    });
  }
  return rows;
}

TEST(ColumnarRoundTrip, RandomizedBitIdentity) {
  std::mt19937 rng(20230407);
  const TypeId types[] = {TypeId::kBool, TypeId::kInt64, TypeId::kDate,
                          TypeId::kDouble, TypeId::kString};
  const double null_densities[] = {0.0, 0.01, 0.3, 0.9};
  const int cardinalities[] = {1, 3, 40, 5000};
  const int64_t strides[] = {1, 17, 100000, int64_t{1} << 40};
  std::uniform_int_distribution<size_t> len(0, 400);
  for (int trial = 0; trial < 300; ++trial) {
    ColumnSpec spec;
    spec.type = types[trial % 5];
    spec.null_density = null_densities[(trial / 5) % 4];
    spec.cardinality = cardinalities[(trial / 20) % 4];
    spec.sorted = (trial / 80) % 2 == 1;
    spec.base = trial % 3 == 0 ? -123456 : trial;
    spec.stride = strides[trial % 4];
    spec.mixed_types = trial % 29 == 0;
    const size_t n = len(rng);
    std::vector<Row> rows = GenerateColumn(spec, n, &rng);
    ColumnChunk chunk = ColumnChunk::Encode(rows, 0, spec.type);
    SCOPED_TRACE("trial " + std::to_string(trial) + " encoding " +
                 ColumnEncodingToString(chunk.encoding()) + " n=" +
                 std::to_string(n));
    ASSERT_EQ(chunk.size(), n);
    // The modelled wire width never exceeds the row-format width.
    EXPECT_LE(chunk.EncodedSize(), chunk.DecodedSize());
    // The executor reads chunks decoded into a ColumnVector.
    std::vector<uint32_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
    const ColumnVector decoded =
        ColumnVector::FromChunk(chunk, nullptr, all.data(), n);
    ASSERT_EQ(decoded.size(), n);
    for (size_t i = 0; i < n; ++i) {
      // Value round-trip, bit for bit.
      EXPECT_TRUE(BitEqual(chunk.GetValue(i), rows[i][0]))
          << "lane " << i << ": " << chunk.GetValue(i).ToString() << " vs "
          << rows[i][0].ToString();
      EXPECT_TRUE(BitEqual(decoded.GetValue(i), rows[i][0])) << "lane " << i;
      // Normalized-key round-trip: hash-join and group-by keys built from
      // the decoded column must equal keys built from the row value.
      std::string from_column, from_row;
      decoded.AppendNormalizedKey(i, &from_column);
      rows[i][0].AppendNormalizedKey(&from_row);
      EXPECT_EQ(from_column, from_row) << "lane " << i;
    }
  }
}

// A table built from rows and the same table built from typed columns (the
// executor's result form) must analyze, size and encode identically: the
// statistics read the columns of either, and the wire sizes of a
// column-backed table never build its rows.
TEST(ColumnarStats, RowAndColumnTablesAgree) {
  std::mt19937 rng(7);
  const TypeId types[] = {TypeId::kBool, TypeId::kInt64, TypeId::kDate,
                          TypeId::kDouble, TypeId::kString};
  std::uniform_int_distribution<size_t> len(0, 300);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t n = len(rng);
    Schema schema;
    std::vector<Row> rows(n);
    for (int c = 0; c < 6; ++c) {
      ColumnSpec spec{types[(trial + c) % 5], c * 0.15, 1 + 7 * c,
                      c % 2 == 0, -50, 3, (trial + c) % 7 == 0};
      std::vector<Row> col = GenerateColumn(spec, n, &rng);
      schema.AddField({"c" + std::to_string(c), spec.type});
      for (size_t i = 0; i < n; ++i) rows[i].push_back(col[i][0]);
    }
    // Signed zeros: the first of two equal extremes must win either way.
    schema.AddField({"z", TypeId::kDouble});
    for (size_t i = 0; i < n; ++i) {
      rows[i].push_back(i % 3 == 2 ? Value::Null(TypeId::kDouble)
                                   : Value::Double(i % 2 ? 0.0 : -0.0));
    }
    std::vector<uint32_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
    Table::Columns cols;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      cols.push_back(std::make_shared<const ColumnVector>(
          ColumnVector::FromRows(rows, c, all.data(), n)));
    }
    const Table by_rows(schema, rows);
    const Table by_cols(schema, cols, n);

    const TableStats a = ComputeTableStats(by_rows);
    const TableStats b = ComputeTableStats(by_cols);
    EXPECT_EQ(a.row_count, b.row_count);
    ASSERT_EQ(a.columns.size(), b.columns.size());
    for (size_t c = 0; c < a.columns.size(); ++c) {
      SCOPED_TRACE("column " + std::to_string(c));
      EXPECT_EQ(a.columns[c].ndv, b.columns[c].ndv);
      EXPECT_EQ(a.columns[c].avg_width, b.columns[c].avg_width);
      EXPECT_TRUE(BitEqual(a.columns[c].min, b.columns[c].min));
      EXPECT_TRUE(BitEqual(a.columns[c].max, b.columns[c].max));
    }
    EXPECT_EQ(by_rows.SerializedSize(), by_cols.SerializedSize());
    EXPECT_EQ(by_rows.EncodedSerializedSize(), by_cols.EncodedSerializedSize());
    auto ca = by_rows.EnsureChunked();
    auto cb = by_cols.EnsureChunked();
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      EXPECT_EQ(ca->column(c).encoding(), cb->column(c).encoding());
    }
    // Nothing above built the column-backed table's rows; now they must
    // equal the originals exactly.
    ASSERT_EQ(by_cols.rows().size(), n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        ASSERT_TRUE(BitEqual(by_cols.rows()[i][c], rows[i][c]));
      }
    }
  }
}

TEST(ColumnarEncodingChoice, PicksTheCheapRepresentation) {
  std::mt19937 rng(99);
  auto encode = [](std::vector<Row> rows, TypeId t) {
    return ColumnChunk::Encode(rows, 0, t);
  };

  // Low-cardinality strings dictionary-encode.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 1000; ++i) {
      rows.push_back(Row{Value::String(i % 2 ? "EUROPE" : "ASIA")});
    }
    EXPECT_EQ(encode(rows, TypeId::kString).encoding(),
              ColumnEncoding::kDictionary);
  }
  // Unique strings stay plain: a dictionary would only add code bytes.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 1000; ++i) {
      rows.push_back(Row{Value::String("unique-" + std::to_string(i))});
    }
    EXPECT_EQ(encode(rows, TypeId::kString).encoding(),
              ColumnEncoding::kPlain);
  }
  // Sorted low-cardinality int64 run-length-encodes.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 1000; ++i) rows.push_back(Row{Value::Int64(i / 250)});
    EXPECT_EQ(encode(rows, TypeId::kInt64).encoding(), ColumnEncoding::kRle);
  }
  // Scattered narrow-range int64 takes frame-of-reference offsets — even
  // when the range sits far from zero.
  {
    std::vector<Row> rows;
    std::uniform_int_distribution<int64_t> v(1000000000, 1000000255);
    for (int i = 0; i < 1000; ++i) rows.push_back(Row{Value::Int64(v(rng))});
    ColumnChunk c = encode(rows, TypeId::kInt64);
    EXPECT_EQ(c.encoding(), ColumnEncoding::kFor);
    // 1-byte offsets + 8-byte reference.
    EXPECT_EQ(c.EncodedSize(), 8u + 1000u);
  }
  // NULLs disable RLE but not FOR.
  {
    std::vector<Row> rows;
    std::uniform_int_distribution<int64_t> v(0, 60000);
    for (int i = 0; i < 1000; ++i) {
      rows.push_back(i % 10 == 0 ? Row{Value::Null(TypeId::kInt64)}
                                 : Row{Value::Int64(v(rng))});
    }
    EXPECT_EQ(encode(rows, TypeId::kInt64).encoding(), ColumnEncoding::kFor);
  }
  // Full-width random int64 stays plain: no narrow offset covers the range
  // (and the unsigned range arithmetic must not overflow into a bogus FOR).
  {
    std::vector<Row> rows;
    std::uniform_int_distribution<int64_t> v(
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max());
    for (int i = 0; i < 1000; ++i) rows.push_back(Row{Value::Int64(v(rng))});
    EXPECT_EQ(encode(rows, TypeId::kInt64).encoding(),
              ColumnEncoding::kPlain);
  }
  // A lane whose type tag disagrees with the declared type forces boxed.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) rows.push_back(Row{Value::Int64(i)});
    rows.push_back(Row{Value::String("stray")});
    ColumnChunk c = encode(rows, TypeId::kInt64);
    EXPECT_EQ(c.encoding(), ColumnEncoding::kBoxed);
    EXPECT_EQ(c.EncodedSize(), c.DecodedSize());
  }
}

TEST(ColumnarBatchEquivalence, CodeSpaceFiltersMatchScalar) {
  std::mt19937 rng(4242);
  const char* regions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                           "MIDDLE EAST"};
  Schema schema({{"k", TypeId::kInt64},
                 {"region", TypeId::kString},
                 {"d", TypeId::kDate},
                 {"x", TypeId::kDouble}});
  std::uniform_int_distribution<int64_t> key(100000, 100000 + 500);
  std::uniform_int_distribution<int> reg(0, 4);
  std::uniform_int_distribution<int64_t> day(8000, 9000);
  std::uniform_real_distribution<double> x(-5.0, 5.0);
  std::uniform_int_distribution<int> pct(0, 99);
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back(Row{
        pct(rng) < 5 ? Value::Null(TypeId::kInt64) : Value::Int64(key(rng)),
        pct(rng) < 5 ? Value::Null(TypeId::kString)
                     : Value::String(regions[reg(rng)]),
        Value::Date(day(rng)),
        Value::Double(x(rng)),
    });
  }
  Table table(schema, rows);
  auto chunks = table.EnsureChunked();
  ASSERT_NE(chunks, nullptr);
  // The string column dictionary-encoded and the key column took FOR, so
  // the batch kernels below run in code space, not on decoded values.
  EXPECT_EQ(chunks->column(1).encoding(), ColumnEncoding::kDictionary);
  EXPECT_EQ(chunks->column(0).encoding(), ColumnEncoding::kFor);

  std::vector<ExprPtr> predicates;
  // Dictionary equality, including a literal absent from the dictionary.
  predicates.push_back(Expr::Binary(
      BinaryOp::kEq, Expr::BoundColumn(1, TypeId::kString, "region"),
      Expr::Literal(Value::String("EUROPE"))));
  predicates.push_back(Expr::Binary(
      BinaryOp::kEq, Expr::BoundColumn(1, TypeId::kString, "region"),
      Expr::Literal(Value::String("ATLANTIS"))));
  predicates.push_back(Expr::Binary(
      BinaryOp::kNe, Expr::BoundColumn(1, TypeId::kString, "region"),
      Expr::Literal(Value::String("ASIA"))));
  // FOR-encoded key compared against int literals, AND-chained with a date
  // range so selection-vector intersection runs over chunk gathers.
  predicates.push_back(Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGe, Expr::BoundColumn(0, TypeId::kInt64, "k"),
                   Expr::Literal(Value::Int64(100100))),
      Expr::Binary(BinaryOp::kLt, Expr::BoundColumn(2, TypeId::kDate, "d"),
                   Expr::Literal(Value::Date(8500)))));
  for (size_t p = 0; p < predicates.size(); ++p) {
    SCOPED_TRACE("predicate " + std::to_string(p));
    SelVector sel;
    SelRange(0, rows.size(), &sel);
    RowBlock block{&rows, chunks.get()};
    EvalPredicateBatch(*predicates[p], block, &sel);
    SelVector expected;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (EvalPredicate(*predicates[p], rows[i])) expected.push_back(i);
    }
    EXPECT_EQ(sel, expected);
  }

  // Projection gathers from every encoding match the scalar evaluator bit
  // for bit (doubles included).
  std::vector<ExprPtr> exprs;
  exprs.push_back(Expr::BoundColumn(1, TypeId::kString, "region"));
  exprs.push_back(Expr::Binary(BinaryOp::kAdd,
                               Expr::BoundColumn(0, TypeId::kInt64, "k"),
                               Expr::Literal(Value::Int64(7))));
  exprs.push_back(Expr::Binary(BinaryOp::kMul,
                               Expr::BoundColumn(3, TypeId::kDouble, "x"),
                               Expr::Literal(Value::Double(-0.5))));
  for (size_t e = 0; e < exprs.size(); ++e) {
    SCOPED_TRACE("expr " + std::to_string(e));
    SelVector sel;
    SelRange(0, rows.size(), &sel);
    std::vector<Value> out;
    RowBlock block{&rows, chunks.get()};
    EvalExprBatch(*exprs[e], block, sel, &out);
    ASSERT_EQ(out.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(BitEqual(out[i], EvalExpr(*exprs[e], rows[i])))
          << "lane " << i;
    }
  }
}

TEST(ColumnarTableCache, GenerationCounterKeepsCachesCoherent) {
  Schema schema({{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    t.AppendRow(Row{Value::Int64(i % 4), Value::String("tag")});
  }
  const uint64_t gen0 = t.generation();
  const size_t size0 = t.SerializedSize();
  EXPECT_EQ(t.chunked(), nullptr);  // never encoded yet
  auto chunks0 = t.EnsureChunked();
  ASSERT_NE(chunks0, nullptr);
  EXPECT_EQ(t.chunked(), chunks0);          // cached for this generation
  EXPECT_EQ(t.EnsureChunked(), chunks0);    // no rebuild
  EXPECT_LE(t.EncodedSerializedSize(), size0);

  // Reading mutable_rows() must bump the generation even if the caller
  // never writes — the caches cannot tell, so they must revalidate.
  (void)t.mutable_rows();
  EXPECT_GT(t.generation(), gen0);
  EXPECT_EQ(t.chunked(), nullptr);  // stale mirror is not handed out

  // An actual mutation through the facade is visible after re-encoding.
  t.mutable_rows()[0][0] = Value::Int64(999);
  auto chunks1 = t.EnsureChunked();
  ASSERT_NE(chunks1, nullptr);
  EXPECT_NE(chunks1, chunks0);
  EXPECT_TRUE(BitEqual(chunks1->column(0).GetValue(0), Value::Int64(999)));
  EXPECT_EQ(t.SerializedSize(), size0);  // same shape, recomputed size

  // AppendRow invalidates too.
  t.AppendRow(Row{Value::Int64(5), Value::String("tag")});
  EXPECT_EQ(t.chunked(), nullptr);
  EXPECT_EQ(t.EnsureChunked()->num_rows(), 101u);
}

TEST(ColumnarConcurrency, SharedTableReadersRace) {
  Schema schema({{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back(
        Row{Value::Int64(i % 100), Value::String(i % 2 ? "x" : "y")});
  }
  Table t(schema, std::move(rows));
  // Concurrent first-touch: every reader may race to build the mirror; all
  // must agree on the result and the sizes.
  std::vector<std::thread> threads;
  std::vector<size_t> sizes(8, 0);
  std::vector<std::shared_ptr<const ChunkedTable>> seen(8);
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&t, &sizes, &seen, w] {
      auto chunks = t.EnsureChunked();
      seen[w] = chunks;
      size_t acc = t.EncodedSerializedSize() + t.SerializedSize();
      for (size_t i = 0; i < chunks->num_rows(); i += 997) {
        acc += chunks->column(0).GetValue(i).int64_value();
      }
      sizes[w] = acc;
    });
  }
  for (auto& th : threads) th.join();
  for (int w = 1; w < 8; ++w) {
    EXPECT_EQ(seen[w], seen[0]);
    EXPECT_EQ(sizes[w], sizes[0]);
  }
}

TEST(ColumnarWire, EncodedTransfersShrinkWithoutChangingResults) {
  const auto* q = tpch::FindQuery("Q3");
  ASSERT_NE(q, nullptr);

  auto run = [&](WireFormat wire, MetricsRegistry* reg) {
    auto fed = tpch::BuildTpchFederation(0.002, tpch::TD1());
    fed->set_wire_format(wire);
    if (reg != nullptr) fed->SetMetricsRegistry(reg);
    XdbSystem xdb(fed.get());
    return xdb.Query(q->sql);
  };

  MetricsRegistry raw_reg, col_reg;
  auto raw = run(WireFormat::kRawRows, &raw_reg);
  auto col = run(WireFormat::kColumnar, &col_reg);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_TRUE(col.ok()) << col.status().ToString();

  // Same answer, bit for bit (display includes every row and value).
  EXPECT_EQ(raw->result->ToDisplayString(1u << 20),
            col->result->ToDisplayString(1u << 20));

  // Raw mode: every transfer ships row format, nothing marked encoded.
  for (const auto& t : raw->trace.transfers) {
    EXPECT_FALSE(t.encoded);
    EXPECT_DOUBLE_EQ(t.raw_bytes, t.bytes);
  }
  EXPECT_DOUBLE_EQ(raw_reg.GetCounter("xdb_network_encoded_bytes_total")
                       ->Value(),
                   0.0);

  // Columnar mode: transfers never exceed their raw width, the total
  // strictly shrinks, and the raw accounting matches the raw-mode run.
  EXPECT_DOUBLE_EQ(col->trace.TotalRawTransferredBytes(),
                   raw->trace.TotalTransferredBytes());
  EXPECT_LT(col->trace.TotalTransferredBytes(),
            raw->trace.TotalTransferredBytes());
  EXPECT_GT(col->trace.CompressionRatio(), 1.0);
  bool any_encoded = false;
  for (const auto& t : col->trace.transfers) {
    EXPECT_LE(t.bytes, t.raw_bytes);
    any_encoded = any_encoded || t.encoded;
  }
  EXPECT_TRUE(any_encoded);
  EXPECT_GT(col_reg.GetCounter("xdb_network_encoded_bytes_total")->Value(),
            0.0);
  // The per-relation compression gauge was published.
  EXPECT_NE(col_reg.ExposeText().find("xdb_transfer_compression_ratio"),
            std::string::npos);
}

}  // namespace
}  // namespace xdb
