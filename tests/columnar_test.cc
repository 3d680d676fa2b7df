// The columnar storage engine: dictionary encoding round-trips, the
// TableBuilder/ColumnView/ValueAt API, TablePredicate's truth-table and
// cardinality-gate paths, reference-mode RowBatches (one-table and join
// rows), the QueryResult accessors, and the end-to-end determinism
// contract — scan, join and DEDUP answers are bit-identical across
// num_threads.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "exec/row_batch.h"
#include "exec/table_predicate.h"
#include "plan/expr.h"
#include "storage/dictionary.h"
#include "storage/table.h"

namespace queryer {
namespace {

// ---- Dictionary ---------------------------------------------------------

TEST(DictionaryTest, DuplicatesShareDenseFirstAppearanceCodes) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrAdd("edbt"), 0u);
  EXPECT_EQ(dict.GetOrAdd("vldb"), 1u);
  EXPECT_EQ(dict.GetOrAdd("edbt"), 0u);  // Duplicate: same code, no growth.
  EXPECT_EQ(dict.GetOrAdd("sigmod"), 2u);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.value(0), "edbt");
  EXPECT_EQ(dict.value(2), "sigmod");
  ASSERT_TRUE(dict.Find("vldb").has_value());
  EXPECT_EQ(*dict.Find("vldb"), 1u);
  EXPECT_FALSE(dict.Find("icde").has_value());
  // Find is byte-exact; case variants are distinct dictionary entries.
  EXPECT_FALSE(dict.Find("EDBT").has_value());
  EXPECT_EQ(dict.GetOrAdd("EDBT"), 3u);
}

TEST(DictionaryTest, EmptyStringsAndEmbeddedNulBytes) {
  Dictionary dict;
  const std::string with_nul = std::string("a\0b", 3);
  const std::string nul_only = std::string("\0", 1);
  const DictCode empty_code = dict.GetOrAdd("");
  const DictCode nul_code = dict.GetOrAdd(with_nul);
  const DictCode nul_only_code = dict.GetOrAdd(nul_only);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.value(empty_code), "");
  EXPECT_EQ(dict.value(nul_code), std::string_view(with_nul));
  EXPECT_EQ(dict.value(nul_code).size(), 3u);
  EXPECT_EQ(dict.value(nul_only_code), std::string_view(nul_only));
  // "a" and "a\0b" must not collide, and the empty string round-trips.
  EXPECT_NE(dict.GetOrAdd("a"), nul_code);
  EXPECT_EQ(dict.GetOrAdd(""), empty_code);
}

TEST(DictionaryTest, HighCardinalityViewsStayStableAcrossArenaChunks) {
  // Enough long-ish distinct strings to span several 64 KiB arena blocks;
  // earlier views must survive later allocations (address stability).
  Dictionary dict;
  constexpr std::size_t kDistinct = 5000;
  std::vector<std::string_view> early;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    const std::string value =
        "entity-" + std::to_string(i) + "-" + std::string(40, 'x');
    const DictCode code = dict.GetOrAdd(value);
    EXPECT_EQ(code, i);
    if (i < 100) early.push_back(dict.value(code));
  }
  EXPECT_EQ(dict.size(), kDistinct);
  for (std::size_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(early[i], dict.value(static_cast<DictCode>(i)));
    EXPECT_EQ(early[i].data(),
              dict.value(static_cast<DictCode>(i)).data());  // Same bytes.
  }
  EXPECT_EQ(dict.value(4999),
            "entity-4999-" + std::string(40, 'x'));  // Round-trip at the end.
}

TEST(DictionaryTest, ArenaNulTerminatesEveryValue) {
  // ParseNumber's in-place strtod relies on this: the byte one past every
  // interned string is readable and NUL.
  Dictionary dict;
  for (const char* s : {"123", "4.5", "not a number", ""}) {
    const DictCode code = dict.GetOrAdd(s);
    const std::string_view view = dict.value(code);
    EXPECT_EQ(view.data()[view.size()], '\0') << s;
  }
}

// ---- ParseNumber over views ---------------------------------------------

TEST(ParseNumberTest, ViewsWithAndWithoutTermination) {
  // A mid-buffer substring (no NUL at the end of the view) must still parse
  // via the copy-out path, and match the terminated parse bit for bit.
  const std::string buffer = "3.14159x";
  const std::string_view sub(buffer.data(), 7);  // "3.14159", 'x' follows.
  auto from_sub = ParseNumber(sub);
  auto from_string = ParseNumber(std::string("3.14159"));
  ASSERT_TRUE(from_sub.has_value());
  ASSERT_TRUE(from_string.has_value());
  EXPECT_EQ(*from_sub, *from_string);
  // The integer fast path agrees with the general parse.
  EXPECT_EQ(*ParseNumber("987654321098765"), 987654321098765.0);
  EXPECT_EQ(*ParseNumber(std::string_view("42x", 2)), 42.0);
  // Embedded NUL stops the parse — not a number.
  EXPECT_FALSE(ParseNumber(std::string_view("1\0002", 3)).has_value());
  EXPECT_FALSE(ParseNumber("").has_value());
}

// ---- TableBuilder / Table -----------------------------------------------

// One full row of `table`, copied out cell by cell.
std::vector<std::string> RowValues(const Table& table, EntityId id) {
  std::vector<std::string> row;
  for (std::size_t a = 0; a < table.num_attributes(); ++a) {
    row.emplace_back(table.ValueAt(id, a));
  }
  return row;
}

TablePtr MakeSmallTable() {
  TableBuilder builder("t", Schema({"id", "venue", "year"}));
  builder.Reserve(6);
  EXPECT_TRUE(builder.AddRow({"0", "EDBT", "2024"}).ok());
  EXPECT_TRUE(builder.AddRow({"1", "VLDB", "2024"}).ok());
  EXPECT_TRUE(builder.AddRow({"2", "EDBT", "2025"}).ok());
  EXPECT_TRUE(builder.AddRow({"3", "edbt", "2025"}).ok());
  EXPECT_TRUE(builder.AddRow({"4", "", "2024"}).ok());
  EXPECT_TRUE(builder.AddRow({"5", "EDBT", "2023"}).ok());
  return builder.Build();
}

TEST(TableBuilderTest, ArityMismatchFails) {
  TableBuilder builder("t", Schema({"a", "b"}));
  EXPECT_FALSE(builder.AddRow({}).ok());
  EXPECT_FALSE(builder.AddRow({"1"}).ok());
  EXPECT_FALSE(builder.AddRow({"1", "2", "3"}).ok());
  EXPECT_TRUE(builder.AddRow({"1", "2"}).ok());
  EXPECT_EQ(builder.num_rows(), 1u);  // Failed rows leave no trace.
  TablePtr table = builder.Build();
  ASSERT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->ValueAt(0, 0), "1");
  EXPECT_EQ(table->ValueAt(0, 1), "2");
}

TEST(TableTest, ColumnViewSharesCodesForEqualBytes) {
  TablePtr table = MakeSmallTable();
  const ColumnView venue = table->column(1);
  ASSERT_EQ(venue.size(), 6u);
  EXPECT_EQ(venue.code(0), venue.code(2));  // "EDBT" == "EDBT"
  EXPECT_EQ(venue.code(0), venue.code(5));
  EXPECT_NE(venue.code(0), venue.code(3));  // "EDBT" != "edbt" (byte-wise)
  EXPECT_NE(venue.code(0), venue.code(1));
  EXPECT_EQ(venue.value(4), "");
  EXPECT_EQ(venue.dictionary().size(), 4u);  // EDBT, VLDB, edbt, ""
  EXPECT_EQ(table->CodeAt(2, 1), venue.code(2));
  EXPECT_EQ(table->ValueAt(3, 1), "edbt");

  // The cells of a row reproduce the row as added.
  EXPECT_EQ(RowValues(*table, 3),
            (std::vector<std::string>{"3", "edbt", "2025"}));
}

// ---- TablePredicate ------------------------------------------------------

// Binds `expr` against `table` the way a fused scan predicate is bound:
// bound_index == attribute position.
ExprPtr BindToTable(ExprPtr expr, const Table& table) {
  std::vector<std::string> columns;
  for (const std::string& name : table.schema().names()) {
    columns.push_back("t." + name);
  }
  EXPECT_TRUE(expr->Bind(columns).ok());
  return expr;
}

// Matches() must agree with per-row evaluation on the materialized row,
// whichever internal path (truth table, hoisted column, full row) is taken.
void ExpectMatchesPerRow(const TablePredicate& predicate, const Expr& expr,
                         const Table& table) {
  for (EntityId e = 0; e < table.num_rows(); ++e) {
    const std::vector<std::string> row = RowValues(table, e);
    EXPECT_EQ(predicate.Matches(e), expr.EvalBoolFast(RowRef(row)))
        << "row " << e;
  }
}

TEST(TablePredicateTest, TruthTableForRepetitiveColumn) {
  TablePtr table = MakeSmallTable();
  // venue has 4 distinct values over 6 rows: 2*4 > 6 — just over the gate.
  // Repeat the rows so the dictionary is at most half the row count.
  TableBuilder builder("t", Schema({"id", "venue", "year"}));
  for (int copy = 0; copy < 3; ++copy) {
    for (EntityId e = 0; e < table->num_rows(); ++e) {
      EXPECT_TRUE(builder.AddRow(RowValues(*table, e)).ok());
    }
  }
  TablePtr big = builder.Build();
  ExprPtr expr = BindToTable(
      Expr::Compare(CompareOp::kEq, Expr::Column("t", "venue"),
                    Expr::Literal("edbt")),
      *big);
  TablePredicate predicate(expr.get(), big.get());
  EXPECT_TRUE(predicate.has_predicate());
  EXPECT_TRUE(predicate.uses_truth_table());
  ExpectMatchesPerRow(predicate, *expr, *big);
  // Case-insensitive comparison: both "EDBT" and "edbt" rows match.
  std::size_t matches = 0;
  for (EntityId e = 0; e < big->num_rows(); ++e) {
    if (predicate.Matches(e)) ++matches;
  }
  EXPECT_EQ(matches, 12u);  // 4 EDBT/edbt rows x 3 copies.
}

TEST(TablePredicateTest, CardinalityGateSkipsNearUniqueColumns) {
  // id is unique per row: the truth table would cost as much as the scan,
  // so the predicate keeps per-row evaluation over the hoisted column.
  TablePtr table = MakeSmallTable();
  ExprPtr expr = BindToTable(
      Expr::Compare(CompareOp::kLt, Expr::Column("t", "id"),
                    Expr::NumberLiteral(3)),
      *table);
  TablePredicate predicate(expr.get(), table.get());
  EXPECT_TRUE(predicate.has_predicate());
  EXPECT_FALSE(predicate.uses_truth_table());
  ExpectMatchesPerRow(predicate, *expr, *table);
}

TEST(TablePredicateTest, MultiColumnFallsBackToRowEvaluation) {
  TablePtr table = MakeSmallTable();
  ExprPtr expr = BindToTable(
      Expr::Compare(CompareOp::kGe, Expr::Column("t", "year"),
                    Expr::Column("t", "id")),
      *table);
  TablePredicate predicate(expr.get(), table.get());
  EXPECT_FALSE(predicate.uses_truth_table());
  ExpectMatchesPerRow(predicate, *expr, *table);

  TablePredicate match_all;
  EXPECT_FALSE(match_all.has_predicate());
  EXPECT_TRUE(match_all.Matches(0));
}

// ---- Reference-mode RowBatch --------------------------------------------

TEST(RowBatchTest, ReferenceModeReadsAndMaterializes) {
  TablePtr table = MakeSmallTable();
  const Lineage lineage({table.get()});
  RowBatch batch(4);
  batch.BeginReference(lineage);
  EXPECT_TRUE(batch.reference_mode());
  EXPECT_EQ(batch.lineage(), lineage);
  batch.AppendReference(1, 101);
  batch.AppendReference(3, 103);
  batch.AppendReference(4, 104);
  ASSERT_EQ(batch.size(), 3u);

  // Mode-agnostic reads view straight into the table's dictionaries.
  EXPECT_EQ(batch.value(0, 1), "VLDB");
  EXPECT_EQ(batch.value(1, 1), "edbt");
  EXPECT_EQ(batch.lineage().num_columns(), 3u);
  EXPECT_EQ(batch.group_key(2), 104u);
  EXPECT_EQ(batch.entity_id(1), 3u);
  EXPECT_EQ(batch.RowRefAt(2).Get(2), "2024");

  // Selection compaction works without touching storage.
  batch.Keep(0, 1);
  batch.TruncateSelection(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.entity_id(0), 3u);

  // Materialization copies out of the dictionaries.
  EXPECT_EQ(batch.TakeValues(0),
            (std::vector<std::string>{"3", "edbt", "2025"}));

  // Clear drops reference mode; the batch is reusable as owned.
  batch.Clear();
  EXPECT_FALSE(batch.reference_mode());
  *batch.AppendRow() = {"owned"};
  EXPECT_EQ(batch.value(0, 0), "owned");
}

TEST(RowBatchTest, JoinRowsReadEachTablesColumns) {
  TablePtr left = MakeSmallTable();
  TableBuilder builder("v", Schema({"title", "rank"}));
  ASSERT_TRUE(builder.AddRow({"EDBT", "A"}).ok());
  ASSERT_TRUE(builder.AddRow({"VLDB", "A*"}).ok());
  TablePtr right = builder.Build();
  const Lineage lineage =
      Lineage::Concat(Lineage({left.get()}), Lineage({right.get()}));
  ASSERT_EQ(lineage.num_tables(), 2u);
  ASSERT_EQ(lineage.num_columns(), 5u);

  RowBatch batch(2);
  batch.BeginReference(lineage);
  EntityId* ids = batch.AppendReferenceRow(7);
  ids[0] = 1;  // t row 1: "1", "VLDB", "2024".
  ids[1] = 1;  // v row 1: "VLDB", "A*".
  ids = batch.AppendReferenceRow(8);
  ids[0] = 5;
  ids[1] = 0;
  ASSERT_EQ(batch.size(), 2u);

  EXPECT_EQ(batch.value(0, 1), "VLDB");
  EXPECT_EQ(batch.value(0, 4), "A*");
  EXPECT_EQ(batch.RowRefAt(1).Get(3), "EDBT");
  EXPECT_EQ(batch.RowRefAt(1).Get(2), "2023");
  EXPECT_EQ(batch.group_key(1), 8u);
  // A join row maps to no single base-table entity.
  EXPECT_EQ(batch.entity_id(0), kInvalidEntityId);
  EXPECT_EQ(batch.entity_ids(1)[0], 5u);
  EXPECT_EQ(batch.entity_ids(1)[1], 0u);
  EXPECT_EQ(batch.TakeValues(1),
            (std::vector<std::string>{"5", "EDBT", "2023", "EDBT", "A"}));
}

// ---- QueryResult accessors ----------------------------------------------

TEST(QueryResultTest, AccessorsReadRows) {
  QueryResult result;
  result.columns = {"P.Title", "V.Rank"};
  result.rows = {{"a", "A"}, {"b", "B"}, {"c", "C"}};
  EXPECT_EQ(result.num_rows(), 3u);
  ASSERT_TRUE(result.ColumnIndex("v.rank").has_value());  // Case-insensitive.
  EXPECT_EQ(*result.ColumnIndex("v.rank"), 1u);
  EXPECT_EQ(*result.ColumnIndex("P.Title"), 0u);
  EXPECT_FALSE(result.ColumnIndex("missing").has_value());
  EXPECT_EQ(result.ValueAt(1, 0), "b");
  EXPECT_EQ(result.ValueAt(2, 1), "C");

  QueryResult empty;
  EXPECT_EQ(empty.num_rows(), 0u);
}

// ---- End-to-end equivalence sweep ---------------------------------------

std::vector<std::vector<std::string>> RunSql(
    const std::vector<TablePtr>& tables, const std::string& sql,
    std::size_t num_threads) {
  EngineOptions options;
  options.num_threads = num_threads;
  QueryEngine engine(options);
  for (const TablePtr& table : tables) {
    EXPECT_TRUE(engine.RegisterTable(table).ok());
  }
  auto result = engine.Execute(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  return result->rows;
}

class ColumnarSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Several default-size batches per table, so every operator crosses
    // batch boundaries.
    dsd_ = new datagen::GeneratedDataset(datagen::MakeDsdLike(2600, 4242));
    auto universe = datagen::MakeVenueUniverse(200, 7);
    oagp_ = new datagen::GeneratedDataset(
        datagen::MakeOagpLike(2400, universe, 11));
    oagv_ = new datagen::GeneratedDataset(
        datagen::MakeOagvLike(600, universe, 13));
  }
  static void TearDownTestSuite() {
    delete dsd_;
    delete oagp_;
    delete oagv_;
    dsd_ = oagp_ = oagv_ = nullptr;
  }

  static datagen::GeneratedDataset* dsd_;
  static datagen::GeneratedDataset* oagp_;
  static datagen::GeneratedDataset* oagv_;
};

datagen::GeneratedDataset* ColumnarSweepTest::dsd_ = nullptr;
datagen::GeneratedDataset* ColumnarSweepTest::oagp_ = nullptr;
datagen::GeneratedDataset* ColumnarSweepTest::oagv_ = nullptr;

constexpr std::size_t kThreads[] = {1, 4};

TEST_F(ColumnarSweepTest, ScanAnswersAreIdenticalAcrossMatrix) {
  const std::string sql = "SELECT * FROM dsd WHERE MOD(id, 100) < 30";
  const auto reference = RunSql({dsd_->table}, sql, 1);
  ASSERT_FALSE(reference.empty());
  for (std::size_t num_threads : kThreads) {
    EXPECT_EQ(RunSql({dsd_->table}, sql, num_threads), reference)
        << "threads=" << num_threads;
  }
}

TEST_F(ColumnarSweepTest, JoinAnswersAreIdenticalAcrossMatrix) {
  const std::string sql =
      "SELECT oagp.title, oagv.rank FROM oagp "
      "INNER JOIN oagv ON oagp.venue = oagv.title";
  const auto reference = RunSql({oagp_->table, oagv_->table}, sql, 1);
  ASSERT_FALSE(reference.empty());
  for (std::size_t num_threads : kThreads) {
    EXPECT_EQ(RunSql({oagp_->table, oagv_->table}, sql, num_threads),
              reference)
        << "threads=" << num_threads;
  }
}

TEST_F(ColumnarSweepTest, DedupAnswersAreIdenticalAcrossMatrix) {
  const std::string sql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";
  const auto reference = RunSql({dsd_->table}, sql, 1);
  ASSERT_FALSE(reference.empty());
  for (std::size_t num_threads : kThreads) {
    EXPECT_EQ(RunSql({dsd_->table}, sql, num_threads), reference)
        << "threads=" << num_threads;
  }
}

}  // namespace
}  // namespace queryer
