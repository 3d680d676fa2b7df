// The batch execution engine: RowBatch mechanics, batch predicate
// evaluation, and the two determinism contracts of the vectorized pipeline
// — query answers (and LinkIndex::num_links()) must be identical at every
// batch size (batch_size == 1 degenerates to row-at-a-time execution, so
// the sweep pins the batch path to the row path) and at every thread count
// of the comparison execution.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "exec/row_batch.h"
#include "plan/expr.h"

namespace queryer {
namespace {

TEST(RowBatchTest, AppendAndSelection) {
  RowBatch batch(4);
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_TRUE(batch.empty());
  for (int i = 0; i < 4; ++i) {
    Row* row = batch.AppendRow();
    row->values = {std::to_string(i)};
    row->entity_id = static_cast<EntityId>(i);
  }
  EXPECT_TRUE(batch.full());
  ASSERT_EQ(batch.size(), 4u);

  // Keep rows 1 and 3 (a filter compacting the selection).
  std::size_t out = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch.row(i).entity_id % 2 == 1) batch.Keep(out++, i);
  }
  batch.TruncateSelection(out);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.row(0).values[0], "1");
  EXPECT_EQ(batch.row(1).values[0], "3");
}

TEST(RowBatchTest, ClearReusesRowStorage) {
  RowBatch batch(2);
  Row* first = batch.AppendRow();
  first->values = {"abcdefghij"};
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  // The same slot (and its string storage) comes back after Clear.
  EXPECT_EQ(batch.AppendRow(), first);
}

TEST(RowBatchTest, ZeroCapacityClampsToOne) {
  RowBatch batch(0);
  EXPECT_EQ(batch.capacity(), 1u);
  batch.AppendRow();
  EXPECT_TRUE(batch.full());
}

// FilterBatch == per-row EvalBool on every predicate shape, including the
// allocation-free comparison fast path and its fallbacks.
TEST(FilterBatchTest, MatchesPerRowEvalBool) {
  const std::vector<std::string> columns = {"t.id", "t.name", "t.score"};
  std::vector<std::vector<std::string>> rows = {
      {"1", "Alice", "3.5"},  {"2", "bob", "7"},     {"3", "ALICE", "x"},
      {"17", "Carol", "-2"},  {"100", "", "3.5"},    {"5", "alice", ""},
      {"abc", "Dave", "0"},   {"6", "Eve", "100.0"},
  };

  std::vector<ExprPtr> predicates;
  predicates.push_back(Expr::Compare(CompareOp::kEq, Expr::Column("t", "name"),
                                     Expr::Literal("alice")));
  predicates.push_back(Expr::Compare(CompareOp::kLt, Expr::Column("t", "id"),
                                     Expr::NumberLiteral(10)));
  predicates.push_back(Expr::Compare(
      CompareOp::kGe, Expr::Column("t", "score"), Expr::Column("t", "id")));
  predicates.push_back(Expr::Compare(
      CompareOp::kEq,
      Expr::Mod(Expr::Column("t", "id"), Expr::NumberLiteral(5)),
      Expr::NumberLiteral(2)));
  // MOD against a non-numeric string: the fast path must fall back.
  predicates.push_back(Expr::Compare(
      CompareOp::kEq,
      Expr::Mod(Expr::Column("t", "id"), Expr::NumberLiteral(5)),
      Expr::Literal("nope")));
  predicates.push_back(Expr::And(
      Expr::Compare(CompareOp::kGt, Expr::Column("t", "id"),
                    Expr::NumberLiteral(2)),
      Expr::Like(Expr::Column("t", "name"), "%a%")));

  for (ExprPtr& predicate : predicates) {
    ASSERT_TRUE(predicate->Bind(columns).ok()) << predicate->ToString();
    RowBatch batch(rows.size());
    for (const auto& values : rows) batch.AppendRow()->values = values;
    std::vector<std::string> expected;
    for (const auto& values : rows) {
      if (predicate->EvalBool(values)) expected.push_back(values[0]);
    }
    predicate->FilterBatch(&batch);
    ASSERT_EQ(batch.size(), expected.size()) << predicate->ToString();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.row(i).values[0], expected[i]) << predicate->ToString();
    }
  }
}

struct RunOutcome {
  std::vector<std::vector<std::string>> rows;
  std::size_t num_links = 0;
  ExecStats stats;
};

// Executes `sql` on a fresh engine (cold Link Index) over `tables`,
// reporting the answer and, when `link_table` is non-empty, that table's
// final link count.
RunOutcome RunSql(const std::vector<TablePtr>& tables, const std::string& sql,
               std::size_t batch_size, std::size_t num_threads,
               const std::string& link_table = "") {
  EngineOptions options;
  options.batch_size = batch_size;
  options.num_threads = num_threads;
  QueryEngine engine(options);
  for (const TablePtr& table : tables) {
    EXPECT_TRUE(engine.RegisterTable(table).ok());
  }
  auto result = engine.Execute(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunOutcome outcome;
  if (result.ok()) {
    outcome.rows = std::move(result->rows);
    outcome.stats = result->stats;
  }
  if (!link_table.empty()) {
    auto runtime = engine.GetRuntime(link_table);
    EXPECT_TRUE(runtime.ok());
    outcome.num_links = (*runtime)->link_index().num_links();
  }
  return outcome;
}

constexpr std::size_t kBatchSizes[] = {1, 7, 1024};

class ExecBatchSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Several default-size batches per table, so every operator crosses
    // batch boundaries. Generated once; tables are immutable and shared.
    dsd_ = new datagen::GeneratedDataset(datagen::MakeDsdLike(2600, 4242));
    pubs_ = new datagen::GeneratedDataset(
        datagen::MakeMotivatingPublications());
    venues_ = new datagen::GeneratedDataset(datagen::MakeMotivatingVenues());
    // An OAGP/OAGV pair big enough that the join's probe side (left = the
    // papers) spans several default-size batches.
    auto universe = datagen::MakeVenueUniverse(300, 7);
    datagen::OagpOptions oagp_options;
    oagp_options.venue_join_fraction = 0.5;  // A joinier-than-paper mix.
    oagp_ = new datagen::GeneratedDataset(
        datagen::MakeOagpLike(3000, universe, 11, oagp_options));
    oagv_ = new datagen::GeneratedDataset(
        datagen::MakeOagvLike(800, universe, 13));
  }
  static void TearDownTestSuite() {
    delete dsd_;
    delete pubs_;
    delete venues_;
    delete oagp_;
    delete oagv_;
    dsd_ = nullptr;
    pubs_ = nullptr;
    venues_ = nullptr;
    oagp_ = nullptr;
    oagv_ = nullptr;
  }

  static datagen::GeneratedDataset* dsd_;
  static datagen::GeneratedDataset* pubs_;
  static datagen::GeneratedDataset* venues_;
  static datagen::GeneratedDataset* oagp_;
  static datagen::GeneratedDataset* oagv_;
};

datagen::GeneratedDataset* ExecBatchSweepTest::dsd_ = nullptr;
datagen::GeneratedDataset* ExecBatchSweepTest::pubs_ = nullptr;
datagen::GeneratedDataset* ExecBatchSweepTest::venues_ = nullptr;
datagen::GeneratedDataset* ExecBatchSweepTest::oagp_ = nullptr;
datagen::GeneratedDataset* ExecBatchSweepTest::oagv_ = nullptr;

// Plain relational queries (scan, fused filter, projection, hash join):
// identical answers at every batch size.
TEST_F(ExecBatchSweepTest, PlainQueriesIdenticalAcrossBatchSizes) {
  const std::vector<std::string> queries = {
      "SELECT * FROM dsd",
      "SELECT * FROM dsd WHERE MOD(id, 100) < 7",
      "SELECT title, year FROM dsd WHERE venue LIKE '%SIGMOD%'",
  };
  for (const std::string& sql : queries) {
    RunOutcome reference = RunSql({dsd_->table}, sql, 1, 1);
    for (std::size_t batch_size : kBatchSizes) {
      if (batch_size == 1) continue;
      RunOutcome outcome = RunSql({dsd_->table}, sql, batch_size, 1);
      EXPECT_EQ(outcome.rows, reference.rows) << sql << " @" << batch_size;
    }
  }
}

TEST_F(ExecBatchSweepTest, JoinIdenticalAcrossBatchSizes) {
  const std::string sql =
      "SELECT * FROM p INNER JOIN v ON p.venue = v.title";
  RunOutcome reference = RunSql({pubs_->table, venues_->table}, sql, 1, 1);
  EXPECT_FALSE(reference.rows.empty());
  for (std::size_t batch_size : kBatchSizes) {
    if (batch_size == 1) continue;
    RunOutcome outcome = RunSql({pubs_->table, venues_->table}, sql, batch_size, 1);
    EXPECT_EQ(outcome.rows, reference.rows) << "batch " << batch_size;
  }
}

// The full DEDUP pipeline: identical answers AND identical link counts at
// every batch size.
TEST_F(ExecBatchSweepTest, DedupIdenticalAcrossBatchSizes) {
  const std::string sql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";
  RunOutcome reference = RunSql({dsd_->table}, sql, 1, 1, "dsd");
  EXPECT_FALSE(reference.rows.empty());
  EXPECT_GT(reference.num_links, 0u);
  for (std::size_t batch_size : kBatchSizes) {
    if (batch_size == 1) continue;
    RunOutcome outcome = RunSql({dsd_->table}, sql, batch_size, 1, "dsd");
    EXPECT_EQ(outcome.rows, reference.rows) << "batch " << batch_size;
    EXPECT_EQ(outcome.num_links, reference.num_links) << "batch " << batch_size;
  }
}

// Scans: the num_threads x batch_size matrix returns the single-thread
// answer bit for bit.
TEST_F(ExecBatchSweepTest, ScanDeterminismMatrix) {
  const std::vector<std::string> queries = {
      "SELECT * FROM dsd WHERE MOD(id, 100) < 23",
      "SELECT id, title FROM dsd WHERE year >= 2000",
  };
  for (const std::string& sql : queries) {
    RunOutcome reference = RunSql({dsd_->table}, sql, 1024, 1);
    EXPECT_FALSE(reference.rows.empty());
    for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t batch_size : kBatchSizes) {
        RunOutcome outcome = RunSql({dsd_->table}, sql, batch_size, num_threads);
        EXPECT_EQ(outcome.rows, reference.rows)
            << sql << " threads=" << num_threads << " batch=" << batch_size;
      }
    }
  }
}

// The hash join: its answer is bit-identical to the single-thread run
// across the whole num_threads x batch_size matrix.
TEST_F(ExecBatchSweepTest, JoinDeterminismMatrix) {
  const std::vector<std::string> queries = {
      "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title",
      // A fused-filtered scan feeding the probe side.
      "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title "
      "WHERE MOD(oagp.id, 100) < 50",
  };
  for (const std::string& sql : queries) {
    RunOutcome reference = RunSql({oagp_->table, oagv_->table}, sql, 1024, 1);
    EXPECT_FALSE(reference.rows.empty());
    for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t batch_size : kBatchSizes) {
        RunOutcome outcome =
            RunSql({oagp_->table, oagv_->table}, sql, batch_size, num_threads);
        EXPECT_EQ(outcome.rows, reference.rows)
            << sql << " threads=" << num_threads << " batch=" << batch_size;
      }
    }
  }
}

// Group-Entities over a parallel resolution: the grouping is bit-identical
// to the single-thread run, for answers AND link counts, across the
// num_threads x batch_size matrix.
TEST_F(ExecBatchSweepTest, GroupEntitiesDeterminismMatrix) {
  const std::string sql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 50";
  RunOutcome reference = RunSql({dsd_->table}, sql, 1024, 1, "dsd");
  EXPECT_FALSE(reference.rows.empty());
  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t batch_size : kBatchSizes) {
      RunOutcome outcome =
          RunSql({dsd_->table}, sql, batch_size, num_threads, "dsd");
      EXPECT_EQ(outcome.rows, reference.rows)
          << "threads=" << num_threads << " batch=" << batch_size;
      EXPECT_EQ(outcome.num_links, reference.num_links)
          << "threads=" << num_threads << " batch=" << batch_size;
    }
  }
}

// DEDUP over a filtered scan: answers and link counts match the
// single-thread run (the scan feeds the Deduplicate operator, so this pins
// the whole ER pipeline on top of the source).
TEST_F(ExecBatchSweepTest, ScanDedupDeterminism) {
  const std::string sql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";
  RunOutcome reference = RunSql({dsd_->table}, sql, 1024, 1, "dsd");
  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    RunOutcome outcome = RunSql({dsd_->table}, sql, 1024, num_threads, "dsd");
    EXPECT_EQ(outcome.rows, reference.rows) << "threads " << num_threads;
    EXPECT_EQ(outcome.num_links, reference.num_links)
        << "threads " << num_threads;
  }
}

}  // namespace
}  // namespace queryer
