// End-to-end tests of the QueryEngine facade over the paper's motivating
// example: the DEDUP query of Sec. 2 must produce exactly the Table 3
// result, under every execution mode.

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/scholarly.h"
#include "engine/query_engine.h"

namespace queryer {
namespace {

constexpr const char* kPaperQuery =
    "SELECT DEDUP P.Title, P.Year, V.Rank FROM P INNER JOIN V ON "
    "P.venue = V.title WHERE P.venue = 'EDBT'";

std::vector<std::vector<std::string>> Sorted(
    std::vector<std::vector<std::string>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

class EngineTest : public ::testing::Test {
 protected:
  static EngineOptions Options() {
    EngineOptions options;
    // The 14-row example is too small for Edge Pruning statistics to be
    // meaningful; BP+BF keeps all true pairs.
    options.meta_blocking = MetaBlockingConfig::BpBf();
    return options;
  }

  void RegisterExample(QueryEngine* engine) {
    ASSERT_TRUE(
        engine->RegisterTable(datagen::MakeMotivatingPublications().table).ok());
    ASSERT_TRUE(
        engine->RegisterTable(datagen::MakeMotivatingVenues().table).ok());
  }
};

TEST_F(EngineTest, PlainQueryMissesDuplicates) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  auto result = engine.Execute(
      "SELECT P.Title, P.Year, V.Rank FROM P INNER JOIN V ON P.venue = "
      "V.title WHERE P.venue = 'EDBT'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Plain SQL: P1, P6, P8 join V4 only; no ranks (V4's rank is null).
  EXPECT_EQ(result->rows.size(), 3u);
  for (const auto& row : result->rows) EXPECT_EQ(row[2], "");
}

TEST_F(EngineTest, DedupQueryProducesTable3) {
  for (ExecutionMode mode :
       {ExecutionMode::kBatch, ExecutionMode::kNaive, ExecutionMode::kNaive2,
        ExecutionMode::kAdvanced}) {
    QueryEngine engine(Options());
    RegisterExample(&engine);
    engine.set_mode(mode);
    auto result = engine.Execute(kPaperQuery);
    ASSERT_TRUE(result.ok())
        << ExecutionModeToString(mode) << ": " << result.status().ToString();
    auto rows = Sorted(result->rows);
    ASSERT_EQ(rows.size(), 2u) << ExecutionModeToString(mode);
    // Paper Table 3 (attribute variants fused with " | ").
    EXPECT_EQ(rows[0][0],
              "Collective Entity Resolution | Collective E.R.");
    EXPECT_EQ(rows[0][1], "2008");
    EXPECT_EQ(rows[0][2], "1");
    EXPECT_EQ(rows[1][0],
              "E.R for consumer data | Entity-Resolution for consumer data");
    EXPECT_EQ(rows[1][1], "2015");
    EXPECT_EQ(rows[1][2], "1");
  }
}

TEST_F(EngineTest, AllModesAgreeOnSelectStar) {
  std::vector<std::vector<std::vector<std::string>>> outputs;
  for (ExecutionMode mode :
       {ExecutionMode::kBatch, ExecutionMode::kNaive, ExecutionMode::kNaive2,
        ExecutionMode::kAdvanced}) {
    QueryEngine engine(Options());
    RegisterExample(&engine);
    engine.set_mode(mode);
    auto result =
        engine.Execute("SELECT DEDUP * FROM P WHERE P.venue = 'EDBT'");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    outputs.push_back(Sorted(result->rows));
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[0], outputs[i]) << "mode " << i << " diverged";
  }
}

TEST_F(EngineTest, SpDedupQueryGroupsDuplicates) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  auto result = engine.Execute(
      "SELECT DEDUP title FROM P WHERE title LIKE '%consumer%'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0],
            "E.R for consumer data | Entity-Resolution for consumer data");
}

TEST_F(EngineTest, BatchModeDoesAllComparisonsUpfront) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  engine.set_mode(ExecutionMode::kBatch);
  auto first = engine.Execute(kPaperQuery);
  ASSERT_TRUE(first.ok());
  std::size_t batch_comparisons = first->stats.comparisons_executed;

  QueryEngine lazy(Options());
  ASSERT_TRUE(
      lazy.RegisterTable(datagen::MakeMotivatingPublications().table).ok());
  ASSERT_TRUE(lazy.RegisterTable(datagen::MakeMotivatingVenues().table).ok());
  lazy.set_mode(ExecutionMode::kAdvanced);
  auto aes = lazy.Execute(kPaperQuery);
  ASSERT_TRUE(aes.ok());
  // The analysis-aware path never exceeds batch ER. (On this 14-row example
  // most entities join, so equality is possible; the strict gap is asserted
  // at realistic scale below.)
  EXPECT_LE(aes->stats.comparisons_executed, batch_comparisons);
}

TEST_F(EngineTest, AnalysisAwarePathBeatsBatchAtScale) {
  auto dsd = datagen::MakeDsdLike(2500, 55);
  const char* sql = "SELECT DEDUP title FROM dsd WHERE venue = 'CIDR'";

  QueryEngine batch(Options());
  ASSERT_TRUE(batch.RegisterTable(dsd.table).ok());
  batch.set_mode(ExecutionMode::kBatch);
  auto ba = batch.Execute(sql);
  ASSERT_TRUE(ba.ok());

  QueryEngine lazy(Options());
  ASSERT_TRUE(lazy.RegisterTable(dsd.table).ok());
  lazy.set_mode(ExecutionMode::kAdvanced);
  auto aes = lazy.Execute(sql);
  ASSERT_TRUE(aes.ok());

  EXPECT_GT(ba->stats.comparisons_executed, 0u);
  // A selective query must resolve far less than the whole table.
  EXPECT_LT(aes->stats.comparisons_executed,
            ba->stats.comparisons_executed / 2);
}

TEST_F(EngineTest, LinkIndexMakesRepeatsCheaper) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  auto first = engine.Execute(kPaperQuery);
  ASSERT_TRUE(first.ok());
  auto second = engine.Execute(kPaperQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->stats.comparisons_executed, 0u);
  EXPECT_EQ(second->stats.comparisons_executed, 0u);
  EXPECT_EQ(second->rows.size(), first->rows.size());
}

// The without-LI arm of Fig. 11: forgetting every table's links before a
// query makes a repeat pay the full resolution again.
TEST_F(EngineTest, WithoutLinkIndexRepeatsPayAgain) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  auto reset_and_execute = [&engine] {
    for (const char* table : {"P", "V"}) {
      auto runtime = engine.GetRuntime(table);
      EXPECT_TRUE(runtime.ok());
      if (runtime.ok()) (*runtime)->ResetLinkIndex();
    }
    return engine.Execute(kPaperQuery);
  };
  auto first = reset_and_execute();
  ASSERT_TRUE(first.ok());
  auto second = reset_and_execute();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.comparisons_executed,
            first->stats.comparisons_executed);
  EXPECT_GT(second->stats.comparisons_executed, 0u);
}

TEST_F(EngineTest, ExplainShowsOperators) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  engine.set_mode(ExecutionMode::kAdvanced);
  auto plan = engine.Explain(kPaperQuery);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("DedupJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("GroupEntities"), std::string::npos);
  EXPECT_NE(plan->find("Project"), std::string::npos);
}

// MOD by a divisor that truncates to 0 is non-numeric, so the predicate
// selects nothing; the integer division by zero used to kill the process.
TEST_F(EngineTest, ModByFractionalDivisorSelectsNothing) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  for (const char* sql : {"SELECT id FROM P WHERE MOD(year, 0.5) = 0",
                          "SELECT DEDUP id FROM P WHERE MOD(year, 0.9) = 0"}) {
    auto result = engine.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    EXPECT_EQ(result->num_rows(), 0u) << sql;
  }
  // The other side of an OR still selects.
  auto even = engine.Execute("SELECT id FROM P WHERE MOD(year, 2) = 0");
  auto either = engine.Execute(
      "SELECT id FROM P WHERE MOD(year, 0.5) = 0 OR MOD(year, 2) = 0");
  ASSERT_TRUE(even.ok());
  ASSERT_TRUE(either.ok()) << either.status().ToString();
  EXPECT_GT(even->num_rows(), 0u);
  EXPECT_EQ(either->rows, even->rows);
}

TEST_F(EngineTest, ErrorsSurfaceCleanly) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  EXPECT_TRUE(engine.Execute("SELECT * FROM missing").status().IsNotFound());
  EXPECT_TRUE(engine.Execute("SELEC garbage").status().IsParseError());
  EXPECT_TRUE(
      engine.Execute("SELECT nope FROM P").status().IsPlanError());
  EXPECT_FALSE(engine.RegisterTable(nullptr).ok());
  EXPECT_EQ(
      engine.RegisterTable(datagen::MakeMotivatingVenues().table).code(),
      StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, CsvRegistrationWorks) {
  QueryEngine engine(Options());
  std::string path = testing::TempDir() + "/queryer_engine_test.csv";
  ASSERT_TRUE(
      WriteCsvFile(*datagen::MakeMotivatingPublications().table, path).ok());
  ASSERT_TRUE(engine.RegisterCsvFile(path, "pubs").ok());
  auto result = engine.Execute("SELECT title FROM pubs WHERE venue = 'EDBT'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
  std::remove(path.c_str());
}

TEST_F(EngineTest, StatsBreakdownIsConsistent) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  auto result = engine.Execute(kPaperQuery);
  ASSERT_TRUE(result.ok());
  const ExecStats& stats = result->stats;
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GE(stats.other_seconds(), 0.0);
  EXPECT_GE(stats.relational_seconds(), 0.0);
  double sum = stats.blocking_seconds + stats.block_join_seconds +
               stats.meta_blocking_seconds() + stats.resolution_seconds +
               stats.group_seconds + stats.relational_seconds() +
               stats.other_seconds();
  EXPECT_NEAR(sum, stats.total_seconds, 1e-6);
  EXPECT_FALSE(stats.ToString().empty());
  // The ER funnel narrows stage by stage.
  EXPECT_GT(stats.blocks_after_join, 0u);
  EXPECT_GE(stats.blocks_after_join, stats.blocks_after_purging);
  EXPECT_GE(stats.blocks_after_purging, stats.blocks_after_filtering);
  EXPECT_GE(stats.comparisons_before_pruning,
            stats.comparisons_after_metablocking);
}

TEST_F(EngineTest, BatchModeReportsMetaBlockingFunnel) {
  QueryEngine engine(Options());
  RegisterExample(&engine);
  engine.set_mode(ExecutionMode::kBatch);
  auto result = engine.Execute(kPaperQuery);
  ASSERT_TRUE(result.ok());
  const ExecStats& stats = result->stats;
  EXPECT_GT(stats.blocks_after_purging, 0u);
  EXPECT_GE(stats.blocks_after_purging, stats.blocks_after_filtering);
  EXPECT_GE(stats.comparisons_before_pruning,
            stats.comparisons_after_metablocking);
  EXPECT_GT(stats.comparisons_after_metablocking, 0u);
}

}  // namespace
}  // namespace queryer
