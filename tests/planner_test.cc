// Unit tests for the cost-based planner: statistics, comparison estimation
// and plan-shape selection (NES / NES2 / AES, Dirty-Left vs Dirty-Right).

#include <gtest/gtest.h>

#include "datagen/orgs.h"
#include "datagen/people.h"
#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "funnel_oracle.h"
#include "planner/planner.h"
#include "planner/statistics.h"

namespace queryer {
namespace {

// Exclude the e_id column from blocking and matching, as the engine does.
BlockingOptions TestBlocking() {
  BlockingOptions options;
  options.excluded_attributes = {0};
  return options;
}
MatchingConfig TestMatching() {
  MatchingConfig config;
  config.excluded_attributes = {0};
  return config;
}

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto p = datagen::MakeMotivatingPublications();
    auto v = datagen::MakeMotivatingVenues();
    catalog_.RegisterOrReplace(p.table);
    catalog_.RegisterOrReplace(v.table);
    runtimes_["p"] = std::make_shared<TableRuntime>(
        p.table, TestBlocking(), MetaBlockingConfig::BpBf(), TestMatching());
    runtimes_["v"] = std::make_shared<TableRuntime>(
        v.table, TestBlocking(), MetaBlockingConfig::BpBf(), TestMatching());
  }

  Result<PlanPtr> Plan(const std::string& sql, PlannerMode mode) {
    auto stmt = ParseSelect(sql);
    if (!stmt.ok()) return stmt.status();
    Planner planner(&catalog_, &runtimes_, &statistics_);
    return planner.BuildPlan(*stmt, mode);
  }

  Catalog catalog_;
  RuntimeRegistry runtimes_;
  StatisticsCache statistics_;
};

constexpr const char* kSpDedup =
    "SELECT DEDUP title FROM p WHERE venue = 'EDBT'";
constexpr const char* kSpjDedup =
    "SELECT DEDUP p.title, v.rank FROM p INNER JOIN v ON p.venue = v.title "
    "WHERE p.venue = 'EDBT'";

TEST_F(PlannerTest, SpNaivePutsDedupAboveScan) {
  auto plan = Plan(kSpDedup, PlannerMode::kNaive);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = (*plan)->ToString();
  // GroupFilter above Deduplicate above TableScan (Fig. 5 shape).
  std::size_t group_filter = text.find("GroupFilter");
  std::size_t dedup = text.find("Deduplicate");
  std::size_t scan = text.find("TableScan");
  ASSERT_NE(group_filter, std::string::npos) << text;
  ASSERT_NE(dedup, std::string::npos);
  EXPECT_LT(group_filter, dedup);
  EXPECT_LT(dedup, scan);
}

TEST_F(PlannerTest, SpNaive2PutsDedupAboveFilter) {
  auto plan = Plan(kSpDedup, PlannerMode::kNaive2);
  ASSERT_TRUE(plan.ok());
  std::string text = (*plan)->ToString();
  std::size_t dedup = text.find("Deduplicate");
  std::size_t filter = text.find("Filter(");
  ASSERT_NE(dedup, std::string::npos) << text;
  ASSERT_NE(filter, std::string::npos);
  EXPECT_LT(dedup, filter);  // Dedup above Filter (Fig. 6 shape).
  EXPECT_EQ(text.find("GroupFilter"), std::string::npos);
}

TEST_F(PlannerTest, SpjNaiveUsesCleanJoin) {
  auto plan = Plan(kSpjDedup, PlannerMode::kNaive);
  ASSERT_TRUE(plan.ok());
  std::string text = (*plan)->ToString();
  EXPECT_NE(text.find("DedupJoin[Clean]"), std::string::npos) << text;
  // Both branches carry their own Deduplicate.
  std::size_t first = text.find("Deduplicate");
  std::size_t second = text.find("Deduplicate", first + 1);
  EXPECT_NE(second, std::string::npos);
}

TEST_F(PlannerTest, SpjAdvancedCleansSelectiveBranchFirst) {
  auto plan = Plan(kSpjDedup, PlannerMode::kAdvanced);
  ASSERT_TRUE(plan.ok());
  std::string text = (*plan)->ToString();
  // The dirty branch enters the join unfiltered (its own join value may be
  // corrupted), so the filtered P selection is the cheap side to clean:
  // Dirty-Right, with P's predicate pushed into the Deduplicate branch.
  EXPECT_NE(text.find("DedupJoin[Dirty-Right]"), std::string::npos) << text;
  // Exactly one Deduplicate operator in the tree (the dirty side resolves
  // inside the join).
  std::size_t first = text.find("Deduplicate");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("Deduplicate", first + 1), std::string::npos);
}

TEST_F(PlannerTest, SpjAdvancedFlipsWhenOtherSideCheaper) {
  // Without any predicate, both sides would be fully resolved; the smaller
  // V table is the cheaper branch to clean first: Dirty-Left.
  auto plan = Plan(
      "SELECT DEDUP p.title FROM p INNER JOIN v ON p.venue = v.title",
      PlannerMode::kAdvanced);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = (*plan)->ToString();
  EXPECT_NE(text.find("DedupJoin[Dirty-Left]"), std::string::npos) << text;
}

TEST_F(PlannerTest, AdvancedDirtySidePredicateBecomesGroupFilter) {
  auto plan = Plan(
      "SELECT DEDUP p.title FROM p INNER JOIN v ON p.venue = v.title "
      "WHERE p.venue = 'EDBT' AND v.rank = 1",
      PlannerMode::kAdvanced);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = (*plan)->ToString();
  // The dirty side's predicate must be applied duplicate-group-aware above
  // the join, and its scan must be unfiltered.
  EXPECT_NE(text.find("GroupFilter"), std::string::npos) << text;
  std::size_t group_filter = text.find("GroupFilter");
  std::size_t join = text.find("DedupJoin");
  EXPECT_LT(group_filter, join) << text;
}

TEST_F(PlannerTest, PlainQueryHasNoErOperators) {
  auto plan = Plan(
      "SELECT p.title FROM p INNER JOIN v ON p.venue = v.title "
      "WHERE p.year > 2000",
      PlannerMode::kAdvanced);
  ASSERT_TRUE(plan.ok());
  std::string text = (*plan)->ToString();
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_EQ(text.find("Dedup"), std::string::npos);
  EXPECT_EQ(text.find("GroupEntities"), std::string::npos);
}

TEST_F(PlannerTest, WhereStyleEquijoinBecomesJoin) {
  auto plan = Plan(
      "SELECT DEDUP p.title FROM p INNER JOIN v ON p.venue = v.title "
      "WHERE p.venue = v.title AND p.year > 2000",
      PlannerMode::kNaive2);
  // The WHERE equijoin duplicates the ON condition; it must not break
  // planning (it re-joins the same pair, which the planner folds).
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
}

TEST_F(PlannerTest, UnknownTableOrColumnFails) {
  EXPECT_FALSE(Plan("SELECT DEDUP x FROM unknown", PlannerMode::kNaive).ok());
  EXPECT_FALSE(
      Plan("SELECT DEDUP nope FROM p", PlannerMode::kNaive).ok());
  // Ambiguity: both p and v have a "title" column.
  EXPECT_FALSE(Plan(
                   "SELECT DEDUP title FROM p INNER JOIN v ON p.venue = "
                   "v.title WHERE title = 'EDBT'",
                   PlannerMode::kNaive)
                   .ok());
}

TEST_F(PlannerTest, EstimateComparisonsPerBranch) {
  // kSpjDedup's two branches: P under its predicate, V whole.
  ExprPtr edbt = Expr::Compare(CompareOp::kEq, Expr::Column("p", "venue"),
                               Expr::Literal("EDBT"));
  auto p_cost =
      statistics_.EstimateComparisons(runtimes_["p"].get(), edbt.get(), "p");
  auto v_cost =
      statistics_.EstimateComparisons(runtimes_["v"].get(), nullptr, "v");
  ASSERT_TRUE(p_cost.ok());
  ASSERT_TRUE(v_cost.ok());
  EXPECT_GT(*p_cost, 0.0);
  EXPECT_GT(*v_cost, 0.0);
  // Paper Table 5 ordering: the whole (small) V table costs less than the
  // EDBT selection of P, whose entities sit in the example's big blocks.
  EXPECT_LT(*v_cost, *p_cost);
  // A predicate that does not address the branch's alias fails to bind.
  EXPECT_FALSE(
      statistics_.EstimateComparisons(runtimes_["p"].get(), edbt.get(), "zzz")
          .ok());
}

TEST(StatisticsTest, JoinFractionMeasuresOverlap) {
  auto oao = datagen::MakeOrganisations(300, 5);
  std::vector<std::string> pool = datagen::OrganisationNamePool(oao);
  auto ppl = datagen::MakePeople(900, pool, 6);
  TableRuntime ppl_rt(ppl.table, TestBlocking(), MetaBlockingConfig::All(),
                      TestMatching());
  TableRuntime oao_rt(oao.table, TestBlocking(), MetaBlockingConfig::All(),
                      TestMatching());
  StatisticsCache stats;
  double fraction = stats.JoinFraction(&ppl_rt, "org", &oao_rt, "name");
  EXPECT_GT(fraction, 0.5);  // Originals all join; duplicates may not.
  EXPECT_LE(fraction, 1.0);
  // Unknown column yields zero, not an error.
  EXPECT_DOUBLE_EQ(stats.JoinFraction(&ppl_rt, "nope", &oao_rt, "name"), 0.0);
}

TEST(StatisticsTest, EstimationTracksSelectivity) {
  auto dsd = datagen::MakeDsdLike(4000, 13);
  TableRuntime runtime(dsd.table, TestBlocking(), MetaBlockingConfig::All(),
                       TestMatching());
  StatisticsCache stats;

  ExprPtr narrow = Expr::Compare(CompareOp::kEq, Expr::Column("dsd", "venue"),
                                 Expr::Literal("EDBT"));
  ExprPtr wide = nullptr;  // Whole table.
  auto narrow_cost = stats.EstimateComparisons(&runtime, narrow.get(), "dsd");
  auto wide_cost = stats.EstimateComparisons(&runtime, nullptr, "dsd");
  ASSERT_TRUE(narrow_cost.ok());
  ASSERT_TRUE(wide_cost.ok());
  EXPECT_LT(*narrow_cost, *wide_cost);
  EXPECT_GT(*wide_cost, 0.0);
}

TEST(StatisticsTest, ResolvedEntitiesCostNothing) {
  auto dsd = datagen::MakeDsdLike(800, 19);
  TableRuntime runtime(dsd.table, TestBlocking(), MetaBlockingConfig::All(),
                       TestMatching());
  std::vector<EntityId> all;
  for (EntityId e = 0; e < dsd.table->num_rows(); ++e) all.push_back(e);
  double before = ApproximateComparisonsAfterMetaBlocking(&runtime, all);
  EXPECT_GT(before, 0.0);
  runtime.link_index().MarkResolvedBatch(all);
  EXPECT_DOUBLE_EQ(ApproximateComparisonsAfterMetaBlocking(&runtime, all), 0.0);
}

// The entities `predicate` selects, by per-row evaluation over the table.
std::vector<EntityId> SelectedByRow(const Table& table, Expr* predicate,
                                    const std::string& alias) {
  std::vector<std::string> columns;
  for (const std::string& name : table.schema().names()) {
    columns.push_back(alias + "." + name);
  }
  EXPECT_TRUE(predicate->Bind(columns).ok());
  std::vector<EntityId> selected;
  for (EntityId e = 0; e < table.num_rows(); ++e) {
    if (predicate->EvalBoolFast(RowRef(table, e))) selected.push_back(e);
  }
  return selected;
}

TEST(StatisticsTest, LikeEstimatesFollowTheExactSelection) {
  // A LIKE pattern's wildcard-adjacent fragment is no blocking key: the
  // estimate must come from the entities the pattern actually selects.
  auto dsd = datagen::MakeDsdLike(4000, 13);
  TableRuntime runtime(dsd.table, TestBlocking(), MetaBlockingConfig::All(),
                       TestMatching());
  StatisticsCache stats;
  for (const char* pattern : {"EDB%", "%DB%"}) {
    ExprPtr like = Expr::Like(Expr::Column("dsd", "venue"), pattern);
    std::vector<EntityId> selected =
        SelectedByRow(*dsd.table, like->Clone().get(), "dsd");
    ASSERT_FALSE(selected.empty()) << pattern;
    auto estimate = stats.EstimateComparisons(&runtime, like.get(), "dsd");
    ASSERT_TRUE(estimate.ok()) << pattern;
    EXPECT_EQ(*estimate,
              ApproximateComparisonsAfterMetaBlocking(&runtime, selected))
        << pattern;
    EXPECT_GT(*estimate, 0.0) << pattern;
  }
}

TEST(StatisticsTest, DenseFunnelEqualsHashContainerOracle) {
  auto oao = datagen::MakeOrganisations(600, 5);
  std::vector<std::string> pool = datagen::OrganisationNamePool(oao);
  auto ppl = datagen::MakePeople(1500, pool, 6);
  auto dsd = datagen::MakeDsdLike(1500, 7);
  auto universe = datagen::MakeVenueUniverse(200, 8);
  auto oagp = datagen::MakeOagpLike(1500, universe, 9);
  const std::pair<const char*, MetaBlockingConfig> configs[] = {
      {"All", MetaBlockingConfig::All()},
      {"BpBf", MetaBlockingConfig::BpBf()},
      {"BpEp", MetaBlockingConfig::BpEp()},
      {"None", MetaBlockingConfig::None()}};
  for (const auto* data : {&oao, &ppl, &dsd, &oagp}) {
    const std::string& name = data->table->name();
    const std::size_t rows = data->table->num_rows();
    std::vector<EntityId> all, slice, half;
    for (EntityId e = 0; e < rows; ++e) {
      all.push_back(e);
      if (e % 200 == 3) slice.push_back(e);
      if (e % 2 == 0) half.push_back(e);
    }
    const std::vector<std::vector<EntityId>> selections = {
        {}, {static_cast<EntityId>(rows / 2)}, slice, half, all};
    TableRuntime runtime(data->table, TestBlocking(),
                         MetaBlockingConfig::All(), TestMatching());
    // Cold Link Index, then every third entity resolved.
    for (bool partly_resolved : {false, true}) {
      if (partly_resolved) {
        std::vector<EntityId> resolved;
        for (EntityId e = 0; e < rows; e += 3) resolved.push_back(e);
        runtime.link_index().MarkResolvedBatch(resolved);
      }
      for (const auto& [config_name, config] : configs) {
        runtime.set_meta_blocking_config(config);
        for (std::size_t s = 0; s < selections.size(); ++s) {
          EXPECT_EQ(ApproximateComparisonsAfterMetaBlocking(&runtime,
                                                            selections[s]),
                    OracleApproximateComparisons(&runtime, selections[s]))
              << name << " " << config_name << " selection " << s
              << (partly_resolved ? " partly resolved" : " cold");
        }
      }
    }
    EXPECT_GT(ApproximateComparisonsAfterMetaBlocking(&runtime, all), 0.0)
        << name;
  }
}

}  // namespace
}  // namespace queryer
