// Unit tests for Jaro-Winkler, value and profile similarity, the Link
// Index and Comparison-Execution.

#include <gtest/gtest.h>

#include "datagen/scholarly.h"
#include "matching/comparison_execution.h"
#include "matching/link_index.h"
#include "matching/similarity.h"

namespace queryer {
namespace {

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  // Classic test vector: JARO("martha","marhta") = 0.944444...
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444, 1e-5);
  // JARO("dixon","dicksonx") = 0.766667.
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.766667, 1e-5);
}

TEST(JaroWinklerTest, PrefixBoost) {
  // JW("martha","marhta") = 0.961111 with standard 0.1 scaling.
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.961111, 1e-5);
  // JW("dixon","dicksonx") = 0.813333.
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.813333, 1e-5);
  // Boost never lowers the score.
  EXPECT_GE(JaroWinklerSimilarity("prefix", "pretext"),
            JaroSimilarity("prefix", "pretext"));
}

TEST(JaroTest, Symmetric) {
  const char* samples[] = {"entity", "entty", "resolution", "resolutoin"};
  for (const char* a : samples) {
    for (const char* b : samples) {
      EXPECT_DOUBLE_EQ(JaroSimilarity(a, b), JaroSimilarity(b, a));
      EXPECT_DOUBLE_EQ(JaroWinklerSimilarity(a, b), JaroWinklerSimilarity(b, a));
    }
  }
}

MatchingConfig TestConfig() {
  MatchingConfig config;
  config.excluded_attributes = {0};  // The e_id column of the test tables.
  return config;
}

TEST(ValueSimilarityTest, ExactAndEmpty) {
  EXPECT_DOUBLE_EQ(ValueSimilarity("edbt", "edbt"), 1.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity("x", ""), 0.0);
}

TEST(ValueSimilarityTest, NumericValuesCompareByEquality) {
  EXPECT_DOUBLE_EQ(ValueSimilarity("2008", "2008"), 1.0);
  // "2008" and "2009" are one edit apart but are different years.
  EXPECT_DOUBLE_EQ(ValueSimilarity("2008", "2009"), 0.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity("7", "7.0"), 1.0);
}

TEST(ValueSimilarityTest, NonFiniteNumbersAreWords) {
  // strtod parses these, but only finite numbers compare numerically:
  // identical strings must not score 0.
  EXPECT_DOUBLE_EQ(ValueSimilarity("Nan", "Nan"), 1.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity("nan", "NaN"), 1.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity("inf", "INF"), 1.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity("infinity", "Infinity"), 1.0);
  // "-inf" tokenizes to "inf": the same word, whatever the sign.
  EXPECT_DOUBLE_EQ(ValueSimilarity("inf", "-inf"), 1.0);
  // A non-finite value against a number is a word against a number.
  EXPECT_DOUBLE_EQ(ValueSimilarity("nan", "7"), 0.0);
  // Two different corrupted phone numbers that overflow to infinity are
  // not the same number.
  EXPECT_DOUBLE_EQ(ValueSimilarity("0472537e765", "049316e6219"), 0.0);
  // Finite numbers still compare by value.
  EXPECT_DOUBLE_EQ(ValueSimilarity("1e3", "1000"), 1.0);
}

TEST(ValueSimilarityTest, AbbreviationsMatch) {
  // "Collective E.R." vs "Collective Entity Resolution": e->entity,
  // r->resolution via the single-letter rule.
  EXPECT_DOUBLE_EQ(
      ValueSimilarity("collective e.r.", "collective entity resolution"), 1.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity("j. davids", "jane davids"), 1.0);
}

TEST(ValueSimilarityTest, TyposMatchViaKernel) {
  // One transposition: "entity" vs "enitty" clears the 0.88 JW bar.
  EXPECT_DOUBLE_EQ(ValueSimilarity("entity resolution", "enitty resolution"),
                   1.0);
  // Disjoint tokens share nothing.
  EXPECT_DOUBLE_EQ(ValueSimilarity("alpha beta", "gamma delta"), 0.0);
}

TEST(ValueSimilarityTest, TokenSwapsAreFree) {
  EXPECT_DOUBLE_EQ(ValueSimilarity("davidson lisa", "lisa davidson"), 1.0);
}

// A table of the given rows, for comparing rows 0 and 1.
TablePtr TwoRowTable(const std::vector<std::string>& columns,
                     const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  TableBuilder builder("t", Schema(columns));
  EXPECT_TRUE(builder.AddRow(a).ok());
  EXPECT_TRUE(builder.AddRow(b).ok());
  return builder.Build();
}

TEST(ProfileSimilarityTest, SkipsMissingValues) {
  TablePtr t = TwoRowTable(
      {"id", "title", "authors", "venue"},
      {"id1", "Collective Entity Resolution", "", "EDBT"},
      {"id2", "Collective Entity Resolution", "Allan Blake", "EDBT"});
  // Attribute 2 is skipped (empty on one side); the rest are identical.
  EXPECT_DOUBLE_EQ(ProfileSimilarity(*t, 0, 1, TestConfig()), 1.0);
}

TEST(ProfileSimilarityTest, CaseInsensitive) {
  TablePtr t = TwoRowTable({"id", "venue"}, {"x", "EDBT"}, {"x", "edbt"});
  EXPECT_DOUBLE_EQ(ProfileSimilarity(*t, 0, 1, TestConfig()), 1.0);
}

TEST(ProfileSimilarityTest, AllMissingIsZero) {
  TablePtr t = TwoRowTable({"id", "a", "b"}, {"x", "", ""}, {"x", "", "y"});
  EXPECT_DOUBLE_EQ(ProfileSimilarity(*t, 0, 1, TestConfig()), 0.0);
}

TEST(ProfileSimilarityTest, CrossAttributeContentViaCosine) {
  // V1 vs V4 of the motivating example: one record's title is the other's
  // description; the aligned signal misses it, the cosine signal does not.
  datagen::GeneratedDataset v = datagen::MakeMotivatingVenues();
  AttributeWeights weights = AttributeWeights::Compute(*v.table);
  double sim = ProfileSimilarity(*v.table, 0, 3, TestConfig(), &weights);
  EXPECT_GE(sim, 0.65);
}

TEST(ProfileSimilarityTest, SeparatesMotivatingExample) {
  // Property check over both example tables: every true duplicate pair must
  // clear kMatchThreshold, every non-duplicate must stay below it —
  // under the table's attribute-distinctiveness weights, as the engine
  // evaluates pairs.
  MatchingConfig config = TestConfig();
  for (auto dataset : {datagen::MakeMotivatingPublications(),
                       datagen::MakeMotivatingVenues()}) {
    const Table& t = *dataset.table;
    AttributeWeights weights = AttributeWeights::Compute(t);
    for (EntityId a = 0; a < t.num_rows(); ++a) {
      for (EntityId b = a + 1; b < t.num_rows(); ++b) {
        double sim = ProfileSimilarity(t, a, b, config, &weights);
        if (dataset.ground_truth.AreDuplicates(a, b)) {
          EXPECT_GE(sim, kMatchThreshold)
              << t.name() << " rows " << a << "," << b;
        } else {
          EXPECT_LT(sim, kMatchThreshold)
              << t.name() << " rows " << a << "," << b;
        }
      }
    }
  }
}

TEST(AttributeWeightsTest, DistinctivenessRatios) {
  TableBuilder builder("t", Schema({"id", "name", "country"}));
  ASSERT_TRUE(builder.AddRow({"0", "alpha", "greece"}).ok());
  ASSERT_TRUE(builder.AddRow({"1", "beta", "greece"}).ok());
  ASSERT_TRUE(builder.AddRow({"2", "gamma", "italy"}).ok());
  ASSERT_TRUE(builder.AddRow({"3", "delta", ""}).ok());
  TablePtr table = builder.Build();
  AttributeWeights weights = AttributeWeights::Compute(*table);
  EXPECT_DOUBLE_EQ(weights.weight(0), 1.0);        // All distinct.
  EXPECT_DOUBLE_EQ(weights.weight(1), 1.0);        // All distinct.
  EXPECT_DOUBLE_EQ(weights.weight(2), 2.0 / 3.0);  // 2 distinct / 3 non-empty.
  // Out-of-range attributes default to uniform.
  EXPECT_DOUBLE_EQ(weights.weight(9), 1.0);
}

TEST(AttributeWeightsTest, WeakAttributeAgreementIsNotEnough) {
  // Two organisations sharing only a code-list country must not match,
  // even though the country attribute agrees exactly.
  TableBuilder builder("orgs", Schema({"id", "name", "country"}));
  for (int i = 0; i < 40; ++i) {
    // Clearly distinct names (string distance between them is large).
    std::string name(6, static_cast<char>('a' + i % 26));
    name += " institute";
    ASSERT_TRUE(builder
                    .AddRow({std::to_string(i), name,
                             i % 2 == 0 ? "greece" : "italy"})
                    .ok());
  }
  TablePtr table = builder.Build();
  AttributeWeights weights = AttributeWeights::Compute(*table);
  MatchingConfig config = TestConfig();
  double sim = ProfileSimilarity(*table, 0, 2, config, &weights);
  EXPECT_LT(sim, kMatchThreshold);
}

TEST(LinkIndexTest, SingletonsInitially) {
  LinkIndex li(5);
  EXPECT_EQ(li.num_entities(), 5u);
  EXPECT_FALSE(li.AreLinked(0, 1));
  EXPECT_EQ(li.Cluster(3), (std::vector<EntityId>{3}));
  EXPECT_TRUE(li.Duplicates(3).empty());
  EXPECT_EQ(li.num_links(), 0u);
}

TEST(LinkIndexTest, TransitiveClosure) {
  LinkIndex li(6);
  EXPECT_EQ(li.PublishLinks({{0, 1}, {1, 2}}), 2u);
  EXPECT_TRUE(li.AreLinked(0, 2));
  EXPECT_EQ(li.Cluster(1), (std::vector<EntityId>{0, 1, 2}));
  EXPECT_EQ(li.Duplicates(0), (std::vector<EntityId>{1, 2}));
  EXPECT_EQ(li.Representative(0), li.Representative(2));
  EXPECT_NE(li.Representative(0), li.Representative(3));
  EXPECT_EQ(li.num_links(), 2u);
}

TEST(LinkIndexTest, RedundantLinkIgnored) {
  LinkIndex li(4);
  EXPECT_EQ(li.PublishLinks({{0, 1}, {1, 0}, {0, 1}}), 1u);
  EXPECT_EQ(li.num_links(), 1u);
  EXPECT_EQ(li.Cluster(0).size(), 2u);
}

TEST(LinkIndexTest, MergeTwoClusters) {
  LinkIndex li(6);
  li.PublishLinks({{0, 1}, {2, 3}});
  EXPECT_FALSE(li.AreLinked(0, 3));
  li.PublishLinks({{1, 2}});
  EXPECT_TRUE(li.AreLinked(0, 3));
  EXPECT_EQ(li.Cluster(3), (std::vector<EntityId>{0, 1, 2, 3}));
}

TEST(LinkIndexTest, ResolvedMarks) {
  LinkIndex li(3);
  EXPECT_FALSE(li.IsResolved(1));
  li.MarkResolvedBatch({1, 1});
  li.MarkResolvedBatch({1});  // Idempotent.
  EXPECT_TRUE(li.IsResolved(1));
  EXPECT_EQ(li.num_resolved(), 1u);
}

TEST(LinkIndexTest, ResetClearsEverything) {
  LinkIndex li(4);
  li.PublishLinks({{0, 1}});
  li.MarkResolvedBatch({0});
  li.Reset();
  EXPECT_FALSE(li.AreLinked(0, 1));
  EXPECT_FALSE(li.IsResolved(0));
  EXPECT_EQ(li.num_resolved(), 0u);
  EXPECT_EQ(li.num_links(), 0u);
  EXPECT_EQ(li.Cluster(0), (std::vector<EntityId>{0}));
}

TEST(ComparisonExecutionTest, FindsMotivatingDuplicates) {
  datagen::GeneratedDataset p = datagen::MakeMotivatingPublications();
  LinkIndex li(p.table->num_rows());
  // Compare P6 vs P7 vs P8 (true duplicates) and P1 vs P6 (not duplicates).
  std::vector<Comparison> comparisons = {{5, 6}, {5, 7}, {0, 5}};
  MatchingConfig config = TestConfig();
  StagedComparisons staged =
      *EvaluateComparisons(*p.table, comparisons, config, li);
  EXPECT_EQ(staged.executed, 3u);
  EXPECT_EQ(li.num_links(), 0u);  // Evaluation never writes the index.
  EXPECT_EQ(li.PublishLinks(staged.matched), 2u);
  EXPECT_TRUE(li.AreLinked(5, 6));
  EXPECT_TRUE(li.AreLinked(5, 7));
  EXPECT_TRUE(li.AreLinked(6, 7));  // Transitive.
  EXPECT_FALSE(li.AreLinked(0, 5));
}

TEST(ComparisonExecutionTest, SkipsAlreadyLinkedPairs) {
  datagen::GeneratedDataset p = datagen::MakeMotivatingPublications();
  LinkIndex li(p.table->num_rows());
  li.PublishLinks({{5, 6}});
  std::vector<Comparison> comparisons = {{5, 6}};
  StagedComparisons staged =
      *EvaluateComparisons(*p.table, comparisons, TestConfig(), li);
  EXPECT_EQ(staged.executed, 0u);
  EXPECT_EQ(staged.skipped_linked, 1u);
  EXPECT_EQ(li.PublishLinks(staged.matched), 0u);
}

// The first two pairs match, so by the third {6, 7} is linked through them:
// the chunk's overlay skips it exactly as a live index amended by each match
// would, keeping the paper's executed-comparison count.
TEST(ComparisonExecutionTest, SkipsPairsLinkedEarlierInTheSameRun) {
  datagen::GeneratedDataset p = datagen::MakeMotivatingPublications();
  LinkIndex li(p.table->num_rows());
  std::vector<Comparison> comparisons = {{5, 6}, {5, 7}, {6, 7}};
  StagedComparisons staged =
      *EvaluateComparisons(*p.table, comparisons, TestConfig(), li);
  EXPECT_EQ(staged.executed, 2u);
  EXPECT_EQ(staged.skipped_linked, 1u);
  EXPECT_EQ(li.PublishLinks(staged.matched), 2u);
  EXPECT_TRUE(li.AreLinked(6, 7));
}

}  // namespace
}  // namespace queryer
