// Unit tests for Meta-Blocking: Block Purging, Block Filtering, the
// blocking graph and Edge Pruning.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "metablocking/meta_blocking.h"

namespace queryer {
namespace {

// Blocks name their key by TBI block id; these collections have no TBI, so
// the ids below just stand for the keys in the comments.
Block MakeBlock(std::uint32_t key, std::vector<EntityId> entities,
                std::vector<EntityId> query_entities) {
  Block b;
  b.key = key;
  b.entities = std::move(entities);
  b.query_entities = std::move(query_entities);
  return b;
}

// A synthetic collection with one oversized stop-word block ("entity") and
// several small discriminative blocks.
constexpr std::uint32_t kEntityKey = 0;
BlockCollection StopWordCollection() {
  BlockCollection blocks;
  std::vector<EntityId> everyone;
  for (EntityId e = 0; e < 40; ++e) everyone.push_back(e);
  blocks.push_back(MakeBlock(kEntityKey, everyone, {0, 1}));
  blocks.push_back(MakeBlock(1, {0, 1}, {0}));       // "collective"
  blocks.push_back(MakeBlock(2, {2, 3, 4}, {2}));    // "consumer"
  blocks.push_back(MakeBlock(3, {5, 6}, {5}));       // "davids"
  blocks.push_back(MakeBlock(4, {7, 8, 9}, {7}));    // "blake"
  blocks.push_back(MakeBlock(5, {0, 1, 10}, {0}));   // "2008"
  return blocks;
}

TEST(BlockPurgingTest, RemovesOversizedBlock) {
  BlockCollection purged = BlockPurging(StopWordCollection());
  EXPECT_EQ(purged.size(), 5u);
  for (const Block& b : purged) EXPECT_NE(b.key, kEntityKey);
}

TEST(BlockPurgingTest, KeepsUniformCollection) {
  BlockCollection blocks;
  for (int i = 0; i < 10; ++i) {
    blocks.push_back(MakeBlock(static_cast<std::uint32_t>(i),
                               {static_cast<EntityId>(2 * i),
                                static_cast<EntityId>(2 * i + 1)},
                               {static_cast<EntityId>(2 * i)}));
  }
  BlockCollection purged = BlockPurging(blocks);
  EXPECT_EQ(purged.size(), blocks.size());
}

TEST(BlockPurgingTest, EmptyCollection) {
  EXPECT_TRUE(BlockPurging(BlockCollection{}).empty());
  EXPECT_DOUBLE_EQ(ComputePurgingThreshold({}), 0.0);
}

TEST(BlockPurgingTest, ThresholdFromSizesMatchesBlockVersion) {
  BlockCollection blocks = StopWordCollection();
  std::vector<std::size_t> sizes;
  for (const Block& b : blocks) sizes.push_back(b.size());
  EXPECT_DOUBLE_EQ(ComputePurgingThreshold(blocks),
                   ComputePurgingThresholdFromSizes(sizes));
}

TEST(BlockFilteringTest, EntityRetainedInSmallestBlocks) {
  // Entity 0 appears in five blocks of sizes 40, 2, 3, 3, 4. It must keep
  // ceil(0.8 * 5) = 4 blocks: all but the largest.
  BlockCollection blocks;
  std::vector<EntityId> everyone;
  for (EntityId e = 0; e < 40; ++e) everyone.push_back(e);
  constexpr std::uint32_t kBig = 0;
  blocks.push_back(MakeBlock(kBig, everyone, {0}));
  blocks.push_back(MakeBlock(1, {0, 1}, {0}));
  blocks.push_back(MakeBlock(2, {0, 2, 3}, {0}));
  blocks.push_back(MakeBlock(3, {0, 4, 5}, {0}));
  blocks.push_back(MakeBlock(4, {0, 6, 7, 8}, {0}));
  BlockCollection filtered = BlockFiltering(blocks);
  ASSERT_EQ(filtered.size(), 4u);
  for (const Block& b : filtered) {
    EXPECT_NE(b.key, kBig);
    EXPECT_EQ(b.entities.front(), 0u);
  }
}

TEST(BlockFilteringTest, DropsBlocksWithoutQueryEntities) {
  BlockCollection blocks;
  blocks.push_back(MakeBlock(0, {0, 1}, {}));  // No query entity.
  blocks.push_back(MakeBlock(1, {2, 3}, {2}));
  BlockCollection filtered = BlockFiltering(blocks);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].key, 1u);
}

TEST(BlockingGraphTest, CbsCountsSharedBlocks) {
  BlockCollection blocks;
  blocks.push_back(MakeBlock(0, {0, 1}, {0}));
  blocks.push_back(MakeBlock(1, {0, 1}, {0}));
  blocks.push_back(MakeBlock(2, {0, 2}, {0}));
  BlockingGraph graph = BuildBlockingGraph(blocks);
  ASSERT_EQ(graph.edges.size(), 2u);
  // Edges sorted by pair: (0,1) weight 2, (0,2) weight 1.
  EXPECT_EQ(graph.edges[0].pair, (Comparison{0, 1}));
  EXPECT_DOUBLE_EQ(graph.edges[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(graph.edges[1].weight, 1.0);
  EXPECT_DOUBLE_EQ(graph.mean_weight, 1.5);
}

TEST(BlockingGraphTest, OnlyQueryRelevantEdges) {
  BlockCollection blocks;
  blocks.push_back(MakeBlock(0, {0, 1, 2, 3}, {0}));
  BlockingGraph graph = BuildBlockingGraph(blocks);
  // Only pairs touching entity 0: (0,1), (0,2), (0,3) — not (1,2) etc.
  EXPECT_EQ(graph.edges.size(), 3u);
  for (const auto& edge : graph.edges) EXPECT_EQ(edge.pair.first, 0u);
}

TEST(EdgePruningTest, KeepsAtOrAboveMean) {
  BlockCollection blocks;
  blocks.push_back(MakeBlock(0, {0, 1}, {0}));
  blocks.push_back(MakeBlock(1, {0, 1}, {0}));
  blocks.push_back(MakeBlock(2, {0, 2}, {0}));
  std::vector<Comparison> kept = EdgePruning(BuildBlockingGraph(blocks));
  // Mean = 1.5; only (0,1) with weight 2 survives.
  EXPECT_EQ(kept, (std::vector<Comparison>{{0, 1}}));
}

TEST(EdgePruningTest, UniformWeightsKeepAll) {
  BlockCollection blocks;
  blocks.push_back(MakeBlock(0, {0, 1}, {0}));
  blocks.push_back(MakeBlock(1, {2, 3}, {2}));
  std::vector<Comparison> kept = EdgePruning(BuildBlockingGraph(blocks));
  EXPECT_EQ(kept.size(), 2u);
}

TEST(DistinctComparisonsTest, DeduplicatesAcrossBlocks) {
  BlockCollection blocks;
  blocks.push_back(MakeBlock(0, {0, 1}, {0}));
  blocks.push_back(MakeBlock(1, {1, 0}, {0}));  // Same pair, other order.
  std::vector<Comparison> comparisons = DistinctComparisons(blocks);
  EXPECT_EQ(comparisons, (std::vector<Comparison>{{0, 1}}));
}

TEST(MetaBlockingTest, AllConfigRunsEveryStage) {
  MetaBlockingResult result =
      RunMetaBlocking(StopWordCollection(), MetaBlockingConfig::All());
  EXPECT_EQ(result.blocks_in, 6u);
  EXPECT_LT(result.blocks_after_purging, result.blocks_in);
  EXPECT_LE(result.comparisons.size(), result.comparisons_before_pruning);
}

TEST(MetaBlockingTest, ConfigsOrderedByAggressiveness) {
  std::size_t all =
      RunMetaBlocking(StopWordCollection(), MetaBlockingConfig::All())
          .comparisons.size();
  std::size_t bp_bf =
      RunMetaBlocking(StopWordCollection(), MetaBlockingConfig::BpBf())
          .comparisons.size();
  std::size_t none =
      RunMetaBlocking(StopWordCollection(), MetaBlockingConfig::None())
          .comparisons.size();
  EXPECT_LE(all, bp_bf);
  EXPECT_LE(bp_bf, none);
  EXPECT_GT(none, 0u);
}

TEST(MetaBlockingTest, ReportsFunnelCountsAndStageSpans) {
  TraceSink trace;
  MetaBlockingResult all = RunMetaBlocking(
      StopWordCollection(), MetaBlockingConfig::All(), nullptr, &trace);
  EXPECT_EQ(all.blocks_after_purging, 5u);
  EXPECT_LE(all.blocks_after_filtering, all.blocks_after_purging);
  EXPECT_GE(all.comparisons_before_pruning, all.comparisons.size());
  const std::string spans = trace.ToJson();
  for (const char* stage :
       {"\"purging\"", "\"filtering\"", "\"edge-pruning\""}) {
    EXPECT_NE(spans.find(stage), std::string::npos) << stage;
  }

  // Disabled stages pass their input count through and take no time.
  MetaBlockingResult none =
      RunMetaBlocking(StopWordCollection(), MetaBlockingConfig::None());
  EXPECT_EQ(none.blocks_after_purging, 6u);
  EXPECT_EQ(none.blocks_after_filtering, 6u);
  EXPECT_EQ(none.purging_seconds, 0.0);
  EXPECT_EQ(none.filtering_seconds, 0.0);
  EXPECT_EQ(none.comparisons_before_pruning, none.comparisons.size());
}

}  // namespace
}  // namespace queryer
