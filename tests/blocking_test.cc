// Unit tests for Token Blocking, the table/query block indices and
// Block-Join, using the paper's motivating-example data where possible.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "blocking/block_join.h"
#include "blocking/token_blocking.h"
#include "datagen/scholarly.h"
#include "tbi_oracle.h"

namespace queryer {
namespace {

TablePtr MotivatingP() { return datagen::MakeMotivatingPublications().table; }

TEST(TableBlockIndexTest, BuildsExpectedBlocks) {
  TablePtr p = MotivatingP();
  auto tbi = TableBlockIndex::Build(*p, BlockingOptions{});
  // "edbt" appears in P1, P6, P8.
  std::int64_t edbt = FindBlock(*tbi, "edbt");
  ASSERT_GE(edbt, 0);
  EXPECT_EQ(tbi->block_entities(static_cast<std::size_t>(edbt)),
            (std::vector<EntityId>{0, 5, 7}));
  // "collective" appears in P1, P2.
  std::int64_t collective = FindBlock(*tbi, "collective");
  ASSERT_GE(collective, 0);
  EXPECT_EQ(tbi->block_entities(static_cast<std::size_t>(collective)),
            (std::vector<EntityId>{0, 1}));
}

TEST(TableBlockIndexTest, SingletonBlocksDropped) {
  TablePtr p = MotivatingP();
  auto tbi = TableBlockIndex::Build(*p, BlockingOptions{});
  // "collective" is shared; a unique token like "p3" (id of one row) forms
  // no block.
  EXPECT_EQ(FindBlock(*tbi, "p3"), -1);
  EXPECT_EQ(FindBlock(*tbi, "nonexistent-token"), -1);
}

TEST(TableBlockIndexTest, InverseIndexSortedBySize) {
  TablePtr p = MotivatingP();
  auto tbi = TableBlockIndex::Build(*p, BlockingOptions{});
  for (EntityId e = 0; e < p->num_rows(); ++e) {
    const auto& blocks = tbi->entity_blocks(e);
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      EXPECT_LE(tbi->block_size(blocks[i - 1]), tbi->block_size(blocks[i]))
          << "entity " << e << " block list not ascending";
    }
  }
}

TEST(TableBlockIndexTest, EveryBlockMembershipInverted) {
  TablePtr p = MotivatingP();
  auto tbi = TableBlockIndex::Build(*p, BlockingOptions{});
  for (std::size_t b = 0; b < tbi->num_blocks(); ++b) {
    for (EntityId e : tbi->block_entities(b)) {
      const auto& blocks = tbi->entity_blocks(e);
      EXPECT_NE(std::find(blocks.begin(), blocks.end(), b), blocks.end());
    }
  }
}

TEST(TableBlockIndexTest, MemoryFootprintPositive) {
  TablePtr p = MotivatingP();
  auto tbi = TableBlockIndex::Build(*p, BlockingOptions{});
  EXPECT_GT(tbi->MemoryFootprint(), 0u);
}

// The ITBI-derived join against the tokenized definition: every query
// entity's blocking keys that index a TBI block, key-sorted, each block
// carrying the query entities holding its key in selection order.
TEST(QueryBlockIndexTest, BuildsOnlyOverQueryEntities) {
  TablePtr p = MotivatingP();
  auto tbi = TableBlockIndex::Build(*p, BlockingOptions{});
  const std::vector<EntityId> selection = {5, 0, 7, 0};
  QueryBlockIndex qbi =
      QueryBlockIndex::Build(*p, selection, BlockingOptions{});
  EXPECT_EQ(qbi.query_entities(), selection);

  std::map<std::string, std::vector<EntityId>> tokenized;
  for (EntityId e : selection) {
    for (const std::string& key :
         EntityBlockingKeys(*p, e, BlockingOptions{})) {
      if (FindBlock(*tbi, key) >= 0) tokenized[key].push_back(e);
    }
  }
  BlockCollection enriched = BlockJoin(qbi, *tbi);
  ASSERT_EQ(enriched.size(), tokenized.size());
  auto expected = tokenized.begin();
  for (const Block& b : enriched) {
    EXPECT_EQ(tbi->block_key(b.key), expected->first);
    EXPECT_EQ(b.entities, tbi->block_entities(b.key));
    EXPECT_EQ(b.query_entities, expected->second) << expected->first;
    ++expected;
  }
}

TEST(BlockJoinTest, EnrichesQueryBlocksWithTableEntities) {
  TablePtr p = MotivatingP();
  auto tbi = TableBlockIndex::Build(*p, BlockingOptions{});
  // Query: P1 only (as selected by venue='EDBT' + year 2008, say).
  QueryBlockIndex qbi = QueryBlockIndex::Build(*p, {0}, BlockingOptions{});
  BlockCollection enriched = BlockJoin(qbi, *tbi);
  EXPECT_EQ(enriched.size(), tbi->entity_blocks(0).size());

  // The "collective" block must now contain P2 as well.
  auto it = std::find_if(enriched.begin(), enriched.end(), [&](const Block& b) {
    return tbi->block_key(b.key) == "collective";
  });
  ASSERT_NE(it, enriched.end());
  EXPECT_EQ(it->entities, (std::vector<EntityId>{0, 1}));
  EXPECT_EQ(it->query_entities, (std::vector<EntityId>{0}));
}

TEST(BlockJoinTest, KeysAbsentFromTbiProduceNoBlocks) {
  TablePtr p = MotivatingP();
  auto tbi = TableBlockIndex::Build(*p, BlockingOptions{});
  // P4 has tokens ("davids", "doe", ...) shared with P3/P5, but its id token
  // "p4" has no block; joined blocks only cover shared keys.
  QueryBlockIndex qbi = QueryBlockIndex::Build(*p, {3}, BlockingOptions{});
  BlockCollection enriched = BlockJoin(qbi, *tbi);
  ASSERT_FALSE(enriched.empty());
  for (const Block& b : enriched) {
    EXPECT_GE(b.entities.size(), 2u) << "block " << tbi->block_key(b.key);
    EXPECT_NE(tbi->block_key(b.key), "p4");
  }
}

TEST(BlockTest, ComparisonFormulas) {
  Block b;
  b.entities = {1, 2, 3, 4};
  b.query_entities = {1};
  // |QE|=1, |b|=4: 1 * (4 - (1+1)/2) = 3 comparisons.
  EXPECT_DOUBLE_EQ(b.QueryComparisons(), 3.0);
  EXPECT_DOUBLE_EQ(b.Cardinality(), 6.0);
  b.query_entities = {1, 2, 3, 4};
  // All query: full cardinality 4*3/2 = 6.
  EXPECT_DOUBLE_EQ(b.QueryComparisons(), 6.0);
  b.query_entities.clear();
  EXPECT_DOUBLE_EQ(b.QueryComparisons(), 0.0);
}

TEST(BlockTest, CollectionAggregates) {
  Block a;
  a.entities = {1, 2};
  a.query_entities = {1};
  Block b;
  b.entities = {3, 4, 5};
  b.query_entities = {3, 4};
  BlockCollection blocks = {a, b};
  EXPECT_DOUBLE_EQ(TotalCardinality(blocks), 1.0 + 3.0);
  EXPECT_EQ(TotalAssignments(blocks), 5u);
  // a: 1*(2-1)=1; b: 2*(3-1.5)=3.
  EXPECT_DOUBLE_EQ(TotalQueryComparisons(blocks), 4.0);
}

}  // namespace
}  // namespace queryer
