// Meta-blocking on integer ids against the string-keyed implementation it
// replaced.
//
// The oracle below is that implementation: the query block index tokenizes
// every query entity into a key-sorted std::map, Block-Join looks each key
// up by string, Block Filtering keeps a hash map of per-entity block lists
// and one retained set per block, and the blocking graph enumerates every
// pair of every block into a hash map of shared-block counts. The id-based
// pipeline must give the same blocks (ids named by their keys, entity and
// query-entity lists) after every stage, the same edges with memcmp-equal
// weights and mean, and the same comparisons, for every configuration,
// with no pool and with four workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blocking/block_join.h"
#include "blocking/token_blocking.h"
#include "datagen/orgs.h"
#include "datagen/people.h"
#include "datagen/scholarly.h"
#include "metablocking/meta_blocking.h"
#include "parallel/thread_pool.h"
#include "tbi_oracle.h"

namespace queryer {
namespace {

// ---- The oracle ----------------------------------------------------------

namespace oracle {

struct Block {
  std::string key;
  std::vector<EntityId> entities;
  std::vector<EntityId> query_entities;

  std::size_t size() const { return entities.size(); }
  double Cardinality() const {
    const double n = static_cast<double>(entities.size());
    return n * (n - 1) / 2.0;
  }
};
using Collection = std::vector<Block>;

using QueryBlocks = std::vector<std::pair<std::string, std::vector<EntityId>>>;

QueryBlocks BuildQueryBlocks(const Table& table,
                             const std::vector<EntityId>& query_entities,
                             const BlockingOptions& options) {
  std::map<std::string, std::vector<EntityId>> buckets;
  for (EntityId e : query_entities) {
    for (auto& key : EntityBlockingKeys(table, e, options)) {
      buckets[std::move(key)].push_back(e);
    }
  }
  return {buckets.begin(), buckets.end()};
}

Collection Join(const QueryBlocks& qbi, const TableBlockIndex& tbi) {
  Collection enriched;
  for (const auto& [key, query_entities] : qbi) {
    std::int64_t block_id = FindBlock(tbi, key);
    if (block_id < 0) continue;
    enriched.push_back(
        {key, tbi.block_entities(static_cast<std::size_t>(block_id)),
         query_entities});
  }
  return enriched;
}

Collection Purge(Collection blocks) {
  if (blocks.empty()) return blocks;
  double total = 0;
  for (const Block& b : blocks) total += static_cast<double>(b.size());
  double mean_size = total / static_cast<double>(blocks.size());
  double size_limit = std::max(static_cast<double>(kMinKeptBlockSize),
                               kPurgingOutlierFactor * mean_size);
  double threshold = size_limit * (size_limit - 1) / 2.0;
  Collection kept;
  for (Block& b : blocks) {
    if (b.Cardinality() <= threshold) kept.push_back(std::move(b));
  }
  return kept;
}

Collection Filter(const Collection& blocks) {
  std::unordered_map<EntityId, std::vector<std::uint32_t>> entity_blocks;
  for (std::uint32_t i = 0; i < blocks.size(); ++i) {
    for (EntityId e : blocks[i].entities) entity_blocks[e].push_back(i);
  }
  for (auto& [entity, block_ids] : entity_blocks) {
    (void)entity;
    std::sort(block_ids.begin(), block_ids.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return blocks[a].size() != blocks[b].size()
                           ? blocks[a].size() < blocks[b].size()
                           : a < b;
              });
    auto keep = static_cast<std::size_t>(std::ceil(
        kBlockFilteringRatio * static_cast<double>(block_ids.size())));
    if (keep == 0) keep = 1;
    if (keep > block_ids.size()) keep = block_ids.size();
    block_ids.resize(keep);
  }
  std::vector<std::unordered_set<EntityId>> retained(blocks.size());
  for (const auto& [entity, block_ids] : entity_blocks) {
    for (std::uint32_t block : block_ids) retained[block].insert(entity);
  }
  Collection filtered;
  for (std::uint32_t i = 0; i < blocks.size(); ++i) {
    const Block& src = blocks[i];
    Block out;
    out.key = src.key;
    for (EntityId e : src.entities) {
      if (retained[i].count(e) > 0) out.entities.push_back(e);
    }
    for (EntityId e : src.query_entities) {
      if (retained[i].count(e) > 0) out.query_entities.push_back(e);
    }
    if (out.entities.size() < 2 || out.query_entities.empty()) continue;
    filtered.push_back(std::move(out));
  }
  return filtered;
}

inline std::uint64_t PairKey(EntityId a, EntityId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

inline Comparison MakeComparison(EntityId a, EntityId b) {
  return a < b ? Comparison{a, b} : Comparison{b, a};
}

// Every query-relevant pair of every block, once per block.
template <typename Fn>
void ForEachQueryPair(const Collection& blocks, Fn&& fn) {
  std::unordered_set<EntityId> query_set;
  for (const Block& b : blocks) {
    query_set.clear();
    query_set.insert(b.query_entities.begin(), b.query_entities.end());
    for (std::size_t i = 0; i < b.entities.size(); ++i) {
      EntityId ei = b.entities[i];
      bool ei_query = query_set.count(ei) > 0;
      for (std::size_t j = i + 1; j < b.entities.size(); ++j) {
        EntityId ej = b.entities[j];
        if (!ei_query && query_set.count(ej) == 0) continue;
        fn(MakeComparison(ei, ej));
      }
    }
  }
}

// CBS: an edge's weight is the number of blocks its endpoints share.
BlockingGraph Graph(const Collection& blocks) {
  std::unordered_map<std::uint64_t, double> shared;
  ForEachQueryPair(blocks, [&](Comparison pair) {
    shared[PairKey(pair.first, pair.second)] += 1.0;
  });
  BlockingGraph graph;
  for (const auto& [key, weight] : shared) {
    graph.edges.push_back({{static_cast<EntityId>(key >> 32),
                            static_cast<EntityId>(key & 0xffffffffu)},
                           weight});
  }
  std::sort(graph.edges.begin(), graph.edges.end(),
            [](const WeightedEdge& x, const WeightedEdge& y) {
              return x.pair < y.pair;
            });
  double total_weight = 0;
  for (const WeightedEdge& edge : graph.edges) total_weight += edge.weight;
  graph.mean_weight =
      graph.edges.empty()
          ? 0.0
          : total_weight / static_cast<double>(graph.edges.size());
  return graph;
}

std::vector<Comparison> Prune(const BlockingGraph& graph) {
  std::vector<Comparison> kept;
  for (const WeightedEdge& edge : graph.edges) {
    if (edge.weight >= graph.mean_weight) kept.push_back(edge.pair);
  }
  return kept;
}

std::vector<Comparison> Distinct(const Collection& blocks) {
  std::unordered_set<std::uint64_t> seen;
  std::vector<Comparison> comparisons;
  ForEachQueryPair(blocks, [&](Comparison pair) {
    if (seen.insert(PairKey(pair.first, pair.second)).second) {
      comparisons.push_back(pair);
    }
  });
  std::sort(comparisons.begin(), comparisons.end());
  return comparisons;
}

}  // namespace oracle

// ---- Comparison helpers --------------------------------------------------

// Spells an id-keyed block's key for comparison with the oracle's string.
using KeyName = std::function<std::string(std::uint32_t)>;

KeyName TbiKeys(const TableBlockIndex& tbi) {
  return [&tbi](std::uint32_t id) { return tbi.block_key(id); };
}

std::string IdKey(std::uint32_t id) { return std::to_string(id); }

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

oracle::Collection ToOracle(const BlockCollection& blocks,
                            const KeyName& name) {
  oracle::Collection out;
  for (const Block& b : blocks) {
    out.push_back({name(b.key), b.entities, b.query_entities});
  }
  return out;
}

void ExpectSameBlocks(const oracle::Collection& want,
                      const BlockCollection& got, const KeyName& name,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(name(got[i].key), want[i].key) << where << " block " << i;
    ASSERT_EQ(got[i].entities, want[i].entities) << where << " " << want[i].key;
    ASSERT_EQ(got[i].query_entities, want[i].query_entities)
        << where << " " << want[i].key;
  }
}

void ExpectSameGraph(const BlockingGraph& want, const BlockingGraph& got,
                     const std::string& where) {
  ASSERT_EQ(got.edges.size(), want.edges.size()) << where;
  for (std::size_t i = 0; i < got.edges.size(); ++i) {
    ASSERT_EQ(got.edges[i].pair, want.edges[i].pair) << where << " edge " << i;
    ASSERT_TRUE(SameBits(got.edges[i].weight, want.edges[i].weight))
        << where << " edge (" << want.edges[i].pair.first << ", "
        << want.edges[i].pair.second << "): " << got.edges[i].weight
        << " vs oracle " << want.edges[i].weight;
  }
  ASSERT_TRUE(SameBits(got.mean_weight, want.mean_weight))
      << where << " mean " << got.mean_weight << " vs " << want.mean_weight;
}

const MetaBlockingConfig kEveryConfig[] = {
    MetaBlockingConfig::All(), MetaBlockingConfig::BpBf(),
    MetaBlockingConfig::BpEp(), MetaBlockingConfig::None()};

std::string Describe(const MetaBlockingConfig& c) {
  return std::string(c.block_purging ? "BP" : "") +
         (c.block_filtering ? "BF" : "") + (c.edge_pruning ? "EP" : "");
}

ThreadPool* FourWorkers() {
  static ThreadPool* pool = new ThreadPool(4);
  return pool;
}

// Runs every configuration over `input` stage by stage against the oracle,
// then whole through RunMetaBlocking with no pool and with four workers.
// Returns the number of comparisons checked, so callers can see the test
// is not vacuous.
std::size_t CheckEveryConfig(const oracle::Collection& oracle_input,
                             const BlockCollection& input, const KeyName& name,
                             const std::string& where) {
  std::size_t checked = 0;
  for (const MetaBlockingConfig& config : kEveryConfig) {
    const std::string at = where + " " + Describe(config);
    SCOPED_TRACE(at);
    oracle::Collection want = oracle_input;
    BlockCollection got = input;
    if (config.block_purging) {
      want = oracle::Purge(std::move(want));
      got = BlockPurging(std::move(got));
      ExpectSameBlocks(want, got, name, at + " after purging");
    }
    const std::size_t after_purging = want.size();
    if (config.block_filtering) {
      want = oracle::Filter(want);
      got = BlockFiltering(got);
      ExpectSameBlocks(want, got, name, at + " after filtering");
    }
    std::vector<Comparison> comparisons;
    std::size_t before_pruning = 0;
    if (config.edge_pruning) {
      BlockingGraph want_graph = oracle::Graph(want);
      ExpectSameGraph(want_graph, BuildBlockingGraph(got), at);
      comparisons = oracle::Prune(want_graph);
      before_pruning = want_graph.edges.size();
    } else {
      comparisons = oracle::Distinct(want);
      EXPECT_EQ(DistinctComparisons(got), comparisons) << at;
      before_pruning = comparisons.size();
    }
    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), FourWorkers()}) {
      MetaBlockingResult result = RunMetaBlocking(input, config, pool);
      EXPECT_EQ(result.comparisons, comparisons) << at << " pool " << pool;
      EXPECT_EQ(result.blocks_in, input.size()) << at;
      EXPECT_EQ(result.blocks_after_purging, after_purging) << at;
      EXPECT_EQ(result.blocks_after_filtering, want.size()) << at;
      EXPECT_EQ(result.comparisons_before_pruning, before_pruning) << at;
    }
    checked += comparisons.size();
  }
  return checked;
}

std::vector<EntityId> Slice(const Table& table, std::size_t modulus,
                            std::size_t slice) {
  std::vector<EntityId> selection;
  for (std::size_t e = slice; e < table.num_rows(); e += modulus) {
    selection.push_back(static_cast<EntityId>(e));
  }
  return selection;
}

// Query blocking + Block-Join of one selection against the oracle; returns
// both enriched collections.
std::pair<oracle::Collection, BlockCollection> JoinBoth(
    const Table& table, const TableBlockIndex& tbi,
    const BlockingOptions& options, const std::vector<EntityId>& selection,
    const std::string& where) {
  oracle::Collection want =
      oracle::Join(oracle::BuildQueryBlocks(table, selection, options), tbi);
  BlockCollection got =
      BlockJoin(QueryBlockIndex::Build(table, selection, options), tbi);
  ExpectSameBlocks(want, got, TbiKeys(tbi), where + " after block-join");
  return {std::move(want), std::move(got)};
}

// Small versions of the benchmark's tables: DSD, PPL and the OAO
// organisations PPL references (small enough for the TSan job).
std::vector<datagen::GeneratedDataset> GeneratedTables(std::uint64_t seed) {
  std::vector<datagen::GeneratedDataset> tables;
  tables.push_back(datagen::MakeDsdLike(1200, seed));
  datagen::GeneratedDataset oao = datagen::MakeOrganisations(900, seed + 1);
  tables.push_back(datagen::MakePeople(
      1400, datagen::OrganisationNamePool(oao), seed + 2));
  tables.push_back(std::move(oao));
  return tables;
}

// ---- Generated data ------------------------------------------------------

TEST(MetaBlockingDiffTest, QuerySlicesMatchOracle) {
  BlockingOptions options;
  options.excluded_attributes = {0};
  std::size_t checked = 0;
  for (std::uint64_t seed : {13u, 41u}) {
    for (const datagen::GeneratedDataset& dataset : GeneratedTables(seed)) {
      const Table& table = *dataset.table;
      auto tbi = TableBlockIndex::Build(table, options);
      // Four 0.5% slices (the cold query's shape) and one 5% slice.
      for (auto [modulus, slice] :
           std::vector<std::pair<std::size_t, std::size_t>>{
               {200, 3}, {200, 71}, {200, 118}, {200, 190}, {20, 9}}) {
        const std::string where = table.name() + " seed " +
                                  std::to_string(seed) + " MOD " +
                                  std::to_string(modulus) + " = " +
                                  std::to_string(slice);
        auto [want, got] =
            JoinBoth(table, *tbi, options, Slice(table, modulus, slice), where);
        if (HasFatalFailure()) return;
        checked += CheckEveryConfig(want, got, TbiKeys(*tbi), where);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(checked, 20000u) << checked;
}

TEST(MetaBlockingDiffTest, WholeTableCollectionMatchesOracle) {
  // Batch ER's collection: every TBI block, every member a query entity.
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(1400, 17);
  BlockingOptions options;
  options.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(*dsd.table, options);
  BlockCollection blocks;
  for (std::uint32_t b = 0; b < tbi->num_blocks(); ++b) {
    Block block;
    block.key = b;
    block.entities = tbi->block_entities(b);
    block.query_entities = block.entities;
    blocks.push_back(std::move(block));
  }
  std::size_t checked = CheckEveryConfig(ToOracle(blocks, TbiKeys(*tbi)),
                                         blocks, TbiKeys(*tbi), "whole DSD");
  EXPECT_GT(checked, 10000u) << checked;
}

// ---- Edge cases ----------------------------------------------------------

Block MakeBlock(std::uint32_t key, std::vector<EntityId> entities,
                std::vector<EntityId> query_entities) {
  Block b;
  b.key = key;
  b.entities = std::move(entities);
  b.query_entities = std::move(query_entities);
  return b;
}

void CheckHandBuilt(const BlockCollection& blocks, const std::string& where) {
  CheckEveryConfig(ToOracle(blocks, IdKey), blocks, IdKey, where);
}

TEST(MetaBlockingDiffTest, EmptyCollection) {
  CheckHandBuilt({}, "empty");
  for (const MetaBlockingConfig& config : kEveryConfig) {
    EXPECT_TRUE(RunMetaBlocking({}, config).comparisons.empty());
  }
  EXPECT_TRUE(BlockFiltering({}).empty());
  EXPECT_TRUE(BuildBlockingGraph({}).edges.empty());
}

TEST(MetaBlockingDiffTest, BlockOfOnlyQueryEntities) {
  BlockCollection blocks;
  blocks.push_back(MakeBlock(0, {1, 2, 3}, {1, 2, 3}));
  blocks.push_back(MakeBlock(1, {2, 3, 4, 9}, {2, 3}));
  blocks.push_back(MakeBlock(2, {3, 5}, {3}));
  blocks.push_back(MakeBlock(3, {1, 2}, {1, 2}));
  CheckHandBuilt(blocks, "only-query");
  // Every pair inside block 0 is a query-query pair, listed once.
  EXPECT_EQ(DistinctComparisons({blocks[0]}),
            (std::vector<Comparison>{{1, 2}, {1, 3}, {2, 3}}));
}

TEST(MetaBlockingDiffTest, DuplicateQueryEntities) {
  // Through Block-Join: a selection naming entities twice.
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(400, 23);
  BlockingOptions options;
  options.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(*dsd.table, options);
  auto [want, got] = JoinBoth(*dsd.table, *tbi, options,
                              {40, 7, 40, 311, 7, 40}, "duplicates");
  ASSERT_FALSE(got.empty());
  CheckEveryConfig(want, got, TbiKeys(*tbi), "duplicates");

  // Hand-built: a block listing its query entity twice.
  BlockCollection blocks;
  blocks.push_back(MakeBlock(0, {1, 2, 3}, {1, 1}));
  blocks.push_back(MakeBlock(1, {1, 4}, {1, 1}));
  blocks.push_back(MakeBlock(2, {5, 6}, {5}));
  CheckHandBuilt(blocks, "hand-built duplicates");
}

TEST(MetaBlockingDiffTest, FilteringRatioRoundingAndTies) {
  // Entity 0 sits in n = 1..5 blocks whose sizes repeat (ties resolved by
  // block order); every ceil(0.8 * n) cut must match the oracle, also at
  // n = 5, where 0.8 * 5 must round to exactly 4 blocks, not 5.
  const std::vector<std::size_t> sizes = {3, 2, 3, 2, 4};
  for (std::size_t n = 1; n <= sizes.size(); ++n) {
    BlockCollection blocks;
    EntityId next = 1;
    for (std::uint32_t b = 0; b < n; ++b) {
      std::vector<EntityId> members = {0};
      for (std::size_t i = 1; i < sizes[b]; ++i) members.push_back(next++);
      // Entity 1 shares every block too, as a non-query member.
      if (b > 0) members.push_back(1);
      blocks.push_back(MakeBlock(b, members, {0}));
    }
    const std::string where = "n=" + std::to_string(n);
    ExpectSameBlocks(oracle::Filter(ToOracle(blocks, IdKey)),
                     BlockFiltering(blocks), IdKey, where);
    CheckHandBuilt(blocks, where);
  }
}

}  // namespace
}  // namespace queryer
