#include "metablocking/block_filtering.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace queryer {

BlockCollection BlockFiltering(const BlockCollection& blocks) {
  // A block's rank: size first, block order on ties. Ranks are distinct, so
  // an entity's ceil(p * n) smallest blocks are exactly those ranked at or
  // below the ceil(p * n)-th smallest rank among its blocks — its cut-off.
  std::vector<std::uint64_t> rank(blocks.size());
  std::size_t num_entities = 0;
  for (std::uint32_t i = 0; i < blocks.size(); ++i) {
    rank[i] = (static_cast<std::uint64_t>(blocks[i].size()) << 32) | i;
    for (EntityId e : blocks[i].entities) {
      num_entities = std::max<std::size_t>(num_entities, e + std::size_t{1});
    }
  }
  // keep[e]: first e's block count, then how many blocks it keeps.
  std::vector<std::uint32_t> keep(num_entities, 0);
  for (const Block& b : blocks) {
    for (EntityId e : b.entities) ++keep[e];
  }
  for (std::uint32_t& k : keep) {
    if (k == 0) continue;
    auto kept = static_cast<std::uint32_t>(
        std::ceil(kBlockFilteringRatio * static_cast<double>(k)));
    k = std::clamp<std::uint32_t>(kept, 1, k);
  }
  // Visiting blocks in rank order, an entity's cut-off is the block where
  // its keep count runs out.
  std::vector<std::uint32_t> by_rank(blocks.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::sort(by_rank.begin(), by_rank.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return rank[a] < rank[b];
            });
  std::vector<std::uint64_t> cutoff(num_entities, 0);
  for (std::uint32_t i : by_rank) {
    for (EntityId e : blocks[i].entities) {
      if (keep[e] > 0 && --keep[e] == 0) cutoff[e] = rank[i];
    }
  }

  BlockCollection filtered;
  filtered.reserve(blocks.size());
  for (std::uint32_t i = 0; i < blocks.size(); ++i) {
    const Block& src = blocks[i];
    Block out;
    out.key = src.key;
    out.entities.reserve(src.entities.size());
    out.query_entities.reserve(src.query_entities.size());
    for (EntityId e : src.entities) {
      if (rank[i] <= cutoff[e]) out.entities.push_back(e);
    }
    for (EntityId e : src.query_entities) {
      if (rank[i] <= cutoff[e]) out.query_entities.push_back(e);
    }
    if (out.entities.size() < 2 || out.query_entities.empty()) continue;
    filtered.push_back(std::move(out));
  }
  return filtered;
}

}  // namespace queryer
