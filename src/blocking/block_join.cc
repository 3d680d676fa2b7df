#include "blocking/block_join.h"

#include <cstdint>

namespace queryer {

BlockCollection BlockJoin(const QueryBlockIndex& qbi,
                          const TableBlockIndex& tbi) {
  // A counting sort of the query entities' ITBI memberships by block id:
  // blocks come out in id order — key order — and each block lists its
  // query entities in selection order.
  const std::vector<EntityId>& query_entities = qbi.query_entities();
  std::vector<std::size_t> start(tbi.num_blocks() + 1, 0);
  for (EntityId e : query_entities) {
    for (std::uint32_t block : tbi.entity_blocks(e)) ++start[block + 1];
  }
  for (std::size_t b = 0; b < tbi.num_blocks(); ++b) start[b + 1] += start[b];
  std::vector<EntityId> members(start.back());
  std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
  for (EntityId e : query_entities) {
    for (std::uint32_t block : tbi.entity_blocks(e)) {
      members[cursor[block]++] = e;
    }
  }

  BlockCollection enriched;
  for (std::uint32_t b = 0; b < tbi.num_blocks(); ++b) {
    if (start[b] == start[b + 1]) continue;
    Block block;
    block.key = b;
    block.entities = tbi.block_entities(b);
    block.query_entities.assign(members.begin() + start[b],
                                members.begin() + start[b + 1]);
    enriched.push_back(std::move(block));
  }
  return enriched;
}

}  // namespace queryer
