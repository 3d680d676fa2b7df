// The string-keyed Token Blocking oracle the tests compare against.
//
// This is Token Blocking written the direct way: every entity is tokenized
// into a sorted set of strings, and a std::map buckets key -> entities in
// row order. TableBlockIndex::Build computes the same index from dictionary
// codes and interned token ids; the tests hold it to these functions.

#ifndef QUERYER_TESTS_TBI_ORACLE_H_
#define QUERYER_TESTS_TBI_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "blocking/token_blocking.h"
#include "common/string_util.h"
#include "storage/table.h"

namespace queryer {

/// The block id of `key` in `tbi`, or -1 when the key indexes no
/// (multi-entity) block: a binary search over the key-ordered blocks.
inline std::int64_t FindBlock(const TableBlockIndex& tbi,
                              std::string_view key) {
  std::size_t lo = 0;
  std::size_t hi = tbi.num_blocks();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (tbi.block_key(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == tbi.num_blocks() || tbi.block_key(lo) != key) return -1;
  return static_cast<std::int64_t>(lo);
}

/// The blocking keys of one entity: the distinct lower-cased tokens of its
/// non-excluded attribute values, sorted.
inline std::vector<std::string> EntityBlockingKeys(
    const Table& table, EntityId entity, const BlockingOptions& options) {
  std::set<std::string> distinct;
  for (std::size_t a = 0; a < table.num_attributes(); ++a) {
    if (std::find(options.excluded_attributes.begin(),
                  options.excluded_attributes.end(),
                  a) != options.excluded_attributes.end()) {
      continue;
    }
    for (auto& token :
         TokenizeAlnum(table.ValueAt(entity, a), options.min_token_length)) {
      distinct.insert(std::move(token));
    }
  }
  return {distinct.begin(), distinct.end()};
}

/// A TBI as TableBlockIndex::FromParts takes it.
struct TbiParts {
  std::vector<std::string> block_keys;
  std::vector<std::vector<EntityId>> block_entities;
  std::vector<std::vector<std::uint32_t>> entity_blocks;
};

/// The TBI of `table`: one block per key held by two or more entities, in
/// key order, each with its entities ascending; the ITBI lists each
/// entity's blocks sorted by (size, id).
inline TbiParts OracleTbi(const Table& table, const BlockingOptions& options) {
  std::map<std::string, std::vector<EntityId>> buckets;
  for (EntityId e = 0; e < table.num_rows(); ++e) {
    for (auto& key : EntityBlockingKeys(table, e, options)) {
      buckets[std::move(key)].push_back(e);
    }
  }
  TbiParts parts;
  parts.entity_blocks.resize(table.num_rows());
  for (auto& [key, entities] : buckets) {
    if (entities.size() < 2) continue;
    const auto b = static_cast<std::uint32_t>(parts.block_keys.size());
    for (EntityId e : entities) parts.entity_blocks[e].push_back(b);
    parts.block_keys.push_back(key);
    parts.block_entities.push_back(std::move(entities));
  }
  for (auto& blocks : parts.entity_blocks) {
    std::sort(blocks.begin(), blocks.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                const std::size_t sx = parts.block_entities[x].size();
                const std::size_t sy = parts.block_entities[y].size();
                return sx != sy ? sx < sy : x < y;
              });
  }
  return parts;
}

}  // namespace queryer

#endif  // QUERYER_TESTS_TBI_ORACLE_H_
