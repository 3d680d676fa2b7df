#include "blocking/token_blocking.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "common/string_util.h"

namespace queryer {

namespace {

bool IsExcluded(const BlockingOptions& options, std::size_t attribute) {
  return std::find(options.excluded_attributes.begin(),
                   options.excluded_attributes.end(),
                   attribute) != options.excluded_attributes.end();
}

}  // namespace

std::vector<std::string> EntityBlockingKeys(const Table& table, EntityId entity,
                                            const BlockingOptions& options) {
  std::set<std::string> distinct;
  for (std::size_t a = 0; a < table.num_attributes(); ++a) {
    if (IsExcluded(options, a)) continue;
    // ValueAt views straight into the column dictionary — tokenization
    // never touches an owned row copy.
    for (auto& token :
         TokenizeAlnum(table.ValueAt(entity, a), options.min_token_length)) {
      distinct.insert(std::move(token));
    }
  }
  return {distinct.begin(), distinct.end()};
}

std::shared_ptr<TableBlockIndex> TableBlockIndex::Build(
    const Table& table, const BlockingOptions& options, ThreadPool* pool) {
  // Gather key -> entities with deterministic (key-sorted) block ids.
  std::map<std::string, std::vector<EntityId>> buckets;
  const bool parallel = pool != nullptr && pool->num_threads() >= 2 &&
                        table.num_rows() >= 2 * pool->num_threads();
  if (parallel) {
    // Shard the token extraction by entity range; each worker buckets its
    // own contiguous slice, then the shards merge in ascending shard order,
    // which keeps every entity list ascending exactly as the sequential
    // loop builds it.
    std::vector<ChunkRange> shards =
        SplitRange(table.num_rows(), pool->num_threads());
    std::vector<std::map<std::string, std::vector<EntityId>>> shard_buckets(
        shards.size());
    Status status = ParallelFor(
        pool, shards, [&](std::size_t shard, std::size_t begin, std::size_t end) {
          auto& local = shard_buckets[shard];
          for (EntityId e = begin; e < end; ++e) {
            for (auto& key : EntityBlockingKeys(table, e, options)) {
              local[std::move(key)].push_back(e);
            }
          }
          return Status::OK();
        });
    // Bodies only fail by throwing; rethrow on the calling thread for
    // parity with the sequential build's error behavior.
    if (!status.ok()) throw std::runtime_error(status.ToString());
    for (auto& local : shard_buckets) {
      for (auto& [key, entities] : local) {
        auto& merged = buckets[key];
        merged.insert(merged.end(), entities.begin(), entities.end());
      }
    }
  } else {
    for (EntityId e = 0; e < table.num_rows(); ++e) {
      for (auto& key : EntityBlockingKeys(table, e, options)) {
        buckets[std::move(key)].push_back(e);
      }
    }
  }

  auto index = std::shared_ptr<TableBlockIndex>(new TableBlockIndex());
  index->options_ = options;
  index->entity_blocks_.resize(table.num_rows());
  for (auto& [key, entities] : buckets) {
    if (entities.size() < 2) continue;  // Singleton blocks yield no pairs.
    auto block_id = static_cast<std::uint32_t>(index->block_keys_.size());
    index->key_to_block_.emplace(key, block_id);
    index->block_keys_.push_back(key);
    index->block_entities_.push_back(std::move(entities));
  }
  // Inverse index, with per-entity block lists sorted ascending by |b|.
  for (std::uint32_t b = 0; b < index->block_entities_.size(); ++b) {
    for (EntityId e : index->block_entities_[b]) {
      index->entity_blocks_[e].push_back(b);
    }
  }
  // The per-entity sorts are independent, so they chunk onto the pool
  // directly (inline when `pool` is null or single-threaded).
  Status sort_status = ParallelFor(
      parallel ? pool : nullptr, index->entity_blocks_.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
          auto& blocks = index->entity_blocks_[e];
          std::sort(blocks.begin(), blocks.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      std::size_t sa = index->block_entities_[a].size();
                      std::size_t sb = index->block_entities_[b].size();
                      return sa != sb ? sa < sb : a < b;
                    });
        }
        return Status::OK();
      });
  if (!sort_status.ok()) throw std::runtime_error(sort_status.ToString());
  return index;
}

std::shared_ptr<TableBlockIndex> TableBlockIndex::FromParts(
    BlockingOptions options, std::vector<std::string> block_keys,
    std::vector<std::vector<EntityId>> block_entities,
    std::vector<std::vector<std::uint32_t>> entity_blocks) {
  auto index = std::shared_ptr<TableBlockIndex>(new TableBlockIndex());
  index->options_ = std::move(options);
  index->block_keys_ = std::move(block_keys);
  index->block_entities_ = std::move(block_entities);
  index->entity_blocks_ = std::move(entity_blocks);
  index->key_to_block_.reserve(index->block_keys_.size());
  for (std::uint32_t b = 0; b < index->block_keys_.size(); ++b) {
    index->key_to_block_.emplace(index->block_keys_[b], b);
  }
  return index;
}

std::int64_t TableBlockIndex::FindBlock(const std::string& key) const {
  auto it = key_to_block_.find(key);
  return it == key_to_block_.end() ? -1 : static_cast<std::int64_t>(it->second);
}

std::size_t TableBlockIndex::MemoryFootprint() const {
  std::size_t bytes = 0;
  for (const auto& key : block_keys_) bytes += key.size() + sizeof(std::string);
  for (const auto& entities : block_entities_) {
    bytes += entities.size() * sizeof(EntityId) + sizeof(entities);
  }
  for (const auto& blocks : entity_blocks_) {
    bytes += blocks.size() * sizeof(std::uint32_t) + sizeof(blocks);
  }
  // Hash map overhead: bucket array + node per key (rough but stable).
  bytes += key_to_block_.size() * (sizeof(void*) * 2 + sizeof(std::uint32_t));
  return bytes;
}

QueryBlockIndex QueryBlockIndex::Build(
    const Table& /*table*/, const std::vector<EntityId>& query_entities,
    const BlockingOptions& /*options*/) {
  QueryBlockIndex qbi;
  qbi.query_entities_ = query_entities;
  return qbi;
}

}  // namespace queryer
