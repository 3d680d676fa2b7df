#include "blocking/token_blocking.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/string_util.h"
#include "common/token_interner.h"

namespace queryer {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

bool IsExcluded(const BlockingOptions& options, std::size_t attribute) {
  return std::find(options.excluded_attributes.begin(),
                   options.excluded_attributes.end(),
                   attribute) != options.excluded_attributes.end();
}

}  // namespace

std::shared_ptr<TableBlockIndex> TableBlockIndex::Build(
    const Table& table, const BlockingOptions& options) {
  // Tokenize each distinct value of each blocked attribute once: the token
  // ids of code c in blocked attribute i are
  // value_tokens[value_begin[i][c] .. value_begin[i][c + 1]).
  TokenInterner interner;
  std::vector<CodeSpan> codes;
  std::vector<std::vector<std::uint32_t>> value_begin;
  std::vector<std::uint32_t> value_tokens;
  std::string chars;
  std::vector<std::uint32_t> ends;
  for (std::size_t a = 0; a < table.num_attributes(); ++a) {
    if (IsExcluded(options, a)) continue;
    codes.push_back(table.column(a).codes());
    const Dictionary& dictionary = table.dictionary(a);
    std::vector<std::uint32_t>& begin = value_begin.emplace_back();
    begin.reserve(dictionary.size() + 1);
    for (DictCode c = 0; c < dictionary.size(); ++c) {
      begin.push_back(static_cast<std::uint32_t>(value_tokens.size()));
      chars.clear();
      ends.clear();
      AppendAlnumTokens(dictionary.value(c), options.min_token_length, &chars,
                        &ends);
      std::uint32_t start = 0;
      for (const std::uint32_t end : ends) {
        value_tokens.push_back(interner.Intern(
            std::string_view(chars.data() + start, end - start)));
        start = end;
      }
    }
    begin.push_back(static_cast<std::uint32_t>(value_tokens.size()));
  }

  // A row's keys are the union of its values' tokens. `last_row[t]` is the
  // last row that visited token t, so a token held by two attributes (or
  // twice by one value) of a row is visited once per row.
  const std::size_t num_rows = table.num_rows();
  std::vector<EntityId> last_row;
  const auto for_each_key = [&](EntityId e, const auto& fn) {
    for (std::size_t i = 0; i < codes.size(); ++i) {
      const DictCode c = codes[i][e];
      for (std::uint32_t k = value_begin[i][c]; k < value_begin[i][c + 1];
           ++k) {
        const std::uint32_t t = value_tokens[k];
        if (last_row[t] != e) {
          last_row[t] = e;
          fn(t);
        }
      }
    }
  };
  std::vector<std::uint32_t> holders(interner.size(), 0);
  last_row.assign(interner.size(), kNone);
  for (EntityId e = 0; e < num_rows; ++e) {
    for_each_key(e, [&](std::uint32_t t) { ++holders[t]; });
  }

  // Tokens held by two or more rows become blocks, ranked by key.
  // Singleton blocks yield no pairs.
  std::vector<std::uint32_t> kept;
  for (std::uint32_t t = 0; t < holders.size(); ++t) {
    if (holders[t] >= 2) kept.push_back(t);
  }
  std::sort(kept.begin(), kept.end(), [&](std::uint32_t x, std::uint32_t y) {
    return interner.token(x) < interner.token(y);
  });
  auto index = std::shared_ptr<TableBlockIndex>(new TableBlockIndex());
  index->options_ = options;
  index->block_keys_.reserve(kept.size());
  index->block_entities_.resize(kept.size());
  std::vector<std::uint32_t> block_of(interner.size(), kNone);
  for (std::uint32_t b = 0; b < kept.size(); ++b) {
    block_of[kept[b]] = b;
    index->block_keys_.emplace_back(interner.token(kept[b]));
    index->block_entities_[b].reserve(holders[kept[b]]);
  }

  // One ascending row pass keeps every entity list ascending.
  index->entity_blocks_.resize(num_rows);
  last_row.assign(interner.size(), kNone);
  for (EntityId e = 0; e < num_rows; ++e) {
    std::uint32_t num_blocks = 0;
    for_each_key(e, [&](std::uint32_t t) {
      if (block_of[t] == kNone) return;
      index->block_entities_[block_of[t]].push_back(e);
      ++num_blocks;
    });
    index->entity_blocks_[e].reserve(num_blocks);
  }

  // ITBI: visiting blocks in (size, id) order appends each entity's blocks
  // already sorted.
  std::vector<std::uint32_t> order(kept.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return index->block_size(x) < index->block_size(y);
                   });
  for (const std::uint32_t b : order) {
    for (const EntityId e : index->block_entities_[b]) {
      index->entity_blocks_[e].push_back(b);
    }
  }
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
  return index;
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
