// Token Blocking and the three once-off table indices of QueryER.
//
// Token Blocking (paper Sec. 6.1(i)) is schema-agnostic: every lower-cased
// alphanumeric token from every attribute value of an entity becomes a
// blocking key, and the entities sharing a key form a block. The
// TableBlockIndex (TBI_E) maps key -> entities for a whole table; its
// inverse (ITBI_E) maps entity -> blocks, sorted ascending by block size
// (the order Block Filtering and the cost estimator rely on). A
// QueryBlockIndex (QBI_QE) is the same structure for the entities a query
// selects; Block-Join reads it off the ITBI instead of re-tokenizing.

#ifndef QUERYER_BLOCKING_TOKEN_BLOCKING_H_
#define QUERYER_BLOCKING_TOKEN_BLOCKING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blocking/block.h"
#include "storage/table.h"

namespace queryer {

/// \brief Configuration of the blocking function.
///
/// QBI and TBI must always be built with the same options (the paper's
/// requirement that both use the same blocking function); the engine owns a
/// single BlockingOptions per table to guarantee this.
struct BlockingOptions {
  /// Minimum token length; shorter tokens are noise ("a", "of").
  std::size_t min_token_length = 2;
  /// Attributes to exclude from blocking keys (e.g. synthetic row ids whose
  /// tokens are unique and only bloat the index). Indices into the schema.
  std::vector<std::size_t> excluded_attributes;
};

/// \brief The Table Block Index TBI_E plus its inverse ITBI_E.
///
/// Built once-off per table and kept in memory (paper Sec. 3). Blocks with a
/// single entity are kept out of the block list: they can never produce a
/// comparison, and Block-Join against them would only re-add the probing
/// entity itself. Block ids follow key order (Block-Join and the `.tbi`
/// snapshot format rely on it), and every entity list is ascending.
class TableBlockIndex {
 public:
  /// Builds the index over all rows of `table`, from the columns'
  /// dictionaries: each distinct value of a blocked attribute is tokenized
  /// once and its tokens interned into dense ids; a row's keys are the
  /// union of its values' ids. Ids held by two or more rows become blocks,
  /// ranked by key; one ascending row pass fills the entity lists, and
  /// visiting blocks in (size, id) order fills the ITBI already sorted.
  static std::shared_ptr<TableBlockIndex> Build(const Table& table,
                                                const BlockingOptions& options);

  /// Restores an index from previously-built parts (the persist tier's
  /// snapshot loader). The parts must describe an index Build() produced
  /// over the same table contents and options: `block_keys` strictly
  /// ascending, because block ids follow key order and Block-Join's output
  /// order and Block Filtering's (size, block order) tie-break rest on
  /// those ids.
  static std::shared_ptr<TableBlockIndex> FromParts(
      BlockingOptions options, std::vector<std::string> block_keys,
      std::vector<std::vector<EntityId>> block_entities,
      std::vector<std::vector<std::uint32_t>> entity_blocks);

  const BlockingOptions& options() const { return options_; }

  /// Number of distinct blocking keys (|TBI|, as reported in paper Table 7).
  std::size_t num_blocks() const { return block_keys_.size(); }

  std::size_t num_entities() const { return entity_blocks_.size(); }

  const std::string& block_key(std::size_t block_id) const {
    return block_keys_[block_id];
  }
  const std::vector<EntityId>& block_entities(std::size_t block_id) const {
    return block_entities_[block_id];
  }
  std::size_t block_size(std::size_t block_id) const {
    return block_entities_[block_id].size();
  }

  /// ITBI_E: the ids of the blocks containing `entity`, sorted ascending by
  /// block size (ties broken by block id for determinism).
  const std::vector<std::uint32_t>& entity_blocks(EntityId entity) const {
    return entity_blocks_[entity];
  }

  /// Approximate heap footprint in bytes (index-size reporting).
  std::size_t MemoryFootprint() const;

 private:
  TableBlockIndex() = default;

  BlockingOptions options_;
  std::vector<std::string> block_keys_;
  std::vector<std::vector<EntityId>> block_entities_;
  std::vector<std::vector<std::uint32_t>> entity_blocks_;
};

/// \brief The Query Block Index QBI_QE: the query entities whose blocks
/// Block-Join reads from the table's inverse index.
///
/// Token Blocking is a function of an entity's own values, and the TBI
/// applies it to every row. So a query entity's keys that index a
/// multi-entity block are exactly the blocks of its ITBI entry, and the keys
/// that do not are held by that entity alone: they can never meet a
/// table-side entity. The QBI therefore keeps the query entities only and
/// `BlockJoin` inverts `tbi.entity_blocks(e)` over them; nothing is
/// tokenized per query.
class QueryBlockIndex {
 public:
  /// Builds the QBI over `query_entities` (in the given order, duplicates
  /// kept). `table` and `options` must be those the TBI it is joined with
  /// was built from — the engine owns one BlockingOptions per table.
  static QueryBlockIndex Build(const Table& table,
                               const std::vector<EntityId>& query_entities,
                               const BlockingOptions& options);

  const std::vector<EntityId>& query_entities() const {
    return query_entities_;
  }

 private:
  std::vector<EntityId> query_entities_;
};

}  // namespace queryer

#endif  // QUERYER_BLOCKING_TOKEN_BLOCKING_H_
