// Block structures shared by blocking and meta-blocking.
//
// A block groups entities that share a blocking key (a token, under Token
// Blocking). A BlockCollection is the working set the Deduplicate operator's
// pipeline transforms: Block-Join produces it, Block Purging / Block
// Filtering / Edge Pruning shrink it, Comparison-Execution consumes it.
// Blocks name their key by its TableBlockIndex id, never by the string.

#ifndef QUERYER_BLOCKING_BLOCK_H_
#define QUERYER_BLOCKING_BLOCK_H_

#include <cstdint>
#include <vector>

#include "storage/table.h"

namespace queryer {

/// \brief One block: a key plus the entities that share it.
///
/// `query_entities` is the subset of `entities` that belongs to the query's
/// selection QE_E. Comparison-Execution only executes comparisons with at
/// least one query-entity endpoint (paper Sec. 6.1(iv)), so the distinction
/// is carried through the whole pipeline. Meta-blocking assumes what every
/// producer guarantees: a block lists each entity once, and an entity is a
/// query entity in every block that holds it or in none.
struct Block {
  /// The key's block id in the table's TableBlockIndex (key order);
  /// `tbi.block_key(key)` spells it.
  std::uint32_t key = 0;
  std::vector<EntityId> entities;
  std::vector<EntityId> query_entities;

  std::size_t size() const { return entities.size(); }

  /// Number of comparisons the block induces between query entities and all
  /// other entities: |QE_b| * (|b| - (|QE_b| + 1) / 2), the paper's formula.
  /// Pairs of two query entities are counted once; pairs of two non-query
  /// entities are not counted at all.
  double QueryComparisons() const;

  /// Full pairwise cardinality ||b|| = |b| * (|b| - 1) / 2.
  double Cardinality() const;
};

/// \brief An ordered set of blocks (deterministic iteration order).
using BlockCollection = std::vector<Block>;

/// \brief Total cardinality ||B|| of a collection.
double TotalCardinality(const BlockCollection& blocks);

/// \brief Total query-restricted comparisons of a collection (may double
/// count pairs co-occurring in several blocks; Comparison-Execution
/// deduplicates at execution time).
double TotalQueryComparisons(const BlockCollection& blocks);

/// \brief Sum of block sizes (the number of entity-to-block assignments).
std::size_t TotalAssignments(const BlockCollection& blocks);

}  // namespace queryer

#endif  // QUERYER_BLOCKING_BLOCK_H_
