// Block-Join (paper Sec. 6.1(ii)): joins the query's blocking keys with a
// TableBlockIndex.
//
// For every query-side blocking key that also indexes a TBI block, the
// resulting block contains the full TBI entity set for that key (a superset
// of the query entities holding it). The output EQBI_QE is the enriched
// block collection over which Meta-Blocking and Comparison-Execution run.
//
// The join runs on integer ids: it inverts the ITBI entries of the query
// entities. A query entity's ITBI entry is exactly its set of keys that
// index a multi-entity block (see QueryBlockIndex), and TBI block ids follow
// key order, so the result equals a string join of tokenized query keys
// against the TBI: the same blocks, in key order, each with its query
// entities in selection order.

#ifndef QUERYER_BLOCKING_BLOCK_JOIN_H_
#define QUERYER_BLOCKING_BLOCK_JOIN_H_

#include "blocking/block.h"
#include "blocking/token_blocking.h"

namespace queryer {

/// \brief Enriches the query's blocks with the table-side entities sharing
/// each key. Keys no other row holds produce no block (a singleton query
/// block with no table-side sharers cannot contribute comparisons).
BlockCollection BlockJoin(const QueryBlockIndex& qbi,
                          const TableBlockIndex& tbi);

}  // namespace queryer

#endif  // QUERYER_BLOCKING_BLOCK_JOIN_H_
