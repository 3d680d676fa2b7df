// Block Filtering (paper Sec. 4, [27]): each block has different importance
// for each of its entities, so every entity is retained only in its
// kBlockFilteringRatio fraction of smallest blocks. Applied per entity,
// unlike Block Purging which removes whole blocks.

#ifndef QUERYER_METABLOCKING_BLOCK_FILTERING_H_
#define QUERYER_METABLOCKING_BLOCK_FILTERING_H_

#include "blocking/block.h"

namespace queryer {

/// Retention ratio p; 0.8 is the standard setting in the meta-blocking
/// literature the paper builds on.
inline constexpr double kBlockFilteringRatio = 0.8;

/// \brief Retains each entity only in its ceil(p * #blocks) smallest blocks.
///
/// Block lists per entity are ordered ascending by block size (ties by block
/// order), matching the pre-sorted ITBI the paper describes. Blocks that end
/// up with fewer than two entities, or with no query entity, are dropped —
/// they can no longer produce a query comparison.
///
/// Runs on dense per-entity counters: one pass over the blocks in
/// (size, block order) finds each entity's cut-off block, and the rebuild
/// tests each membership against that one number per entity.
BlockCollection BlockFiltering(const BlockCollection& blocks);

}  // namespace queryer

#endif  // QUERYER_METABLOCKING_BLOCK_FILTERING_H_
