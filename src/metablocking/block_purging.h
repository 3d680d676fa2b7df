// Block Purging (paper Sec. 4, [27]): removes oversized blocks whose keys
// are too common to be discriminative (e.g. the token "entity" in a
// publications table), cleaning the processing list of blocks that induce
// mostly unnecessary comparisons.
//
// Deviation from the paper: the cited smoothing-factor
// scan over cumulative cardinality levels is only well behaved on very
// large Zipfian block collections (on the query-restricted collections the
// Deduplicate operator produces it degenerates to purging everything above
// the smallest level). We keep the paper's *criterion shape* — a
// dynamically computed maximum block cardinality — but derive the limit
// robustly: a block is oversized when its size exceeds
// kPurgingOutlierFactor x the collection's mean block size (never purging
// blocks of size <= kMinKeptBlockSize).

#ifndef QUERYER_METABLOCKING_BLOCK_PURGING_H_
#define QUERYER_METABLOCKING_BLOCK_PURGING_H_

#include "blocking/block.h"

namespace queryer {

/// Multiple of the mean block size above which a block is purged.
inline constexpr double kPurgingOutlierFactor = 3.0;

/// Blocks at or below this size are never purged — tiny blocks are the
/// discriminative ones Block Purging exists to protect.
inline constexpr std::size_t kMinKeptBlockSize = 4;

/// \brief Computes the maximum allowed block cardinality ||b||.
double ComputePurgingThreshold(const BlockCollection& blocks);

/// \brief Same rule over bare block sizes (|b| values), without needing
/// materialized blocks. Used by the planner's comparison estimator.
double ComputePurgingThresholdFromSizes(
    const std::vector<std::size_t>& block_sizes);

/// \brief Removes blocks with cardinality above the threshold.
BlockCollection PurgeBlocks(BlockCollection blocks, double threshold);

/// \brief Convenience: threshold computation + purge in one step.
BlockCollection BlockPurging(BlockCollection blocks);

}  // namespace queryer

#endif  // QUERYER_METABLOCKING_BLOCK_PURGING_H_
