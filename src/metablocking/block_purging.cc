#include "metablocking/block_purging.h"

#include <algorithm>
#include <vector>

namespace queryer {

namespace {

double ThresholdFromSizeSum(double total_size, std::size_t num_blocks) {
  if (num_blocks == 0) return 0;
  double mean_size = total_size / static_cast<double>(num_blocks);
  double size_limit =
      std::max(static_cast<double>(kMinKeptBlockSize),
               kPurgingOutlierFactor * mean_size);
  // Express the limit in cardinality units: ||b|| = |b| (|b| - 1) / 2.
  return size_limit * (size_limit - 1) / 2.0;
}

}  // namespace

double ComputePurgingThreshold(const BlockCollection& blocks) {
  // Sizes are integers, so the double sum is exact in any order.
  double total = 0;
  for (const Block& b : blocks) total += static_cast<double>(b.size());
  return ThresholdFromSizeSum(total, blocks.size());
}

double ComputePurgingThresholdFromSizes(
    const std::vector<std::size_t>& block_sizes) {
  double total = 0;
  for (std::size_t size : block_sizes) total += static_cast<double>(size);
  return ThresholdFromSizeSum(total, block_sizes.size());
}

BlockCollection PurgeBlocks(BlockCollection blocks, double threshold) {
  BlockCollection kept;
  kept.reserve(blocks.size());
  for (Block& b : blocks) {
    if (b.Cardinality() <= threshold) kept.push_back(std::move(b));
  }
  return kept;
}

BlockCollection BlockPurging(BlockCollection blocks) {
  double threshold = ComputePurgingThreshold(blocks);
  return PurgeBlocks(std::move(blocks), threshold);
}

}  // namespace queryer
