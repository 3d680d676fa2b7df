// The hash-container comparison estimator the tests compare against.
//
// This is the planner's approximate Block Purging + Block Filtering funnel
// written the direct way: the touched blocks, the purged blocks and the
// per-block retained counts live in hash containers, each resolved entity
// is looked up on its own, and every entity's surviving block list is
// materialized before filtering. ApproximateComparisonsAfterMetaBlocking
// computes the same sum over dense per-block counters; the tests hold it
// to this function, double for double.

#ifndef QUERYER_TESTS_FUNNEL_ORACLE_H_
#define QUERYER_TESTS_FUNNEL_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/table_runtime.h"
#include "metablocking/block_filtering.h"
#include "metablocking/block_purging.h"

namespace queryer {

/// Estimated comparisons of resolving `selected`: approximate BP + BF over
/// the ITBI blocks of its unresolved entities, then
/// Σ |qb|·(|Sb| − (|qb|+1)/2) over the retained blocks.
inline double OracleApproximateComparisons(
    TableRuntime* runtime, const std::vector<EntityId>& selected) {
  const TableBlockIndex& tbi = runtime->tbi();
  const LinkIndex& li = runtime->link_index();
  const MetaBlockingConfig& config = runtime->meta_blocking_config();

  std::vector<EntityId> fresh;
  for (EntityId e : selected) {
    if (!li.IsResolved(e)) fresh.push_back(e);
  }
  if (fresh.empty()) return 0.0;

  std::unordered_set<std::uint32_t> touched;
  for (EntityId e : fresh) {
    for (std::uint32_t b : tbi.entity_blocks(e)) touched.insert(b);
  }

  std::unordered_set<std::uint32_t> purged;
  if (config.block_purging) {
    std::vector<std::size_t> sizes;
    for (std::uint32_t b : touched) sizes.push_back(tbi.block_size(b));
    double threshold = ComputePurgingThresholdFromSizes(sizes);
    for (std::uint32_t b : touched) {
      auto n = static_cast<double>(tbi.block_size(b));
      if (n * (n - 1) / 2.0 > threshold) purged.insert(b);
    }
  }

  std::unordered_map<std::uint32_t, double> qb;
  for (EntityId e : fresh) {
    std::vector<std::uint32_t> surviving;
    for (std::uint32_t b : tbi.entity_blocks(e)) {
      if (purged.count(b) == 0) surviving.push_back(b);
    }
    std::size_t keep = surviving.size();
    if (config.block_filtering && keep > 0) {
      keep = static_cast<std::size_t>(std::ceil(
          kBlockFilteringRatio * static_cast<double>(surviving.size())));
      keep = std::max<std::size_t>(1, std::min(keep, surviving.size()));
    }
    for (std::size_t i = 0; i < keep; ++i) qb[surviving[i]] += 1.0;
  }

  double comparisons = 0;
  for (const auto& [block, q] : qb) {
    auto size = static_cast<double>(tbi.block_size(block));
    double c = q * (size - (q + 1) / 2.0);
    if (c > 0) comparisons += c;
  }
  return comparisons;
}

}  // namespace queryer

#endif  // QUERYER_TESTS_FUNNEL_ORACLE_H_
