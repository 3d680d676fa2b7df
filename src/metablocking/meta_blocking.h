// Meta-Blocking orchestration: Block Purging -> Block Filtering -> Edge
// Pruning, in the strict order the paper mandates (coarse block-level
// methods first, so the blocking graph Edge Pruning builds is small).

#ifndef QUERYER_METABLOCKING_META_BLOCKING_H_
#define QUERYER_METABLOCKING_META_BLOCKING_H_

#include <vector>

#include "blocking/block.h"
#include "metablocking/block_filtering.h"
#include "metablocking/block_purging.h"
#include "metablocking/edge_pruning.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace queryer {

/// \brief Which refinement steps run; paper Table 8 evaluates ALL, BP+BF,
/// and BP+EP. Each step's setting is fixed: kPurgingOutlierFactor,
/// kBlockFilteringRatio and CBS edge weights.
struct MetaBlockingConfig {
  bool block_purging = true;
  bool block_filtering = true;
  bool edge_pruning = true;

  static MetaBlockingConfig All() { return {}; }
  static MetaBlockingConfig BpBf() {
    MetaBlockingConfig c;
    c.edge_pruning = false;
    return c;
  }
  static MetaBlockingConfig BpEp() {
    MetaBlockingConfig c;
    c.block_filtering = false;
    return c;
  }
  static MetaBlockingConfig None() {
    MetaBlockingConfig c;
    c.block_purging = c.block_filtering = c.edge_pruning = false;
    return c;
  }
};

/// \brief Outcome of a meta-blocking run: the surviving comparisons plus
/// the funnel counts and stage timings the engine reports.
struct MetaBlockingResult {
  /// Comparisons that survived (each pair once, deterministic order).
  std::vector<Comparison> comparisons;
  /// Block counts after each enabled stage (a disabled stage passes its
  /// input count through).
  std::size_t blocks_in = 0;
  std::size_t blocks_after_purging = 0;
  std::size_t blocks_after_filtering = 0;
  /// Distinct query-relevant pairs before Edge Pruning.
  std::size_t comparisons_before_pruning = 0;
  /// Wall time of each stage; a disabled stage reads 0. The last stage —
  /// Edge Pruning, or the distinct-pair listing without it — is
  /// `edge_pruning_seconds`.
  double purging_seconds = 0;
  double filtering_seconds = 0;
  double edge_pruning_seconds = 0;
};

/// \brief Runs the configured refinement steps over an enriched block
/// collection (the EQBI of Block-Join) and returns the surviving
/// comparisons, identical at every thread count.
///
/// Every stage runs on the calling thread: splitting even batch ER's
/// whole-table pass across workers measured slower end to end
/// (docs/ARCHITECTURE.md). `pool` is unused; it stays only because
/// perfbench's funnel replay (perfbench/src/util.cc) passes one and
/// perfbench is kept source-compatible with the engine.
/// `trace` (may be null) receives one span per stage, named `purging`,
/// `filtering` and `edge-pruning`.
MetaBlockingResult RunMetaBlocking(BlockCollection blocks,
                                   const MetaBlockingConfig& config,
                                   ThreadPool* pool = nullptr,
                                   TraceSink* trace = nullptr);

}  // namespace queryer

#endif  // QUERYER_METABLOCKING_META_BLOCKING_H_
