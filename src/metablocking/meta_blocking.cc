#include "metablocking/meta_blocking.h"

#include "common/stopwatch.h"

namespace queryer {

MetaBlockingResult RunMetaBlocking(BlockCollection blocks,
                                   const MetaBlockingConfig& config,
                                   ThreadPool* /*pool*/, TraceSink* trace) {
  MetaBlockingResult result;
  result.blocks_in = blocks.size();

  Stopwatch watch;
  if (config.block_purging) {
    TraceSpan span(trace, "purging", "er");
    blocks = BlockPurging(std::move(blocks));
    result.purging_seconds = watch.ElapsedSeconds();
  }
  result.blocks_after_purging = blocks.size();

  if (config.block_filtering) {
    watch.Restart();
    TraceSpan span(trace, "filtering", "er");
    blocks = BlockFiltering(blocks);
    result.filtering_seconds = watch.ElapsedSeconds();
  }
  result.blocks_after_filtering = blocks.size();

  {
    watch.Restart();
    TraceSpan span(trace, "edge-pruning", "er");
    if (config.edge_pruning) {
      BlockingGraph graph = BuildBlockingGraph(blocks);
      result.comparisons_before_pruning = graph.edges.size();
      result.comparisons = EdgePruning(graph);
    } else {
      result.comparisons = DistinctComparisons(blocks);
      result.comparisons_before_pruning = result.comparisons.size();
    }
    result.edge_pruning_seconds = watch.ElapsedSeconds();
  }
  return result;
}

}  // namespace queryer
