#include "baseline/batch_er.h"

#include "common/stopwatch.h"

namespace queryer {

Result<BatchErStats> BatchDeduplicate(TableRuntime* runtime,
                                      ExecStats* stats) {
  BatchErStats result;
  Stopwatch total;

  // The full block collection: every TBI block, with every member treated
  // as a "query" entity (batch ER has no selection to restrict to).
  const TableBlockIndex& tbi = runtime->tbi();
  Stopwatch watch;
  BlockCollection blocks;
  blocks.reserve(tbi.num_blocks());
  for (std::size_t b = 0; b < tbi.num_blocks(); ++b) {
    Block block;
    block.key = static_cast<std::uint32_t>(b);
    block.entities = tbi.block_entities(b);
    block.query_entities = block.entities;
    blocks.push_back(std::move(block));
  }
  double block_seconds = watch.ElapsedSeconds();

  MetaBlockingResult refined =
      RunMetaBlocking(std::move(blocks), runtime->meta_blocking_config(),
                      runtime->thread_pool());

  watch.Restart();
  QUERYER_ASSIGN_OR_RETURN(
      StagedComparisons exec,
      EvaluateComparisons(runtime->table(), refined.comparisons,
                          runtime->matching_config(), runtime->link_index(),
                          &runtime->attribute_weights(),
                          runtime->thread_pool()));
  const std::size_t merges = runtime->link_index().PublishLinks(exec.matched);
  double resolution_seconds = watch.ElapsedSeconds();

  runtime->link_index().MarkAllResolved();

  result.comparisons_executed = exec.executed;
  result.matches_found = merges;
  result.seconds = total.ElapsedSeconds();

  if (stats != nullptr) {
    stats->comparisons_executed += exec.executed;
    stats->comparisons_skipped_linked += exec.skipped_linked;
    stats->matches_found += merges;
    stats->blocking_seconds += block_seconds;
    stats->purging_seconds += refined.purging_seconds;
    stats->filtering_seconds += refined.filtering_seconds;
    stats->edge_pruning_seconds += refined.edge_pruning_seconds;
    stats->blocks_after_purging += refined.blocks_after_purging;
    stats->blocks_after_filtering += refined.blocks_after_filtering;
    stats->comparisons_before_pruning += refined.comparisons_before_pruning;
    stats->resolution_seconds += resolution_seconds;
    stats->comparisons_after_metablocking += refined.comparisons.size();
    if (stats->collect_comparisons) {
      stats->collected_comparisons.insert(stats->collected_comparisons.end(),
                                          refined.comparisons.begin(),
                                          refined.comparisons.end());
    }
  }
  return result;
}

}  // namespace queryer
