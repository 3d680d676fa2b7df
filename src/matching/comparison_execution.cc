#include "matching/comparison_execution.h"

#include "common/failpoint.h"
#include "matching/comparison_kernel.h"

namespace queryer {

namespace {

Result<ComparisonExecStats> ExecuteComparisonsSequential(
    const Table& table, const std::vector<Comparison>& comparisons,
    const MatchingConfig& config, LinkIndex* link_index,
    const AttributeWeights* weights, const CancelContext* cancel) {
  // The same site as the parallel chunk bodies: a sequential execution is
  // one chunk, so chaos specs behave uniformly across engine widths.
  QUERYER_FAILPOINT("er.comparison_chunk");
  ComparisonKernel kernel(table, comparisons.data(),
                          comparisons.data() + comparisons.size(), config,
                          weights);
  ComparisonExecStats stats;
  std::size_t visited = 0;
  for (const auto& [a, b] : comparisons) {
    if (cancel != nullptr && visited % CancelContext::kPollInterval == 0) {
      QUERYER_RETURN_NOT_OK(cancel->Check());
    }
    ++visited;
    if (link_index->AreLinked(a, b)) {
      ++stats.skipped_linked;
      continue;
    }
    ++stats.executed;
    if (kernel.Similarity(a, b) >= config.threshold) {
      link_index->AddLink(a, b);
      ++stats.matches_found;
    }
  }
  return stats;
}

}  // namespace

Result<StagedComparisons> EvaluateComparisons(
    const Table& table, const std::vector<Comparison>& comparisons,
    const MatchingConfig& config, const LinkIndex& link_index,
    const AttributeWeights* weights, ThreadPool* pool,
    const CancelContext* cancel) {
  StagedComparisons staged;
  if (comparisons.empty()) return staged;

  struct ChunkResult {
    std::vector<Comparison> pending;
    std::vector<Comparison> matched;
    std::size_t skipped_linked = 0;
  };
  const bool parallel = pool != nullptr && pool->num_threads() >= 2 &&
                        comparisons.size() >= kParallelComparisonThreshold;
  std::vector<ChunkRange> chunks =
      SplitRange(comparisons.size(), parallel ? pool->num_threads() : 1);
  std::vector<ChunkResult> results(chunks.size());

  Status status = ParallelFor(
      parallel ? pool : nullptr, chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        // Injected chunk failures exercise the claim-abandonment path the
        // Deduplicator wraps around this call.
        QUERYER_FAILPOINT("er.comparison_chunk");
        ChunkResult& result = results[chunk];
        // Pass 1, under one shared snapshot per chunk: drop pairs that are
        // already linked. Separated from the similarity pass so the shared
        // lock covers only cheap forest walks and concurrent publishers are
        // not stalled behind string similarity computation.
        {
          LinkIndex::ReadView view = link_index.SharedSnapshot();
          for (std::size_t i = begin; i < end; ++i) {
            const auto& [a, b] = comparisons[i];
            if (view.AreLinked(a, b)) {
              ++result.skipped_linked;
            } else {
              result.pending.emplace_back(a, b);
            }
          }
        }
        // Pass 2, lock-free: evaluate the survivors and buffer the matches.
        // The cancel poll lives here because this pass is where a cold-LI
        // resolution spends its seconds. The chunk owns its kernel, so the
        // workers share nothing.
        ComparisonKernel kernel(table, result.pending.data(),
                                result.pending.data() + result.pending.size(),
                                config, weights);
        std::size_t evaluated = 0;
        for (const auto& [a, b] : result.pending) {
          if (cancel != nullptr &&
              evaluated % CancelContext::kPollInterval == 0) {
            QUERYER_RETURN_NOT_OK(cancel->Check());
          }
          ++evaluated;
          if (kernel.Similarity(a, b) >= config.threshold) {
            result.matched.emplace_back(a, b);
          }
        }
        return Status::OK();
      });
  // First-error-wins (lowest chunk index) from ParallelFor. Nothing was
  // written to the Link Index, so the caller can abandon or retry freely.
  QUERYER_RETURN_NOT_OK(status);

  // Assemble in chunk order: deterministic for a given input order no
  // matter how the chunks were scheduled.
  for (ChunkResult& result : results) {
    staged.executed += result.pending.size();
    staged.skipped_linked += result.skipped_linked;
    staged.matched.insert(staged.matched.end(), result.matched.begin(),
                          result.matched.end());
  }
  return staged;
}

Result<ComparisonExecStats> ExecuteComparisons(
    const Table& table, const std::vector<Comparison>& comparisons,
    const MatchingConfig& config, LinkIndex* link_index,
    const AttributeWeights* weights, ThreadPool* pool,
    const CancelContext* cancel) {
  if (pool == nullptr || pool->num_threads() < 2 ||
      comparisons.size() < kParallelComparisonThreshold) {
    return ExecuteComparisonsSequential(table, comparisons, config, link_index,
                                        weights, cancel);
  }
  // Parallel path: staged read-only evaluation, then one exclusive publish.
  // Matches whose endpoints were linked transitively by an earlier buffered
  // link are no-op merges, so matches_found counts exactly the merges the
  // sequential loop performs.
  QUERYER_ASSIGN_OR_RETURN(
      StagedComparisons staged,
      EvaluateComparisons(table, comparisons, config, *link_index, weights,
                          pool, cancel));
  ComparisonExecStats stats;
  stats.executed = staged.executed;
  stats.skipped_linked = staged.skipped_linked;
  stats.matches_found = link_index->PublishLinks(staged.matched);
  return stats;
}

}  // namespace queryer
