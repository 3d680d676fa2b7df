#include "matching/comparison_execution.h"

#include <algorithm>
#include <numeric>

#include "common/failpoint.h"
#include "matching/comparison_kernel.h"

namespace queryer {

namespace {

// Union-find over dense indices with path halving.
EntityId FindRoot(std::vector<EntityId>& parent, EntityId x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
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
    std::vector<Comparison> matched;
    std::size_t executed = 0;
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
        // already linked and key each survivor's two endpoints by their
        // snapshot representative, (representative << 32 | endpoint slot).
        // Separated from the similarity pass so the shared lock covers only
        // cheap forest walks and concurrent publishers are not stalled
        // behind string similarity computation.
        std::vector<Comparison> pending;
        std::vector<std::uint64_t> keys;
        keys.reserve(2 * (end - begin));
        {
          LinkIndex::ReadView view = link_index.SharedSnapshot();
          for (std::size_t i = begin; i < end; ++i) {
            const auto& [a, b] = comparisons[i];
            const EntityId rep_a = view.Representative(a);
            const EntityId rep_b = view.Representative(b);
            if (rep_a == rep_b) {
              ++result.skipped_linked;
              continue;
            }
            const std::uint64_t slot = 2 * pending.size();
            keys.push_back(std::uint64_t{rep_a} << 32 | slot);
            keys.push_back(std::uint64_t{rep_b} << 32 | (slot + 1));
            pending.emplace_back(a, b);
          }
        }
        // The chunk-local overlay: union-find over the distinct snapshot
        // representatives, numbered densely by rank; node[2 i] and
        // node[2 i + 1] are pending pair i's endpoints (a slot fits the
        // key's low 32 bits: a chunk holds far fewer than 2^31 pairs). The
        // snapshot plus the overlay's unions is the live index the chunk's
        // matches would have built, so a pair linked transitively by an
        // earlier match of the chunk is skipped, not evaluated.
        std::sort(keys.begin(), keys.end());
        std::vector<EntityId> node(keys.size());
        EntityId rank = 0;
        for (std::size_t k = 0; k < keys.size(); ++k) {
          if (k > 0 && keys[k] >> 32 != keys[k - 1] >> 32) ++rank;
          node[static_cast<std::uint32_t>(keys[k])] = rank;
        }
        std::vector<EntityId> overlay(keys.empty() ? 0 : rank + 1);
        std::iota(overlay.begin(), overlay.end(), EntityId{0});

        // Pass 2, lock-free: evaluate the survivors and buffer the matches.
        // The cancel poll lives here because this pass is where a cold-LI
        // resolution spends its seconds. The chunk owns its kernel, so the
        // workers share nothing.
        ComparisonKernel kernel(table, pending.data(),
                                pending.data() + pending.size(), config,
                                weights);
        for (std::size_t i = 0; i < pending.size(); ++i) {
          if (cancel != nullptr && i % CancelContext::kPollInterval == 0) {
            QUERYER_RETURN_NOT_OK(cancel->Check());
          }
          const EntityId root_a = FindRoot(overlay, node[2 * i]);
          const EntityId root_b = FindRoot(overlay, node[2 * i + 1]);
          if (root_a == root_b) {
            ++result.skipped_linked;
            continue;
          }
          ++result.executed;
          const auto& [a, b] = pending[i];
          if (kernel.Similarity(a, b) >= kMatchThreshold) {
            result.matched.emplace_back(a, b);
            overlay[root_a] = root_b;
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
    staged.executed += result.executed;
    staged.skipped_linked += result.skipped_linked;
    staged.matched.insert(staged.matched.end(), result.matched.begin(),
                          result.matched.end());
  }
  return staged;
}

}  // namespace queryer
