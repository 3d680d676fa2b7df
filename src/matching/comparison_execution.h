// Comparison-Execution (paper Sec. 6.1(iv)): runs the comparisons that
// survived Meta-Blocking and reports the executed-comparison count that the
// paper's evaluation tracks. Evaluation is read-only on the Link Index; the
// caller publishes the staged matches with LinkIndex::PublishLinks, so a
// run amends the index all at once or not at all.

#ifndef QUERYER_MATCHING_COMPARISON_EXECUTION_H_
#define QUERYER_MATCHING_COMPARISON_EXECUTION_H_

#include <cstdint>
#include <vector>

#include "common/cancel_context.h"
#include "common/status.h"
#include "matching/link_index.h"
#include "matching/profile_matcher.h"
#include "metablocking/edge_pruning.h"
#include "parallel/thread_pool.h"
#include "storage/table.h"

namespace queryer {

/// \brief Outcome of one staged evaluation: matches are buffered instead of
/// written, so the caller can publish them to the Link Index in one short
/// exclusive section.
struct StagedComparisons {
  /// Pairs whose profile similarity cleared the matching threshold, in
  /// input order.
  std::vector<Comparison> matched;
  /// Comparisons actually evaluated with the similarity function.
  std::size_t executed = 0;
  /// Comparisons skipped because the pair was already linked.
  std::size_t skipped_linked = 0;
};

/// Below this many comparisons the parallel path is not worth its task
/// submission and merge overhead; the comparisons run as one chunk.
inline constexpr std::size_t kParallelComparisonThreshold = 256;

/// \brief Read-only comparison evaluation against a shared snapshot of
/// `link_index`. `weights` are the table's attribute-distinctiveness
/// weights (may be null for uniform weighting).
///
/// Never writes the index. The comparisons are split into contiguous
/// chunks (one chunk without a multi-worker `pool` or below
/// kParallelComparisonThreshold pairs). Each chunk runs two passes:
///
///  1. Under one shared snapshot, drop the pairs already linked and record
///     each survivor's two snapshot representatives.
///  2. Without the lock, evaluate the survivors in input order against a
///     chunk-local union-find overlay over those representatives: a pair
///     the overlay already joins was linked transitively by an earlier
///     match of the same chunk and is skipped; a match joins its pair.
///
/// Both kinds of skip count in `skipped_linked`. A pair already linked is
/// not re-compared (its outcome is known), which is how the Link Index
/// makes repeated and overlapping queries cheaper. With one chunk and no
/// concurrent publisher, `executed`, `skipped_linked` and the merges that
/// publishing `matched` performs are exactly those of evaluating the pairs
/// one by one against a live index that each match amends. With N chunks a
/// chunk does not see its siblings' matches, so it may evaluate a pair an
/// earlier chunk linked; publishing such a match is a no-op merge, so the
/// clustering is the same. Concurrent publishers are handled the same way:
/// the snapshot may be stale, which only costs no-op merges.
///
/// `matched` is assembled in chunk order, so the staged buffer is
/// deterministic for a given input order. `cancel` (optional) is polled
/// every CancelContext::kPollInterval evaluated pairs per chunk; the first
/// failing chunk's Status wins, like ParallelFor's first-error-wins rule.
/// Errors injected at the `er.comparison_chunk` failpoint surface the same
/// way. A failed evaluation has staged nothing anyone can publish.
Result<StagedComparisons> EvaluateComparisons(
    const Table& table, const std::vector<Comparison>& comparisons,
    const MatchingConfig& config, const LinkIndex& link_index,
    const AttributeWeights* weights = nullptr, ThreadPool* pool = nullptr,
    const CancelContext* cancel = nullptr);

}  // namespace queryer

#endif  // QUERYER_MATCHING_COMPARISON_EXECUTION_H_
