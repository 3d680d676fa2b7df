// Per-query execution statistics: the measures the paper's evaluation
// reports (executed comparisons, per-stage time breakdown) are collected
// here by the ER operators.

#ifndef QUERYER_EXEC_EXEC_STATS_H_
#define QUERYER_EXEC_EXEC_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metablocking/edge_pruning.h"

namespace queryer {

/// \brief Counters and stage timings of one query execution.
struct ExecStats {
  // Comparison-Execution counters.
  std::size_t comparisons_executed = 0;
  std::size_t comparisons_skipped_linked = 0;
  /// Comparisons left to a concurrent session that had already claimed them
  /// (only non-zero with max_concurrent_queries > 1).
  std::size_t comparisons_skipped_inflight = 0;
  std::size_t matches_found = 0;

  // ER pipeline counters.
  std::size_t query_entities = 0;        // |QE| fed into Deduplicate.
  std::size_t entities_already_resolved = 0;  // Served from the Link Index.
  /// Entities a concurrent session was resolving when this query claimed
  /// its selection (this query waited for them instead of re-resolving).
  std::size_t entities_claimed_elsewhere = 0;
  std::size_t blocks_after_join = 0;     // |EQBI|.
  std::size_t blocks_after_purging = 0;
  std::size_t blocks_after_filtering = 0;
  /// Distinct query-relevant pairs entering Edge Pruning.
  std::size_t comparisons_before_pruning = 0;
  std::size_t comparisons_after_metablocking = 0;

  // Retired batch pipeline counters, kept only because perfbench's
  // parallel.morsels_per_query still reads them.
  /// Always 0: table scans run sequentially and nothing writes this.
  std::size_t morsels_scanned = 0;
  /// Always 0: join probes run sequentially and nothing writes this.
  std::size_t probe_morsels = 0;

  // Stage timings (seconds), cumulative over all ER operators of the query.
  double blocking_seconds = 0;      // QBI construction.
  double block_join_seconds = 0;
  double purging_seconds = 0;
  double filtering_seconds = 0;
  double edge_pruning_seconds = 0;
  double resolution_seconds = 0;    // Comparison-Execution.
  double group_seconds = 0;         // Group-Entities.
  double total_seconds = 0;         // Whole query, set by the engine.

  // Relational operator self-times (seconds), folded in from the session's
  // OperatorProfile tree when one was attached (cursor sessions always
  // attach one). Dedup-ish operators are NOT included: their self time is
  // already covered by the ER stage seconds above.
  double scan_seconds = 0;     // TableScan (incl. fused filters).
  double filter_seconds = 0;   // Standalone Filter + GroupFilter.
  double join_seconds = 0;     // HashJoin build + probe.
  double project_seconds = 0;  // Project.

  /// When set, ER operators append every surviving comparison here so the
  /// benches can measure Pair Completeness against ground truth.
  bool collect_comparisons = false;
  std::vector<Comparison> collected_comparisons;

  double meta_blocking_seconds() const {
    return purging_seconds + filtering_seconds + edge_pruning_seconds;
  }
  /// Total of the relational self-times above.
  double relational_seconds() const {
    return scan_seconds + filter_seconds + join_seconds + project_seconds;
  }
  /// Time attributed neither to an ER stage nor to a relational operator
  /// (result materialization, batch bookkeeping, ...). Before the operator
  /// profiles existed this bucket silently swallowed all scan/filter/join/
  /// project time; now those are reported explicitly.
  double other_seconds() const;

  /// Merges another stats object into this one (BA = batch ER + query run).
  void Accumulate(const ExecStats& other);

  std::string ToString() const;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_EXEC_STATS_H_
