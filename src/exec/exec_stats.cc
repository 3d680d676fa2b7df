#include "exec/exec_stats.h"

#include <algorithm>

#include "common/string_util.h"

namespace queryer {

double ExecStats::other_seconds() const {
  double er = blocking_seconds + block_join_seconds + meta_blocking_seconds() +
              resolution_seconds + group_seconds;
  return std::max(0.0, total_seconds - er - relational_seconds());
}

void ExecStats::Accumulate(const ExecStats& other) {
  comparisons_executed += other.comparisons_executed;
  comparisons_skipped_linked += other.comparisons_skipped_linked;
  comparisons_skipped_inflight += other.comparisons_skipped_inflight;
  matches_found += other.matches_found;
  query_entities += other.query_entities;
  entities_already_resolved += other.entities_already_resolved;
  entities_claimed_elsewhere += other.entities_claimed_elsewhere;
  blocks_after_join += other.blocks_after_join;
  blocks_after_purging += other.blocks_after_purging;
  blocks_after_filtering += other.blocks_after_filtering;
  comparisons_before_pruning += other.comparisons_before_pruning;
  comparisons_after_metablocking += other.comparisons_after_metablocking;
  morsels_scanned += other.morsels_scanned;
  probe_morsels += other.probe_morsels;
  partial_groups_merged += other.partial_groups_merged;
  blocking_seconds += other.blocking_seconds;
  block_join_seconds += other.block_join_seconds;
  purging_seconds += other.purging_seconds;
  filtering_seconds += other.filtering_seconds;
  edge_pruning_seconds += other.edge_pruning_seconds;
  resolution_seconds += other.resolution_seconds;
  group_seconds += other.group_seconds;
  total_seconds += other.total_seconds;
  scan_seconds += other.scan_seconds;
  filter_seconds += other.filter_seconds;
  join_seconds += other.join_seconds;
  project_seconds += other.project_seconds;
  collected_comparisons.insert(collected_comparisons.end(),
                               other.collected_comparisons.begin(),
                               other.collected_comparisons.end());
}

std::string ExecStats::ToString() const {
  std::string out;
  out += "total=" + FormatDouble(total_seconds, 4) + "s";
  out += " comparisons=" + std::to_string(comparisons_executed);
  out += " matches=" + std::to_string(matches_found);
  out += " |QE|=" + std::to_string(query_entities);
  out += " breakdown[block-join=" + FormatDouble(block_join_seconds, 4);
  out += " meta-blocking=" + FormatDouble(meta_blocking_seconds(), 4);
  out += " resolution=" + FormatDouble(resolution_seconds, 4);
  out += " group=" + FormatDouble(group_seconds, 4);
  // New relational buckets go BEFORE the existing trailing "other=" token
  // so scripts that parse the historical fields keep working.
  out += " scan=" + FormatDouble(scan_seconds, 4);
  out += " filter=" + FormatDouble(filter_seconds, 4);
  out += " join=" + FormatDouble(join_seconds, 4);
  out += " project=" + FormatDouble(project_seconds, 4);
  out += " other=" + FormatDouble(other_seconds(), 4) + "]";
  return out;
}

}  // namespace queryer
