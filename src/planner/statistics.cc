#include "planner/statistics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>

#include "common/string_util.h"
#include "exec/hash_join.h"
#include "exec/table_predicate.h"
#include "metablocking/block_filtering.h"
#include "metablocking/block_purging.h"

namespace queryer {

double ApproximateComparisonsAfterMetaBlocking(
    TableRuntime* runtime, const std::vector<EntityId>& selected) {
  const TableBlockIndex& tbi = runtime->tbi();
  const MetaBlockingConfig& config = runtime->meta_blocking_config();

  // SE' = selected \ already-resolved (those cost nothing at query time).
  std::vector<EntityId> fresh;
  fresh.reserve(selected.size());
  {
    const LinkIndex::ReadView li = runtime->link_index().SharedSnapshot();
    for (EntityId e : selected) {
      if (!li.IsResolved(e)) fresh.push_back(e);
    }
  }
  if (fresh.empty()) return 0.0;

  // SB = blocks touched by SE' (approximates the EQBI), in first-touch
  // order, with their full sizes for the purging threshold.
  std::vector<std::uint8_t> is_touched(tbi.num_blocks(), 0);
  std::vector<std::uint32_t> touched;
  std::vector<std::size_t> sizes;
  for (EntityId e : fresh) {
    for (std::uint32_t b : tbi.entity_blocks(e)) {
      if (is_touched[b] != 0) continue;
      is_touched[b] = 1;
      touched.push_back(b);
      sizes.push_back(tbi.block_size(b));
    }
  }

  // Approximate Block Purging over SB using full block sizes. Purging is a
  // size threshold and each ITBI list ascends by size, so an entity's
  // surviving blocks are a prefix of its list.
  double threshold = std::numeric_limits<double>::infinity();
  if (config.block_purging) {
    threshold = ComputePurgingThresholdFromSizes(sizes);
  }
  auto purged = [&](std::uint32_t b) {
    auto n = static_cast<double>(tbi.block_size(b));
    return n * (n - 1) / 2.0 > threshold;
  };

  // Approximate Block Filtering: each entity stays in the first
  // ceil(p * #blocks) of its surviving block list; qb counts the entities
  // each block retains.
  std::vector<std::uint32_t> qb(tbi.num_blocks(), 0);
  for (EntityId e : fresh) {
    const std::vector<std::uint32_t>& blocks = tbi.entity_blocks(e);
    std::size_t surviving = 0;
    while (surviving < blocks.size() && !purged(blocks[surviving])) {
      ++surviving;
    }
    std::size_t keep = surviving;
    if (config.block_filtering && keep > 0) {
      keep = static_cast<std::size_t>(
          std::ceil(kBlockFilteringRatio * static_cast<double>(surviving)));
      keep = std::max<std::size_t>(1, std::min(keep, surviving));
    }
    for (std::size_t i = 0; i < keep; ++i) ++qb[blocks[i]];
  }

  // C = Σ |qb| * (|Sb| - (|qb| + 1) / 2) over the retained blocks. Every
  // term is a multiple of 0.5, so the sum is exact in any order.
  double comparisons = 0;
  for (std::uint32_t b : touched) {
    auto q = static_cast<double>(qb[b]);
    double c = q * (static_cast<double>(tbi.block_size(b)) - (q + 1) / 2.0);
    if (c > 0) comparisons += c;
  }
  return comparisons;
}

Result<double> StatisticsCache::EstimateComparisons(TableRuntime* runtime,
                                                    const Expr* predicate,
                                                    const std::string& alias) {
  // The exact selection, through the same compiled predicate a fused scan
  // uses: bound against the table's attribute positions. Without a
  // predicate every row matches.
  const Table& table = runtime->table();
  ExprPtr bound;
  TablePredicate compiled;
  if (predicate != nullptr) {
    bound = predicate->Clone();
    std::vector<std::string> columns;
    columns.reserve(table.num_attributes());
    for (const std::string& name : table.schema().names()) {
      columns.push_back(alias + "." + name);
    }
    QUERYER_RETURN_NOT_OK(bound->Bind(columns));
    compiled = TablePredicate(bound.get(), &table);
  }
  std::vector<EntityId> selected;
  for (EntityId e = 0; e < table.num_rows(); ++e) {
    if (compiled.Matches(e)) selected.push_back(e);
  }
  return ApproximateComparisonsAfterMetaBlocking(runtime, selected);
}

double StatisticsCache::JoinFraction(TableRuntime* left,
                                     const std::string& left_column,
                                     TableRuntime* right,
                                     const std::string& right_column) {
  std::string cache_key = left->table().name() + "." + ToLower(left_column) +
                          "|" + right->table().name() + "." +
                          ToLower(right_column);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = join_fraction_.find(cache_key);
  if (it != join_fraction_.end()) return it->second;

  auto left_idx = left->table().schema().IndexOf(left_column);
  auto right_idx = right->table().schema().IndexOf(right_column);
  if (!left_idx.has_value() || !right_idx.has_value() ||
      left->table().num_rows() == 0) {
    join_fraction_[cache_key] = 0.0;
    return 0.0;
  }

  // Canonicalize once per distinct dictionary value, then count per-row
  // membership by code — every dictionary entry occurs in at least one row,
  // so the key sets match the old per-row loops exactly.
  const ColumnView right_col = right->table().column(*right_idx);
  const Dictionary& right_dict = right_col.dictionary();
  std::unordered_set<std::string> right_keys;
  right_keys.reserve(right_dict.size());
  for (DictCode c = 0; c < right_dict.size(); ++c) {
    const std::string_view value = right_dict.value(c);
    if (!value.empty()) right_keys.insert(CanonicalJoinKey(value));
  }
  const ColumnView left_col = left->table().column(*left_idx);
  const Dictionary& left_dict = left_col.dictionary();
  std::vector<std::uint8_t> code_joins(left_dict.size(), 0);
  for (DictCode c = 0; c < left_dict.size(); ++c) {
    const std::string_view value = left_dict.value(c);
    code_joins[c] =
        !value.empty() && right_keys.count(CanonicalJoinKey(value)) > 0;
  }
  std::size_t joining = 0;
  for (const DictCode code : left_col.codes()) joining += code_joins[code];
  double fraction = static_cast<double>(joining) /
                    static_cast<double>(left->table().num_rows());
  join_fraction_[cache_key] = fraction;
  return fraction;
}

}  // namespace queryer
