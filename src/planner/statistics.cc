#include "planner/statistics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "exec/hash_join.h"
#include "exec/table_predicate.h"
#include "metablocking/block_purging.h"

namespace queryer {

namespace {

// Intersection of sorted entity lists.
std::vector<EntityId> IntersectSorted(const std::vector<EntityId>& a,
                                      const std::vector<EntityId>& b) {
  std::vector<EntityId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<EntityId> UnionSorted(const std::vector<EntityId>& a,
                                  const std::vector<EntityId>& b) {
  std::vector<EntityId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// Entities whose blocking keys cover all tokens of `literal` (the paper's
// WB interpretation: each literal token is a blocking key in the TBI).
std::optional<std::vector<EntityId>> EntitiesForLiteral(
    const TableBlockIndex& tbi, const std::string& literal,
    std::size_t min_token_length) {
  std::vector<std::string> tokens = TokenizeAlnum(literal, min_token_length);
  if (tokens.empty()) return std::nullopt;
  std::vector<EntityId> result;
  bool first = true;
  for (const std::string& token : tokens) {
    std::int64_t block = tbi.FindBlock(token);
    if (block < 0) return std::vector<EntityId>{};  // Token matches nothing.
    const auto& entities = tbi.block_entities(static_cast<std::size_t>(block));
    if (first) {
      result = entities;  // Already ascending (row order).
      first = false;
    } else {
      result = IntersectSorted(result, entities);
    }
    if (result.empty()) break;
  }
  return result;
}

// Block-based SE estimation per the paper; nullopt = needs fallback scan.
std::optional<std::vector<EntityId>> TryBlockEstimate(
    const Expr& predicate, const TableBlockIndex& tbi,
    std::size_t min_token_length) {
  switch (predicate.kind()) {
    case ExprKind::kCompare: {
      if (predicate.compare_op() != CompareOp::kEq) return std::nullopt;
      const Expr* column = predicate.children()[0].get();
      const Expr* literal = predicate.children()[1].get();
      if (column->kind() != ExprKind::kColumn) std::swap(column, literal);
      if (column->kind() != ExprKind::kColumn ||
          literal->kind() != ExprKind::kLiteral) {
        return std::nullopt;
      }
      return EntitiesForLiteral(tbi, literal->literal().text, min_token_length);
    }
    case ExprKind::kIn: {
      std::vector<EntityId> result;
      for (std::size_t i = 1; i < predicate.children().size(); ++i) {
        if (predicate.children()[i]->kind() != ExprKind::kLiteral) {
          return std::nullopt;
        }
        auto entities =
            EntitiesForLiteral(tbi, predicate.children()[i]->literal().text,
                               min_token_length);
        if (!entities.has_value()) return std::nullopt;
        result = UnionSorted(result, *entities);
      }
      return result;
    }
    case ExprKind::kLike: {
      // Tokens of the pattern without wildcard-adjacent fragments still act
      // as blocking keys; a superset estimate is fine for costing.
      return EntitiesForLiteral(tbi, predicate.children()[1]->literal().text,
                                min_token_length);
    }
    case ExprKind::kAnd: {
      auto lhs = TryBlockEstimate(*predicate.children()[0], tbi, min_token_length);
      auto rhs = TryBlockEstimate(*predicate.children()[1], tbi, min_token_length);
      if (!lhs.has_value() || !rhs.has_value()) return std::nullopt;
      return IntersectSorted(*lhs, *rhs);
    }
    case ExprKind::kOr: {
      auto lhs = TryBlockEstimate(*predicate.children()[0], tbi, min_token_length);
      auto rhs = TryBlockEstimate(*predicate.children()[1], tbi, min_token_length);
      if (!lhs.has_value() || !rhs.has_value()) return std::nullopt;
      return UnionSorted(*lhs, *rhs);
    }
    default:
      return std::nullopt;  // Ranges, NOT, MOD: no usable blocking keys.
  }
}

}  // namespace

double ApproximateComparisonsAfterMetaBlocking(
    TableRuntime* runtime, const std::vector<EntityId>& selected) {
  const TableBlockIndex& tbi = runtime->tbi();
  const LinkIndex& li = runtime->link_index();
  const MetaBlockingConfig& config = runtime->meta_blocking_config();

  // SE' = selected \ already-resolved (those cost nothing at query time).
  std::vector<EntityId> fresh;
  fresh.reserve(selected.size());
  for (EntityId e : selected) {
    if (!li.IsResolved(e)) fresh.push_back(e);
  }
  if (fresh.empty()) return 0.0;

  // SB = blocks touched by SE' (approximates the EQBI).
  std::unordered_set<std::uint32_t> touched;
  for (EntityId e : fresh) {
    for (std::uint32_t b : tbi.entity_blocks(e)) touched.insert(b);
  }

  // Approximate Block Purging over SB using full block sizes.
  std::unordered_set<std::uint32_t> purged;
  if (config.block_purging) {
    std::vector<std::size_t> sizes;
    sizes.reserve(touched.size());
    for (std::uint32_t b : touched) sizes.push_back(tbi.block_size(b));
    double threshold = ComputePurgingThresholdFromSizes(
        sizes, config.purging_outlier_factor);
    for (std::uint32_t b : touched) {
      auto n = static_cast<double>(tbi.block_size(b));
      if (n * (n - 1) / 2.0 > threshold) purged.insert(b);
    }
  }

  // Approximate Block Filtering: each entity stays in the first
  // ceil(p * #blocks) of its (ascending pre-sorted) surviving block list.
  std::unordered_map<std::uint32_t, double> qb;
  for (EntityId e : fresh) {
    std::vector<std::uint32_t> surviving;
    for (std::uint32_t b : tbi.entity_blocks(e)) {
      if (purged.count(b) == 0) surviving.push_back(b);
    }
    std::size_t keep = surviving.size();
    if (config.block_filtering && keep > 0) {
      keep = static_cast<std::size_t>(std::ceil(
          config.filtering_ratio * static_cast<double>(surviving.size())));
      keep = std::max<std::size_t>(1, std::min(keep, surviving.size()));
    }
    for (std::size_t i = 0; i < keep; ++i) qb[surviving[i]] += 1.0;
  }

  // C = Σ |qb| * (|Sb| - (|qb| + 1) / 2) over the retained blocks.
  double comparisons = 0;
  for (const auto& [block, q] : qb) {
    auto size = static_cast<double>(tbi.block_size(block));
    double c = q * (size - (q + 1) / 2.0);
    if (c > 0) comparisons += c;
  }
  return comparisons;
}

Result<std::vector<EntityId>> StatisticsCache::EstimateSelectedEntities(
    TableRuntime* runtime, const Expr* predicate, const std::string& alias) {
  const Table& table = runtime->table();
  if (predicate == nullptr) {
    std::vector<EntityId> all(table.num_rows());
    for (EntityId e = 0; e < table.num_rows(); ++e) all[e] = e;
    return all;
  }

  auto block_based =
      TryBlockEstimate(*predicate, runtime->tbi(),
                       runtime->blocking_options().min_token_length);
  if (block_based.has_value()) return std::move(*block_based);

  // Fallback: exact in-memory filter scan (cheap relative to resolution).
  ExprPtr bound = predicate->Clone();
  std::vector<std::string> columns;
  columns.reserve(table.num_attributes());
  for (const std::string& name : table.schema().names()) {
    columns.push_back(alias + "." + name);
  }
  QUERYER_RETURN_NOT_OK(bound->Bind(columns));
  // Single-column predicates compile to a per-dictionary-code truth table
  // (same machinery as the scan's fused filter); everything else evaluates
  // against a zero-copy table reference per row.
  TablePredicate compiled(bound.get(), &table);
  std::vector<EntityId> selected;
  for (EntityId e = 0; e < table.num_rows(); ++e) {
    if (compiled.Matches(e)) selected.push_back(e);
  }
  return selected;
}

Result<double> StatisticsCache::EstimateComparisons(TableRuntime* runtime,
                                                    const Expr* predicate,
                                                    const std::string& alias) {
  QUERYER_ASSIGN_OR_RETURN(std::vector<EntityId> selected,
                           EstimateSelectedEntities(runtime, predicate, alias));
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
