#include "exec/dedup_join_op.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "exec/hash_join.h"

namespace queryer {

namespace {

/// Numbers each row's duplicate group by ascending group key.
std::vector<std::uint32_t> GroupRanks(const ReferenceRows& rows,
                                      std::size_t* num_groups) {
  std::vector<std::uint64_t> keys = rows.group_keys;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::uint32_t> ranks(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ranks[r] = static_cast<std::uint32_t>(
        std::lower_bound(keys.begin(), keys.end(), rows.group_keys[r]) -
        keys.begin());
  }
  *num_groups = keys.size();
  return ranks;
}

void SortUnique(std::vector<std::pair<std::uint32_t, std::uint32_t>>* pairs) {
  std::sort(pairs->begin(), pairs->end());
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

}  // namespace

DedupJoinOp::DedupJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr left_key,
                         ExprPtr right_key, DirtySide dirty_side,
                         std::shared_ptr<TableRuntime> dirty_runtime,
                         ExecStats* stats, ThreadPool* pool,
                         std::shared_ptr<TraceSink> trace,
                         std::shared_ptr<const CancelContext> cancel)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      dirty_side_(dirty_side),
      dirty_runtime_(std::move(dirty_runtime)),
      stats_(stats),
      pool_(pool),
      trace_(std::move(trace)),
      cancel_(std::move(cancel)) {
  QUERYER_CHECK(left_key_->kind() == ExprKind::kColumn &&
                left_key_->IsBound());
  QUERYER_CHECK(right_key_->kind() == ExprKind::kColumn &&
                right_key_->IsBound());
  if (dirty_side_ != DirtySide::kNone) {
    QUERYER_CHECK(dirty_runtime_ != nullptr);
  }
  output_columns_ = left_->output_columns();
  for (const std::string& column : right_->output_columns()) {
    output_columns_.push_back(column);
  }
}

Status DedupJoinOp::OpenImpl() {
  QUERYER_RETURN_NOT_OK(BuildOutput());
  position_ = 0;
  return Status::OK();
}

Status DedupJoinOp::BuildOutput() {
  ReferenceRows left;
  ReferenceRows right;
  QUERYER_RETURN_NOT_OK(DrainReferences(left_.get(), &left));
  QUERYER_RETURN_NOT_OK(DrainReferences(right_.get(), &right));
  const std::size_t left_key = left_key_->bound_index();
  const std::size_t right_key = right_key_->bound_index();
  JoinKeyIds keys;

  // Resolve the dirty input, if any (Alg. 1 lines 1-10).
  if (dirty_side_ != DirtySide::kNone) {
    const bool dirty_is_right = dirty_side_ == DirtySide::kRight;
    ReferenceRows& dirty = dirty_is_right ? right : left;
    const ReferenceRows& clean = dirty_is_right ? left : right;
    const std::size_t dirty_key = dirty_is_right ? right_key : left_key;
    const std::size_t clean_key = dirty_is_right ? left_key : right_key;
    if (dirty.size() > 0 && dirty.lineage.num_tables() != 1) {
      return Status::ExecutionError(
          "dirty input of Deduplicate-Join must come from a base table");
    }

    // Intern the join keys of every variant on the resolved side first, so
    // exactly the ids below `clean_keys` occur there.
    for (std::size_t r = 0; r < clean.size(); ++r) {
      keys.Of(clean.lineage, clean.row(r), clean_key);
    }
    const std::size_t clean_keys = keys.size();

    // QE' = dirty rows that join with the resolved side (Alg. 1 line 4).
    std::vector<EntityId> query_entities;
    for (std::size_t r = 0; r < dirty.size(); ++r) {
      if (keys.Of(dirty.lineage, dirty.row(r), dirty_key) < clean_keys) {
        query_entities.push_back(dirty.row(r)[0]);
      }
    }

    // Resolve QE' (Alg. 1 line 5): its DR replaces the dirty input. Resolve
    // returns the group keys from the same Link Index snapshot that
    // determined the membership, so concurrent publishes cannot shear the
    // groups.
    Deduplicator deduplicator(dirty_runtime_.get(), stats_, pool_,
                              trace_.get(), cancel_.get());
    std::vector<EntityId> group_keys;
    QUERYER_ASSIGN_OR_RETURN(std::vector<EntityId> resolved,
                             deduplicator.Resolve(query_entities, &group_keys));
    dirty.lineage = Lineage({&dirty_runtime_->table()});
    dirty.ids = std::move(resolved);
    dirty.group_keys.assign(group_keys.begin(), group_keys.end());
  }

  // Deduplicate-Join operation (Alg. 2) over two resolved inputs: find the
  // (left group, right group) pairs with at least one joining member pair,
  // then emit the Cartesian product of each joined pair's members.
  std::size_t left_count = 0;
  std::size_t right_count = 0;
  const std::vector<std::uint32_t> left_group = GroupRanks(left, &left_count);
  const std::vector<std::uint32_t> right_group =
      GroupRanks(right, &right_count);
  const Buckets left_members(left_group, left_count);
  const Buckets right_members(right_group, right_count);

  // (key id, right group) for every keyed right row, sorted and unique.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> right_by_key;
  right_by_key.reserve(right.size());
  for (std::size_t r = 0; r < right.size(); ++r) {
    const std::uint32_t key = keys.Of(right.lineage, right.row(r), right_key);
    if (key != JoinKeyIds::kNull) {
      right_by_key.emplace_back(key, right_group[r]);
    }
  }
  SortUnique(&right_by_key);

  // Group numbers ascend with group keys, so sorting the number pairs
  // orders the joined pairs by (left group key, right group key).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> joined_pairs;
  for (std::size_t r = 0; r < left.size(); ++r) {
    const std::uint32_t key = keys.Of(left.lineage, left.row(r), left_key);
    if (key == JoinKeyIds::kNull) continue;
    auto it = std::lower_bound(right_by_key.begin(), right_by_key.end(),
                               std::make_pair(key, std::uint32_t{0}));
    for (; it != right_by_key.end() && it->first == key; ++it) {
      joined_pairs.emplace_back(left_group[r], it->second);
    }
  }
  SortUnique(&joined_pairs);

  // Each joined pair is one output group, numbered in pair order.
  output_ = ReferenceRows();
  output_.lineage = Lineage::Concat(left.lineage, right.lineage);
  const std::size_t left_width = left.lineage.num_tables();
  const std::size_t right_width = right.lineage.num_tables();
  for (std::size_t p = 0; p < joined_pairs.size(); ++p) {
    const auto [lg, rg] = joined_pairs[p];
    for (std::uint32_t i = left_members.start[lg];
         i < left_members.start[lg + 1]; ++i) {
      const EntityId* l = left.row(left_members.items[i]);
      for (std::uint32_t j = right_members.start[rg];
           j < right_members.start[rg + 1]; ++j) {
        const EntityId* r = right.row(right_members.items[j]);
        output_.ids.insert(output_.ids.end(), l, l + left_width);
        output_.ids.insert(output_.ids.end(), r, r + right_width);
        output_.group_keys.push_back(p);
      }
    }
  }
  return Status::OK();
}

Result<bool> DedupJoinOp::NextImpl(RowBatch* batch) {
  return output_.EmitInto(&position_, batch);
}

void DedupJoinOp::CloseImpl() { output_ = ReferenceRows(); }

}  // namespace queryer
