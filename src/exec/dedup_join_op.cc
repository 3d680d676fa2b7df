#include "exec/dedup_join_op.h"

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "exec/hash_join.h"

namespace queryer {

DedupJoinOp::DedupJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr left_key,
                         ExprPtr right_key, DirtySide dirty_side,
                         std::shared_ptr<TableRuntime> dirty_runtime,
                         ExecStats* stats, ThreadPool* pool,
                         std::size_t batch_size,
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
      batch_size_(batch_size),
      trace_(std::move(trace)),
      cancel_(std::move(cancel)) {
  QUERYER_CHECK(left_key_->IsBound());
  QUERYER_CHECK(right_key_->IsBound());
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
  QUERYER_ASSIGN_OR_RETURN(std::vector<Row> left_rows,
                           DrainOperator(left_.get(), batch_size_));
  QUERYER_ASSIGN_OR_RETURN(std::vector<Row> right_rows,
                           DrainOperator(right_.get(), batch_size_));

  // Resolve the dirty input, if any (Alg. 1 lines 1-10).
  if (dirty_side_ != DirtySide::kNone) {
    const bool dirty_is_right = dirty_side_ == DirtySide::kRight;
    std::vector<Row>& dirty_rows = dirty_is_right ? right_rows : left_rows;
    const std::vector<Row>& clean_rows = dirty_is_right ? left_rows : right_rows;
    const Expr& clean_key = dirty_is_right ? *left_key_ : *right_key_;
    const Expr& dirty_key = dirty_is_right ? *right_key_ : *left_key_;

    // Join keys of every variant on the resolved side.
    std::unordered_set<std::string> clean_keys;
    clean_keys.reserve(clean_rows.size());
    for (const Row& row : clean_rows) {
      std::string key = JoinKeyOf(clean_key, row.values);
      if (!key.empty()) clean_keys.insert(std::move(key));
    }

    // QE' = dirty rows that join with the resolved side (Alg. 1 line 4).
    std::vector<EntityId> query_entities;
    for (const Row& row : dirty_rows) {
      if (row.entity_id == kInvalidEntityId) {
        return Status::ExecutionError(
            "dirty input of Deduplicate-Join must come from a base table");
      }
      std::string key = JoinKeyOf(dirty_key, row.values);
      if (!key.empty() && clean_keys.count(key) > 0) {
        query_entities.push_back(row.entity_id);
      }
    }

    // Resolve QE' (Alg. 1 line 5) and materialize its DR from the table.
    // Resolve returns the group keys from the same Link Index snapshot
    // that determined the membership, so concurrent publishes cannot shear
    // the groups mid-materialization.
    Deduplicator deduplicator(dirty_runtime_.get(), stats_, pool_,
                              trace_.get(), cancel_.get());
    std::vector<EntityId> group_keys;
    QUERYER_ASSIGN_OR_RETURN(std::vector<EntityId> resolved,
                             deduplicator.Resolve(query_entities, &group_keys));
    const Table& table = dirty_runtime_->table();
    dirty_rows.clear();
    dirty_rows.reserve(resolved.size());
    for (std::size_t i = 0; i < resolved.size(); ++i) {
      Row row;
      table.MaterializeRow(resolved[i], &row.values);
      row.entity_id = resolved[i];
      row.group_key = group_keys[i];
      dirty_rows.push_back(std::move(row));
    }
  }

  // Deduplicate-Join operation (Alg. 2) over two resolved inputs: find the
  // (left group, right group) pairs with at least one joining member pair,
  // then emit the Cartesian product of each joined pair's members.
  std::unordered_map<std::string, std::set<std::uint64_t>> right_groups_by_key;
  std::map<std::uint64_t, std::vector<const Row*>> right_members;
  for (const Row& row : right_rows) {
    right_members[row.group_key].push_back(&row);
    std::string key = JoinKeyOf(*right_key_, row.values);
    if (!key.empty()) right_groups_by_key[std::move(key)].insert(row.group_key);
  }

  std::map<std::uint64_t, std::vector<const Row*>> left_members;
  std::set<std::pair<std::uint64_t, std::uint64_t>> joined_pairs;
  for (const Row& row : left_rows) {
    left_members[row.group_key].push_back(&row);
    std::string key = JoinKeyOf(*left_key_, row.values);
    if (key.empty()) continue;
    auto it = right_groups_by_key.find(key);
    if (it == right_groups_by_key.end()) continue;
    for (std::uint64_t right_group : it->second) {
      joined_pairs.emplace(row.group_key, right_group);
    }
  }

  output_.clear();
  // Size the output up front: the emission loop below would otherwise
  // regrow through every Cartesian block.
  std::size_t total_rows = 0;
  for (const auto& [left_group, right_group] : joined_pairs) {
    total_rows +=
        left_members[left_group].size() * right_members[right_group].size();
  }
  output_.reserve(total_rows);
  std::uint64_t next_group = 0;
  for (const auto& [left_group, right_group] : joined_pairs) {
    std::uint64_t group = next_group++;
    for (const Row* l : left_members[left_group]) {
      for (const Row* r : right_members[right_group]) {
        Row out;
        out.values = l->values;
        out.values.insert(out.values.end(), r->values.begin(),
                          r->values.end());
        out.group_key = group;
        out.entity_id = kInvalidEntityId;
        output_.push_back(std::move(out));
      }
    }
  }
  return Status::OK();
}

Result<bool> DedupJoinOp::NextImpl(RowBatch* batch) {
  return EmitMaterialized(&output_, &position_, batch);
}

void DedupJoinOp::CloseImpl() { output_.clear(); }

}  // namespace queryer
