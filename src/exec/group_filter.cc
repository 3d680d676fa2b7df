#include "exec/group_filter.h"

#include <unordered_set>

#include "common/logging.h"

namespace queryer {

GroupFilterOp::GroupFilterOp(OperatorPtr child, ExprPtr predicate,
                             std::size_t batch_size)
    : child_(std::move(child)),
      predicate_(std::move(predicate)),
      batch_size_(batch_size) {
  output_columns_ = child_->output_columns();
  QUERYER_CHECK(predicate_->IsBound());
}

Status GroupFilterOp::OpenImpl() {
  QUERYER_ASSIGN_OR_RETURN(std::vector<Row> input,
                           DrainOperator(child_.get(), batch_size_));
  std::unordered_set<std::uint64_t> passing_groups;
  for (const Row& row : input) {
    if (predicate_->EvalBoolFast(row.values)) {
      passing_groups.insert(row.group_key);
    }
  }
  output_.clear();
  for (Row& row : input) {
    if (passing_groups.count(row.group_key) > 0) {
      output_.push_back(std::move(row));
    }
  }
  position_ = 0;
  return Status::OK();
}

Result<bool> GroupFilterOp::NextImpl(RowBatch* batch) {
  return EmitMaterialized(&output_, &position_, batch);
}

void GroupFilterOp::CloseImpl() { output_.clear(); }

}  // namespace queryer
