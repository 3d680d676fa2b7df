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
  ReferenceRows input;
  QUERYER_RETURN_NOT_OK(DrainReferences(child_.get(), batch_size_, &input));
  std::unordered_set<std::uint64_t> passing_groups;
  for (std::size_t r = 0; r < input.size(); ++r) {
    if (predicate_->EvalBoolFast(input.lineage.Ref(input.row(r)))) {
      passing_groups.insert(input.group_keys[r]);
    }
  }
  output_ = ReferenceRows();
  output_.lineage = input.lineage;
  for (std::size_t r = 0; r < input.size(); ++r) {
    if (passing_groups.count(input.group_keys[r]) > 0) {
      output_.Append(input.row(r), input.group_keys[r]);
    }
  }
  position_ = 0;
  return Status::OK();
}

Result<bool> GroupFilterOp::NextImpl(RowBatch* batch) {
  return output_.EmitInto(&position_, batch);
}

void GroupFilterOp::CloseImpl() { output_ = ReferenceRows(); }

}  // namespace queryer
