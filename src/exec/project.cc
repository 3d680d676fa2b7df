#include "exec/project.h"

#include "common/logging.h"

namespace queryer {

ProjectOp::ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
                     std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  QUERYER_CHECK(exprs_.size() == names.size());
  for (const auto& expr : exprs_) QUERYER_CHECK(expr->IsBound());
  output_columns_ = std::move(names);
}

Status ProjectOp::OpenImpl() { return child_->Open(); }

Result<bool> ProjectOp::NextImpl(RowBatch* batch) {
  batch->Clear();
  if (input_ == nullptr) {
    input_ = std::make_unique<RowBatch>(batch->capacity());
  }
  QUERYER_ASSIGN_OR_RETURN(bool has, child_->Next(input_.get()));
  if (!has) return false;
  // Same capacity on both batches: every selected input row fits.
  for (std::size_t i = 0; i < input_->size(); ++i) {
    const RowRef in = input_->RowRefAt(i);
    std::vector<std::string>* out = batch->AppendRow();
    out->resize(exprs_.size());
    for (std::size_t e = 0; e < exprs_.size(); ++e) {
      (*out)[e] = exprs_[e]->EvalValue(in).text;
    }
  }
  return true;
}

void ProjectOp::CloseImpl() { child_->Close(); }

}  // namespace queryer
