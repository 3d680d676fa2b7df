#include "exec/table_scan.h"

namespace queryer {

TableScanOp::TableScanOp(TablePtr table, std::string alias)
    : table_(std::move(table)) {
  output_columns_.reserve(table_->num_attributes());
  for (const std::string& name : table_->schema().names()) {
    output_columns_.push_back(alias + "." + name);
  }
}

Status TableScanOp::OpenImpl() {
  position_ = 0;
  table_predicate_ = predicate_ != nullptr
                         ? TablePredicate(predicate_.get(), table_.get())
                         : TablePredicate();
  return Status::OK();
}

Result<bool> TableScanOp::NextImpl(RowBatch* batch) {
  batch->Clear();
  const std::size_t n = table_->num_rows();
  batch->BeginReference(table_.get());
  while (position_ < n && !batch->full()) {
    if (table_predicate_.Matches(position_)) {
      batch->AppendReference(position_, position_);
    }
    ++position_;
  }
  return position_ < n || !batch->empty();
}

}  // namespace queryer
