#include "storage/table.h"

namespace queryer {

void TableBuilder::Reserve(std::size_t rows) {
  for (auto& column : table_->columns_) column.owned_codes.reserve(rows);
}

Status TableBuilder::AddRow(const std::vector<std::string>& values) {
  Table& t = *table_;
  if (values.size() != t.schema_.num_attributes()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(values.size()) +
        " does not match schema arity " +
        std::to_string(t.schema_.num_attributes()) + " of table " + t.name_);
  }
  for (std::size_t a = 0; a < values.size(); ++a) {
    Table::Column& c = t.columns_[a];
    c.owned_codes.push_back(c.dictionary.GetOrAdd(values[a]));
    // Re-point after every push: readers only see the table post-Build, but
    // keeping the pointer current costs nothing and avoids a stale window.
    c.codes = c.owned_codes.data();
  }
  ++t.num_rows_;
  return Status::OK();
}

}  // namespace queryer
