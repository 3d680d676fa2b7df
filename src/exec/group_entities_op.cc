#include "exec/group_entities_op.h"

#include <unordered_map>

#include "common/stopwatch.h"

namespace queryer {

namespace {

/// One duplicate group under construction: per attribute, the distinct
/// non-empty variants in first-seen order.
struct Group {
  std::vector<std::vector<std::string>> variants;
};

/// The groups (and each group's variants) in first-seen order.
struct GroupTable {
  std::vector<std::uint64_t> order;
  std::unordered_map<std::uint64_t, Group> groups;
};

/// Folds one row into the table, preserving first-seen order of groups and
/// variants.
void AccumulateRow(const Row& row, std::size_t width, GroupTable* table) {
  auto [it, inserted] = table->groups.try_emplace(row.group_key);
  if (inserted) {
    it->second.variants.resize(width);
    table->order.push_back(row.group_key);
  }
  Group& group = it->second;
  for (std::size_t a = 0; a < width && a < row.values.size(); ++a) {
    const std::string& value = row.values[a];
    if (value.empty()) continue;  // Nulls map to the empty variant.
    auto& seen = group.variants[a];
    bool duplicate = false;
    for (const std::string& existing : seen) {
      if (existing == value) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) seen.push_back(value);
  }
}

}  // namespace

GroupEntitiesOp::GroupEntitiesOp(OperatorPtr child, ExecStats* stats,
                                 std::size_t batch_size,
                                 std::shared_ptr<TraceSink> trace)
    : child_(std::move(child)),
      stats_(stats),
      batch_size_(batch_size),
      trace_(std::move(trace)) {
  output_columns_ = child_->output_columns();
}

Status GroupEntitiesOp::OpenImpl() {
  QUERYER_ASSIGN_OR_RETURN(std::vector<Row> input,
                           DrainOperator(child_.get(), batch_size_));
  Stopwatch watch;
  TraceSpan span(trace_.get(), "group", "er");

  const std::size_t width = output_columns_.size();
  GroupTable table;
  for (const Row& row : input) AccumulateRow(row, width, &table);

  output_.clear();
  output_.reserve(table.order.size());
  for (std::uint64_t key : table.order) {
    const Group& group = table.groups[key];
    Row row;
    row.group_key = key;
    row.values.reserve(width);
    for (const auto& variants : group.variants) {
      std::string fused;
      for (std::size_t i = 0; i < variants.size(); ++i) {
        if (i > 0) fused += kVariantSeparator;
        fused += variants[i];
      }
      row.values.push_back(std::move(fused));
    }
    output_.push_back(std::move(row));
  }

  stats_->group_seconds += watch.ElapsedSeconds();
  span.set_args("\"rows_in\":" + std::to_string(input.size()) +
                ",\"groups\":" + std::to_string(output_.size()));
  position_ = 0;
  return Status::OK();
}

Result<bool> GroupEntitiesOp::NextImpl(RowBatch* batch) {
  return EmitMaterialized(&output_, &position_, batch);
}

void GroupEntitiesOp::CloseImpl() { output_.clear(); }

}  // namespace queryer
