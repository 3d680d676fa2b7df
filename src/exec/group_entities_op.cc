#include "exec/group_entities_op.h"

#include <algorithm>
#include <unordered_map>

#include "common/stopwatch.h"

namespace queryer {

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
  ReferenceRows input;
  QUERYER_RETURN_NOT_OK(DrainReferences(child_.get(), batch_size_, &input));
  Stopwatch watch;
  TraceSpan span(trace_.get(), "group", "er");

  // Number the groups in first-seen order, then list each group's rows in
  // input order.
  std::unordered_map<std::uint64_t, std::uint32_t> group_index;
  std::vector<std::uint32_t> group_of(input.size());
  for (std::size_t r = 0; r < input.size(); ++r) {
    group_of[r] = group_index
                      .try_emplace(input.group_keys[r],
                                   static_cast<std::uint32_t>(group_index.size()))
                      .first->second;
  }
  const Buckets members(group_of, group_index.size());

  // Fuse each group's distinct non-empty variants per column, in first-seen
  // order. Within one column equal dictionary codes are equal strings, so
  // duplicates are dropped by code.
  const std::size_t width = output_columns_.size();
  output_.assign(group_index.size(), std::vector<std::string>(width));
  std::vector<DictCode> seen;
  for (std::size_t c = 0; c < input.lineage.num_columns(); ++c) {
    const ColumnSource& source = input.lineage.source(c);
    const Table& table = input.lineage.table(source.table);
    const Dictionary& dictionary = table.dictionary(source.attribute);
    for (std::size_t g = 0; g < output_.size(); ++g) {
      std::string& fused = output_[g][c];
      seen.clear();
      for (std::uint32_t i = members.start[g]; i < members.start[g + 1]; ++i) {
        const DictCode code = table.CodeAt(
            input.row(members.items[i])[source.table], source.attribute);
        const std::string_view value = dictionary.value(code);
        if (value.empty()) continue;  // Nulls map to the empty variant.
        if (std::find(seen.begin(), seen.end(), code) != seen.end()) continue;
        if (!seen.empty()) fused += kVariantSeparator;
        fused += value;
        seen.push_back(code);
      }
    }
  }

  stats_->group_seconds += watch.ElapsedSeconds();
  span.set_args("\"rows_in\":" + std::to_string(input.size()) +
                ",\"groups\":" + std::to_string(output_.size()));
  position_ = 0;
  return Status::OK();
}

Result<bool> GroupEntitiesOp::NextImpl(RowBatch* batch) {
  batch->Clear();
  while (position_ < output_.size() && !batch->full()) {
    *batch->AppendRow() = std::move(output_[position_++]);
  }
  return !batch->empty();
}

void GroupEntitiesOp::CloseImpl() { output_.clear(); }

}  // namespace queryer
