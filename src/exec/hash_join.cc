#include "exec/hash_join.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace queryer {

std::string CanonicalJoinKey(std::string_view value) {
  std::optional<double> number = ParseNumber(value);
  if (number.has_value()) {
    // Canonical numeric form so "7", "7.0" and " 7" join.
    if (*number == static_cast<double>(static_cast<long long>(*number))) {
      return "#" + std::to_string(static_cast<long long>(*number));
    }
    return "#" + std::to_string(*number);
  }
  return ToLower(value);
}

std::string JoinKeyOf(const Expr& key_expr, const RowRef& row) {
  return CanonicalJoinKey(key_expr.EvalValue(row).text);
}

namespace {

// Concatenates left ++ right into `out`, with the left side read out of a
// batch (owned or reference mode): a reference-mode probe row materializes
// here, only on a match — the join's late-materialization point. Element-
// wise, so the out row's string buffers are reused across batches.
void ConcatInto(const RowBatch& left_batch, std::size_t i, const Row& right,
                Row* out) {
  const std::size_t ln = left_batch.width(i);
  const std::size_t rn = right.values.size();
  out->values.resize(ln + rn);
  for (std::size_t c = 0; c < ln; ++c) {
    const std::string_view v = left_batch.value(i, c);
    out->values[c].assign(v.data(), v.size());
  }
  for (std::size_t c = 0; c < rn; ++c) out->values[ln + c] = right.values[c];
}

}  // namespace

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr left_key,
                       ExprPtr right_key, std::size_t batch_size)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      batch_size_(batch_size == 0 ? 1 : batch_size) {
  QUERYER_CHECK(left_key_->IsBound());
  QUERYER_CHECK(right_key_->IsBound());
  output_columns_ = left_->output_columns();
  for (const std::string& column : right_->output_columns()) {
    output_columns_.push_back(column);
  }
}

Status HashJoinOp::OpenImpl() {
  QUERYER_RETURN_NOT_OK(left_->Open());
  QUERYER_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           DrainOperator(right_.get(), batch_size_));
  build_side_.clear();
  // Sizing the table for one row per bucket up front avoids the rehash
  // cascade the per-tuple inserts used to pay.
  build_side_.reserve(rows.size());
  for (Row& row : rows) {
    std::string key = JoinKeyOf(*right_key_, row.values);
    if (key.empty()) continue;  // NULL keys never join.
    build_side_[std::move(key)].push_back(std::move(row));
  }
  probe_live_ = false;
  probe_pos_ = 0;
  current_matches_ = nullptr;
  match_index_ = 0;
  done_ = false;
  output_counter_ = 0;
  return Status::OK();
}

Result<bool> HashJoinOp::NextImpl(RowBatch* batch) {
  batch->Clear();
  if (done_) return false;
  if (probe_ == nullptr) {
    probe_ = std::make_unique<RowBatch>(batch->capacity());
  }
  while (!batch->full()) {
    if (current_matches_ != nullptr) {
      if (match_index_ < current_matches_->size()) {
        const Row& right = (*current_matches_)[match_index_++];
        Row* out = batch->AppendRow();
        ConcatInto(*probe_, probe_pos_, right, out);
        // A plain join output is its own group; dedup plans use DedupJoinOp
        // which assigns real group keys.
        out->group_key = output_counter_++;
        out->entity_id = kInvalidEntityId;
        continue;
      }
      current_matches_ = nullptr;
      ++probe_pos_;
    }
    if (!probe_live_ || probe_pos_ >= probe_->size()) {
      QUERYER_ASSIGN_OR_RETURN(bool has, left_->Next(probe_.get()));
      if (!has) {
        done_ = true;
        break;
      }
      probe_live_ = true;
      probe_pos_ = 0;
      continue;  // The new batch may itself be empty.
    }
    std::string key = JoinKeyOf(*left_key_, probe_->RowRefAt(probe_pos_));
    auto it = key.empty() ? build_side_.end() : build_side_.find(key);
    if (it == build_side_.end()) {
      ++probe_pos_;
      continue;
    }
    current_matches_ = &it->second;
    match_index_ = 0;
  }
  return !batch->empty() || !done_;
}

void HashJoinOp::CloseImpl() {
  left_->Close();
  // Right child already closed by DrainOperator in Open().
  build_side_.clear();
  current_matches_ = nullptr;
}

}  // namespace queryer
