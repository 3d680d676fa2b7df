#include "exec/hash_join.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace queryer {

std::string CanonicalJoinKey(std::string_view value) {
  std::optional<double> number = ParseNumber(value);
  if (number.has_value()) {
    // Canonical numeric form so "7", "7.0" and " 7" join.
    if (FitsLongLong(*number) &&
        *number == static_cast<double>(static_cast<long long>(*number))) {
      return "#" + std::to_string(static_cast<long long>(*number));
    }
    return "#" + std::to_string(*number);
  }
  return ToLower(value);
}

std::uint32_t JoinKeyIds::Of(const Lineage& lineage, const EntityId* ids,
                            std::size_t column) {
  const ColumnSource& source = lineage.source(column);
  const Table& table = lineage.table(source.table);
  const Dictionary& dictionary = table.dictionary(source.attribute);
  auto cache = std::find_if(by_code_.begin(), by_code_.end(), [&](auto& c) {
    return c.first == &dictionary;
  });
  if (cache == by_code_.end()) {
    by_code_.emplace_back(&dictionary, std::vector<std::uint32_t>(
                                           dictionary.size(), kUnseen));
    cache = by_code_.end() - 1;
  }
  const DictCode code = table.CodeAt(ids[source.table], source.attribute);
  std::uint32_t& id = cache->second[code];
  if (id == kUnseen) {
    std::string key = CanonicalJoinKey(dictionary.value(code));
    id = key.empty()
             ? kNull
             : ids_.try_emplace(std::move(key),
                                static_cast<std::uint32_t>(ids_.size()))
                   .first->second;
  }
  return id;
}

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr left_key,
                       ExprPtr right_key, std::size_t batch_size)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      batch_size_(batch_size == 0 ? 1 : batch_size) {
  QUERYER_CHECK(left_key_->kind() == ExprKind::kColumn &&
                left_key_->IsBound());
  QUERYER_CHECK(right_key_->kind() == ExprKind::kColumn &&
                right_key_->IsBound());
  output_columns_ = left_->output_columns();
  for (const std::string& column : right_->output_columns()) {
    output_columns_.push_back(column);
  }
}

Status HashJoinOp::OpenImpl() {
  QUERYER_RETURN_NOT_OK(left_->Open());
  keys_ = JoinKeyIds();
  build_ = ReferenceRows();
  QUERYER_RETURN_NOT_OK(DrainReferences(right_.get(), batch_size_, &build_));
  // Bucket the build rows by key id, each bucket in build-side order. NULL
  // keys never join.
  std::vector<std::uint32_t> row_keys(build_.size());
  for (std::size_t r = 0; r < build_.size(); ++r) {
    row_keys[r] = keys_.Of(build_.lineage, build_.row(r),
                           right_key_->bound_index());
  }
  build_by_key_ = Buckets(row_keys, keys_.size());
  output_lineage_ = Lineage();
  if (probe_ != nullptr) probe_->Clear();
  probe_pos_ = 0;
  match_pos_ = match_end_ = 0;
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
    if (match_pos_ < match_end_) {
      if (batch->empty()) batch->BeginReference(output_lineage_);
      const EntityId* left = probe_->entity_ids(probe_pos_);
      const EntityId* right =
          build_.row(build_by_key_.items[match_pos_++]);
      // A plain join output is its own group; dedup plans use DedupJoinOp
      // which assigns real group keys.
      EntityId* out = batch->AppendReferenceRow(output_counter_++);
      out = std::copy(left, left + probe_->lineage().num_tables(), out);
      std::copy(right, right + build_.lineage.num_tables(), out);
      if (match_pos_ == match_end_) ++probe_pos_;
      continue;
    }
    if (probe_pos_ >= probe_->size()) {
      QUERYER_ASSIGN_OR_RETURN(bool has, left_->Next(probe_.get()));
      if (!has) {
        done_ = true;
        break;
      }
      if (!probe_->empty()) {
        if (!probe_->reference_mode()) {
          return Status::ExecutionError(
              "join input must be entity references, not projected rows");
        }
        if (output_lineage_.num_tables() == 0) {
          output_lineage_ = Lineage::Concat(probe_->lineage(), build_.lineage);
        }
      }
      probe_pos_ = 0;
      continue;  // The new batch may itself be empty.
    }
    const std::uint32_t key =
        keys_.Of(probe_->lineage(), probe_->entity_ids(probe_pos_),
                 left_key_->bound_index());
    if (key >= build_by_key_.start.size() - 1) {  // NULL, or not built.
      ++probe_pos_;
      continue;
    }
    match_pos_ = build_by_key_.start[key];
    match_end_ = build_by_key_.start[key + 1];
  }
  return !batch->empty() || !done_;
}

void HashJoinOp::CloseImpl() {
  left_->Close();
  // Right child already closed by DrainReferences in Open().
  build_ = ReferenceRows();
  build_by_key_ = Buckets();
}

}  // namespace queryer
