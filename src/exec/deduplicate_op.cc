#include "exec/deduplicate_op.h"

#include "common/logging.h"

namespace queryer {

DeduplicateOp::DeduplicateOp(OperatorPtr child,
                             std::shared_ptr<TableRuntime> runtime,
                             ExecStats* stats, ThreadPool* pool,
                             std::size_t batch_size,
                             std::shared_ptr<TraceSink> trace,
                             std::shared_ptr<const CancelContext> cancel)
    : child_(std::move(child)),
      runtime_(std::move(runtime)),
      lineage_({&runtime_->table()}),
      stats_(stats),
      pool_(pool),
      batch_size_(batch_size),
      trace_(std::move(trace)),
      cancel_(std::move(cancel)) {
  // DR_E rows come from the base table, so the child must expose all of its
  // columns (same arity).
  QUERYER_CHECK(child_->output_columns().size() ==
                runtime_->table().num_attributes());
  output_columns_ = child_->output_columns();
}

Status DeduplicateOp::OpenImpl() {
  // Drain the child for entity ids only — the child is a scan (or fused
  // filter+scan) emitting reference batches, so no row is materialized to
  // determine DR_E membership.
  QUERYER_RETURN_NOT_OK(child_->Open());
  std::vector<EntityId> query_entities;
  {
    RowBatch batch(batch_size_ == 0 ? 1 : batch_size_);
    while (true) {
      QUERYER_ASSIGN_OR_RETURN(bool has, child_->Next(&batch));
      if (!has) break;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const EntityId e = batch.entity_id(i);
        if (e == kInvalidEntityId) {
          return Status::ExecutionError(
              "Deduplicate input rows must come from a base table");
        }
        query_entities.push_back(e);
      }
    }
  }
  child_->Close();
  // Resolve fills the group keys under the same Link Index snapshot that
  // determined the membership: a concurrent session publishing links while
  // this operator streams must not change the groups mid-answer.
  Deduplicator deduplicator(runtime_.get(), stats_, pool_, trace_.get(),
                            cancel_.get());
  QUERYER_ASSIGN_OR_RETURN(result_entities_,
                           deduplicator.Resolve(query_entities, &group_keys_));
  position_ = 0;
  return Status::OK();
}

Result<bool> DeduplicateOp::NextImpl(RowBatch* batch) {
  batch->Clear();
  // Emit references into the base table: resolved representatives flow
  // downstream (to GroupEntities or the emit boundary) without copying a
  // single string here.
  batch->BeginReference(lineage_);
  while (position_ < result_entities_.size() && !batch->full()) {
    batch->AppendReference(result_entities_[position_],
                           group_keys_[position_]);
    ++position_;
  }
  return !batch->empty();
}

void DeduplicateOp::CloseImpl() {
  result_entities_.clear();
  group_keys_.clear();
}

}  // namespace queryer
