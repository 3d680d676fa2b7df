// The Deduplicate operator (paper Sec. 6.1): consumes a selection QE_E of
// one base table and produces DR_E — the selection plus all its duplicates
// in the table — by running Query Blocking, Block-Join, Meta-Blocking and
// Comparison-Execution, consulting the Link Index throughout.

#ifndef QUERYER_EXEC_DEDUPLICATE_OP_H_
#define QUERYER_EXEC_DEDUPLICATE_OP_H_

#include "exec/deduplicator.h"
#include "exec/operator.h"

namespace queryer {

/// \brief Physical Deduplicate operator.
///
/// The child must stream rows of `runtime`'s base table (TableScan or
/// Filter over it), with all base columns intact — duplicates that did not
/// pass the child's filter are emitted from the base table directly, which
/// is exactly the semantics that extends the query's answer. Output rows
/// carry their cluster representative as group key.
class DeduplicateOp final : public PhysicalOperator {
 public:
  /// `pool` parallelizes comparison execution (null = sequential);
  /// `batch_size` sizes the batches draining the child; `trace` (may be
  /// null) receives the ER-stage spans; `cancel` (may be null) lets the
  /// session's Cancel() / deadline pre-empt the Open-time resolution.
  DeduplicateOp(OperatorPtr child, std::shared_ptr<TableRuntime> runtime,
                ExecStats* stats, ThreadPool* pool = nullptr,
                std::size_t batch_size = kDefaultBatchSize,
                std::shared_ptr<TraceSink> trace = nullptr,
                std::shared_ptr<const CancelContext> cancel = nullptr);

  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* batch) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::shared_ptr<TableRuntime> runtime_;
  Lineage lineage_;
  ExecStats* stats_;
  ThreadPool* pool_;
  std::size_t batch_size_;
  std::shared_ptr<TraceSink> trace_;
  std::shared_ptr<const CancelContext> cancel_;

  // DR_E materialized at Open time: entity ids plus their cluster keys,
  // captured under one Link Index snapshot so concurrent publishes between
  // Open and the Next calls cannot shear a query's group keys.
  std::vector<EntityId> result_entities_;
  std::vector<EntityId> group_keys_;
  std::size_t position_ = 0;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_DEDUPLICATE_OP_H_
