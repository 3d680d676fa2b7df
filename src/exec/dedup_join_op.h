// The Deduplicate-Join operator (paper Sec. 6.2, Algorithms 1 and 2).
//
// One input arrives resolved (a DR_E stream with duplicate-group keys), the
// other may still be dirty (rows of a base table). For the Dirty-Right /
// Dirty-Left variants the operator first discards dirty rows that do not
// join with any variant of the resolved side (Alg. 1 line 4), resolves the
// survivors with the Deduplicate pipeline (line 5), and then runs the
// Deduplicate-Join operation (Alg. 2): two duplicate groups join if any of
// their member pairs join, and the output is the Cartesian product of the
// joined groups' members — so every value variant reaches Group-Entities.

#ifndef QUERYER_EXEC_DEDUP_JOIN_OP_H_
#define QUERYER_EXEC_DEDUP_JOIN_OP_H_

#include <memory>

#include "exec/deduplicator.h"
#include "exec/operator.h"
#include "plan/expr.h"
#include "plan/logical_plan.h"

namespace queryer {

/// \brief Physical Deduplicate-Join.
///
/// `dirty_side` selects the variant; the dirty child's rows must come from
/// `dirty_runtime`'s base table with all columns intact (same contract as
/// DeduplicateOp). With DirtySide::kNone both inputs are already resolved
/// and only Alg. 2 runs. Key expressions are column references bound to
/// the respective child's columns. Both inputs are buffered as entity
/// references and joined on interned key ids. Output: left columns ++ right
/// columns, as join rows referencing one entity per input table; group keys
/// identify (left group, right group) pairs, in ascending order of the two
/// groups' keys.
class DedupJoinOp final : public PhysicalOperator {
 public:
  /// `pool` parallelizes the dirty side's comparison execution (null =
  /// sequential); `batch_size` sizes the batches draining both children;
  /// `trace` (may be null) receives the dirty side's ER-stage spans.
  DedupJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr left_key,
              ExprPtr right_key, DirtySide dirty_side,
              std::shared_ptr<TableRuntime> dirty_runtime, ExecStats* stats,
              ThreadPool* pool = nullptr,
              std::size_t batch_size = kDefaultBatchSize,
              std::shared_ptr<TraceSink> trace = nullptr,
              std::shared_ptr<const CancelContext> cancel = nullptr);

  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* batch) override;
  void CloseImpl() override;

 private:
  Status BuildOutput();

  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr left_key_;
  ExprPtr right_key_;
  DirtySide dirty_side_;
  std::shared_ptr<TableRuntime> dirty_runtime_;
  ExecStats* stats_;
  ThreadPool* pool_;
  std::size_t batch_size_;
  std::shared_ptr<TraceSink> trace_;
  std::shared_ptr<const CancelContext> cancel_;

  ReferenceRows output_;
  std::size_t position_ = 0;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_DEDUP_JOIN_OP_H_
