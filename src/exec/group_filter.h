// GroupFilter: duplicate-aware selection used when a Filter sits above a
// Deduplicate operator (the Naive ER plan of paper Fig. 5). A plain filter
// would drop recovered duplicates whose own attribute variant does not
// satisfy the predicate (e.g. P2's full venue name under venue='EDBT');
// group semantics keep every member of a duplicate group as long as at
// least one member passes — mirroring how the Batch Approach evaluates
// predicates over grouped hyper-entities.

#ifndef QUERYER_EXEC_GROUP_FILTER_H_
#define QUERYER_EXEC_GROUP_FILTER_H_

#include <vector>

#include "exec/operator.h"
#include "plan/expr.h"

namespace queryer {

/// \brief Blocking duplicate-group filter: buffers its input as entity
/// references.
class GroupFilterOp final : public PhysicalOperator {
 public:
  GroupFilterOp(OperatorPtr child, ExprPtr predicate);

  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* batch) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  ReferenceRows output_;
  std::size_t position_ = 0;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_GROUP_FILTER_H_
