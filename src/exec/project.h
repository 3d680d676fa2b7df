// Project: evaluates the SELECT list over child batches. Unlike Filter, a
// projection changes row shape, so it cannot just shrink the child's
// selection vector: it pulls the child into an input batch it owns and
// writes the item expressions' values into the caller's batch as owned
// rows (both batches' storage is recycled across calls).

#ifndef QUERYER_EXEC_PROJECT_H_
#define QUERYER_EXEC_PROJECT_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "plan/expr.h"

namespace queryer {

/// \brief Projection. Item expressions must be bound against the child.
/// Output column names come from aliases, or the expressions otherwise.
/// Project is one of the two operators that build values: it emits owned
/// rows, evaluating each item over the child's row (a reference row's
/// values are read straight from the tables' dictionaries).
class ProjectOp final : public PhysicalOperator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names);

  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* batch) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  std::unique_ptr<RowBatch> input_;  // Sized lazily from the output batch.
};

}  // namespace queryer

#endif  // QUERYER_EXEC_PROJECT_H_
