// TableScan: the batch source of the pipeline, with an optional fused
// filter predicate.

#ifndef QUERYER_EXEC_TABLE_SCAN_H_
#define QUERYER_EXEC_TABLE_SCAN_H_

#include <string>

#include "exec/operator.h"
#include "exec/table_predicate.h"
#include "plan/expr.h"
#include "storage/table.h"

namespace queryer {

/// \brief Scan of one base table, optionally evaluating a fused filter
/// predicate. Each emitted row carries its EntityId and a singleton group
/// key (its own id), so an unresolved row is its own duplicate group.
///
/// The scan emits REFERENCE batches: (entity, group_key) pairs viewing into
/// the columnar table, not materialized rows. No string is copied — or even
/// read — by the scan itself; consumers pull values lazily through the
/// table's dictionaries and the final emit boundary materializes survivors
/// exactly once (late materialization).
///
/// The fused predicate (a Filter lowered into its Scan) runs through
/// TablePredicate: single-column predicates are evaluated once per distinct
/// dictionary value into a truth table, so each stored row costs one code
/// load and one byte lookup; multi-column predicates evaluate over
/// string_views straight out of the dictionaries. Either way, rejected
/// tuples cost zero materialization — the selection-vector idea applied at
/// the source. Rows are emitted in table order.
class TableScanOp final : public PhysicalOperator {
 public:
  TableScanOp(TablePtr table, std::string alias);

  /// Fuses a filter into the scan. `predicate` must be bound against this
  /// scan's output_columns(). Call before Open().
  void FusePredicate(ExprPtr predicate) { predicate_ = std::move(predicate); }

  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* batch) override;
  void CloseImpl() override {}

 private:
  TablePtr table_;
  Lineage lineage_;
  ExprPtr predicate_;
  // Compiled form of predicate_ against table_ (built at Open).
  TablePredicate table_predicate_;
  EntityId position_ = 0;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_TABLE_SCAN_H_
