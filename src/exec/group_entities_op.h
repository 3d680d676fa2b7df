// The Group-Entities operator (paper Sec. 6.3): groups the rows of a DR
// stream into one record per duplicate group, concatenating the distinct
// attribute variants with " | " (the paper's hyper-entity presentation;
// nulls map to the empty value and are skipped).

#ifndef QUERYER_EXEC_GROUP_ENTITIES_OP_H_
#define QUERYER_EXEC_GROUP_ENTITIES_OP_H_

#include "exec/exec_stats.h"
#include "exec/operator.h"
#include "obs/trace.h"

namespace queryer {

/// \brief Physical Group-Entities operator. Buffers the child's entity
/// references, groups them by group key (first-appearance order) and emits
/// one owned, fused row per group; the fused strings are the only values it
/// builds. `batch_size` sizes the batches draining the child.
class GroupEntitiesOp final : public PhysicalOperator {
 public:
  /// `stats` receives the group timing; `trace` (may be null) receives the
  /// "group" span.
  GroupEntitiesOp(OperatorPtr child, ExecStats* stats,
                  std::size_t batch_size = kDefaultBatchSize,
                  std::shared_ptr<TraceSink> trace = nullptr);

  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* batch) override;
  void CloseImpl() override;

  /// Separator between grouped value variants.
  static constexpr const char* kVariantSeparator = " | ";

 private:
  OperatorPtr child_;
  ExecStats* stats_;
  std::size_t batch_size_;
  std::shared_ptr<TraceSink> trace_;
  std::vector<std::vector<std::string>> output_;  // One fused row per group.
  std::size_t position_ = 0;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_GROUP_ENTITIES_OP_H_
