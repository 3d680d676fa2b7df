// Executor: lowers a logical plan to physical operators.
//
// Lowering is where the plan meets the engine's execution machinery: every
// expression is cloned and bound against its child's output columns, a
// Filter directly above a TableScan is fused into the scan, and the
// engine's batch size, per-query ExecStats, trace sink and cancel context
// are plumbed into the operators that use them. The thread pool goes to
// the ER operators only, for their comparison execution; the relational
// operators run sequentially on the consumer thread. One Executor = one
// query session; see docs/ARCHITECTURE.md for the full pipeline
// walkthrough.

#ifndef QUERYER_EXEC_EXECUTOR_H_
#define QUERYER_EXEC_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancel_context.h"
#include "exec/exec_stats.h"
#include "exec/operator.h"
#include "exec/table_runtime.h"
#include "obs/operator_profile.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "plan/logical_plan.h"
#include "storage/catalog.h"

namespace queryer {

/// \brief Plan lowering against a catalog and the per-table ER runtimes.
/// Stateless across queries apart from what the runtimes carry (notably
/// the Link Index), so one executor per query is cheap and many executors
/// may run side by side over the same registry.
class Executor {
 public:
  /// `pool` is handed to the ER operators for their comparison execution
  /// (null = sequential execution, the default for direct construction).
  /// `profile` (may be null) receives one OperatorProfile node per lowered
  /// operator, mirroring the plan tree — the substrate of EXPLAIN ANALYZE.
  /// `trace` (may be null) is this session's trace sink, plumbed into the
  /// operators that emit spans.
  /// `cancel` (may be null) is the session's CancelContext — cancel flag +
  /// deadline — handed to the ER operators, whose comparison loops poll it
  /// so Cancel() / deadlines pre-empt resolution.
  Executor(const Catalog* catalog, RuntimeRegistry* runtimes, ExecStats* stats,
           ThreadPool* pool = nullptr, PlanProfile* profile = nullptr,
           std::shared_ptr<TraceSink> trace = nullptr,
           std::shared_ptr<const CancelContext> cancel = nullptr);

  /// Builds the physical operator tree (binding all expressions). The tree
  /// may outlive the Executor — operators capture the catalog tables, the
  /// runtimes, `stats`, the pool and the session id, not the Executor
  /// itself — which is how QueryCursor keeps an open tree streaming after
  /// the lowering Executor is gone. Callers drive the tree themselves
  /// (Open / Next* / Close); the cursor drain is the engine's ONLY drain
  /// implementation (DrainReferences serves operators buffering their own
  /// children).
  Result<OperatorPtr> Lower(const LogicalPlan& plan);

  /// A process-unique id for this executor's session; the engine stamps it
  /// into the cursor so failure messages name the session they came from.
  std::uint64_t session_id() const { return session_id_; }

 private:
  /// Recursive lowering; `parent` is the profile node of the operator
  /// being built above this subtree (null at the root or when profiling
  /// is off).
  Result<OperatorPtr> LowerNode(const LogicalPlan& plan,
                                OperatorProfile* parent);
  Result<OperatorPtr> LowerScan(const LogicalPlan& plan,
                                OperatorProfile* parent);
  /// Creates `plan`'s profile node under `parent`; null when profiling is
  /// off.
  OperatorProfile* MakeNode(const LogicalPlan& plan, OperatorProfile* parent);

  const Catalog* catalog_;
  RuntimeRegistry* runtimes_;
  ExecStats* stats_;
  ThreadPool* pool_;
  PlanProfile* profile_;
  std::shared_ptr<TraceSink> trace_;
  std::shared_ptr<const CancelContext> cancel_;
  std::uint64_t session_id_;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_EXECUTOR_H_
