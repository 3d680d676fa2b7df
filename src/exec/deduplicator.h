// The Deduplicate pipeline (paper Sec. 6.1) as a reusable component:
// Query Blocking -> Block-Join -> Meta-Blocking -> Comparison-Execution,
// consulting and amending the table's Link Index.
//
// Both the Deduplicate operator and the Deduplicate-Join operator (which
// runs the pipeline on its dirty input, Alg. 1 line 5) use this class.
//
// Every resolution is one transaction against the table's
// ResolutionCoordinator, whether or not other sessions run beside it.
// Unresolved entities are claimed (entities a concurrent session is already
// resolving are awaited, not re-resolved), the surviving comparisons are
// claimed in the comparison-dedup table, evaluated read-only against a
// shared Link Index snapshot, and the staged links are published in one
// short exclusive section before the claims are released. See
// resolution_coordinator.h for the protocol and its deadlock-freedom
// argument.

#ifndef QUERYER_EXEC_DEDUPLICATOR_H_
#define QUERYER_EXEC_DEDUPLICATOR_H_

#include <vector>

#include "common/cancel_context.h"
#include "common/status.h"
#include "exec/exec_stats.h"
#include "exec/table_runtime.h"
#include "obs/trace.h"

namespace queryer {

/// \brief Runs the ER pipeline over query selections of one table.
class Deduplicator {
 public:
  /// `pool` parallelizes the comparison-execution stage (null = sequential;
  /// the operators pass the engine's pool through). `trace` (may be null)
  /// receives one span per ER stage; the Deduplicator is used synchronously
  /// from one operator call, so a raw pointer suffices (no straggler tasks
  /// hold it). `cancel` (may be null) is the session's cancellation
  /// context, polled inside comparison execution and between claim-loop
  /// iterations so Cancel() / deadlines pre-empt a long resolution.
  Deduplicator(TableRuntime* runtime, ExecStats* stats,
               ThreadPool* pool = nullptr, TraceSink* trace = nullptr,
               const CancelContext* cancel = nullptr)
      : runtime_(runtime),
        stats_(stats),
        pool_(pool),
        trace_(trace),
        cancel_(cancel) {}

  /// \brief Resolves `query_entities` against the whole table.
  ///
  /// Entities already resolved by earlier queries are served from the Link
  /// Index; the rest go through the full pipeline, after which they are
  /// marked resolved. Returns DR_E's entity set: the query entities plus
  /// all their discovered duplicates, ascending and distinct.
  ///
  /// When `group_keys` is non-null it receives the cluster representative
  /// of every returned entity, captured under the same Link Index snapshot
  /// that determined the membership — an operator must never mix the
  /// returned entity set with representatives read later, or a concurrent
  /// publish between the two reads shears the answer.
  ///
  /// Failure (Cancelled / DeadlineExceeded from the cancel context, or an
  /// injected/internal error) leaves the runtime consistent: every entity
  /// and comparison claim this call took is released or abandoned before
  /// the error returns, and the entities stay unmarked-resolved. The
  /// evaluation is staged, so a failed transaction publishes nothing: the
  /// Link Index's links and epoch are as they were before the call.
  Result<std::vector<EntityId>> Resolve(
      const std::vector<EntityId>& query_entities,
      std::vector<EntityId>* group_keys = nullptr);

 private:
  /// Resolve's body: the claim loop and DR_E's assembly.
  Result<std::vector<EntityId>> ResolveTransaction(
      const std::vector<EntityId>& query_entities,
      std::vector<EntityId>* group_keys);
  /// Runs the pipeline over this session's claimed entities and publishes
  /// the outcome (the body of one resolution transaction). On failure —
  /// error Status or exception — the entity claims are released WITHOUT
  /// resolved marks, so a waiter adopts and re-resolves them.
  Status ResolveClaimed(const std::vector<EntityId>& claimed);
  /// Staged evaluation + publish + release of comparison pairs this
  /// session owns; abandons them (for waiter adoption) on failure.
  Status EvaluateAndPublishOwned(const std::vector<Comparison>& owned);

  /// Query Blocking -> Block-Join -> Meta-Blocking over `unresolved`,
  /// recording the per-stage timings. Read-only on the runtime.
  std::vector<Comparison> BuildComparisons(
      const std::vector<EntityId>& unresolved);

  TableRuntime* runtime_;
  ExecStats* stats_;
  ThreadPool* pool_;
  TraceSink* trace_;
  const CancelContext* cancel_;
};

}  // namespace queryer

#endif  // QUERYER_EXEC_DEDUPLICATOR_H_
