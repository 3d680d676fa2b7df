// QueryCursor: the pull-based streaming handle of one query session.
//
// A cursor is what PreparedQuery::Open() / QueryEngine::ExecuteStream()
// return: the session's admission slot, Executor-lowered operator tree and
// per-session ER state stay alive for the cursor's lifetime, and every
// Next(RowBatch*) call drains the physical tree incrementally — a client
// that paginates, stops at a LIMIT, or abandons the query pays only for the
// batches it consumed. QueryEngine::Execute is a thin materialize-from-
// cursor wrapper, so the streaming path is the only drain implementation.
//
//   auto cursor = engine.ExecuteStream(sql);          // Result<CursorPtr>
//   RowBatch batch((*cursor)->batch_size());
//   while (true) {
//     auto has = (*cursor)->Next(&batch);
//     if (!has.ok()) { /* kCancelled / kDeadlineExceeded / error */ }
//     if (!*has) break;                               // End of stream.
//     for (std::size_t i = 0; i < batch.size(); ++i)
//       use(batch.value(i, 0));  // Or batch.TakeValues(i) to own the row.
//   }
//   (*cursor)->Close();                               // Or just destroy it.
//
// Lifetime: a cursor must not outlive its QueryEngine (it points into the
// engine's admission semaphore and catalog). The operator tree arrives
// UN-opened and is opened lazily inside the first Next() — which is where
// a DEDUP plan's whole resolution transaction runs, so open-time failures,
// cancellation and deadline pre-emption all surface through Next's one
// status channel. Close() — or destruction, including mid-stream
// abandonment — closes the operator tree and releases the admission slot
// so another session can be admitted. Per-table ResolutionCoordinator
// claims never outlive the tree's Open (the resolution transaction
// releases or abandons them before Open returns), so an abandoned cursor
// leaves no claim behind either.
//
// Cancellation is cooperative: Cancel() (safe from any thread) raises the
// session flag; the ER comparison loops poll it mid-resolution (on the
// pool's workers too), and the next batch boundary surfaces
// Status::Cancelled. A deadline (EngineOptions::default_query_deadline)
// is checked at the same points and surfaces DeadlineExceeded. The
// terminal epilogue (tree close, slot release, outcome accounting) is
// mutex-guarded and runs exactly once under the cursor's threading
// contract: Next/Fetch/Close come from the single consumer thread, and
// Cancel is the ONLY entry point that is safe from any thread. A Close
// from a second thread while a Next is in flight (say, during the long
// lazy-open resolution) would tear the operator tree down under the
// running Open — cancel from the other thread and let the consumer's
// Next/Close finish the session instead.

#ifndef QUERYER_ENGINE_QUERY_CURSOR_H_
#define QUERYER_ENGINE_QUERY_CURSOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec_stats.h"
#include "exec/operator.h"
#include "exec/table_runtime.h"
#include "obs/operator_profile.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace queryer {

class PreparedQuery;
class QueryEngine;

/// \brief Streaming handle of one admitted query session. Single-consumer:
/// Next/Fetch/Close from one thread at a time; Cancel from any thread.
class QueryCursor {
 public:
  /// Closes the session (see Close) if the client has not already.
  ~QueryCursor();

  QueryCursor(const QueryCursor&) = delete;
  QueryCursor& operator=(const QueryCursor&) = delete;

  /// Output column names ("alias.column"), valid from construction.
  const std::vector<std::string>& columns() const { return columns_; }
  /// The logical plan this session executes.
  const std::string& plan_text() const { return plan_text_; }
  /// The engine's configured RowBatch capacity — the natural size for the
  /// batch handed to Next.
  std::size_t batch_size() const { return batch_size_; }

  /// Pulls the next batch of the answer into `batch` (cleared first).
  /// Returns false at end of stream; a true return with an empty batch is
  /// legal mid-stream (e.g. a fully filtered batch) — keep pulling.
  /// Cancellation and the deadline are checked at this boundary: once
  /// either trips, Next returns kCancelled / kDeadlineExceeded, the
  /// operator tree is closed and the admission slot is released; the error
  /// is sticky. End of stream also releases the session (tree + slot)
  /// immediately — a fully drained cursor blocks nobody, even before
  /// Close — and is equally sticky: a Cancel() arriving after the last
  /// batch does not turn success into an error.
  Result<bool> Next(RowBatch* batch);

  /// Row convenience over Next: up to `n` rows, with the value strings
  /// moved out of the stream. Fewer than `n` rows means end of stream; an
  /// empty vector means the stream was already exhausted. Buffers a
  /// partially consumed batch internally, so do not interleave Fetch with
  /// Next on the same cursor.
  Result<std::vector<std::vector<std::string>>> Fetch(std::size_t n);

  /// Raises the cooperative cancellation flag (idempotent, any thread).
  /// A running resolution's comparison loops observe it; the consumer sees
  /// kCancelled at the next batch boundary.
  void Cancel() { cancel_->store(true, std::memory_order_release); }

  /// Ends the session (idempotent): closes the operator tree and releases
  /// the admission slot. Called by the destructor for abandoned cursors.
  /// After a Close that cut the stream short, Next returns an error; after
  /// a fully drained stream, Next keeps reporting end of stream (Close is
  /// then a no-op — the session was already released at end-of-stream).
  void Close();

  /// Execution statistics so far; complete once the stream ended or the
  /// cursor was closed. total_seconds covers open → end-of-stream/Close.
  const ExecStats& stats() const { return *stats_; }

  /// The session's per-operator profile tree (never null for cursors opened
  /// through the engine). Like stats(), it survives Close() — the operators
  /// die with the tree, the profile stays with the cursor.
  const PlanProfile& profile() const { return *profile_; }

  /// The EXPLAIN ANALYZE rendering: the plan tree annotated with each
  /// operator's cardinality and self time, followed by the ExecStats
  /// summary (ER-stage breakdown). Complete once the stream ended or the
  /// cursor was closed; called earlier it reports the stats so far.
  std::string AnnotatedPlan() const;

 private:
  friend class PreparedQuery;
  friend class QueryEngine;

  /// Built by QueryEngine around an UN-opened operator tree (opened lazily
  /// at the first Next). `runtimes` pins the involved tables' ER state;
  /// `pool` pins the shared worker pool the tree's ER operators use.
  /// `session_id` is the Executor's session tag, stamped into terminal
  /// error messages so failures name the session they came from.
  /// `opened_at` is when the session was admitted, so the deadline and
  /// total_seconds cover the ER prologue and Open-time resolution.
  QueryCursor(Semaphore* admission,
              std::vector<std::shared_ptr<TableRuntime>> runtimes,
              std::shared_ptr<ThreadPool> pool,
              std::shared_ptr<std::atomic<bool>> cancel,
              std::unique_ptr<ExecStats> stats,
              std::unique_ptr<PlanProfile> profile,
              std::shared_ptr<TraceSink> trace, OperatorPtr root,
              std::string plan_text, std::size_t batch_size,
              std::uint64_t session_id, double deadline_seconds,
              std::chrono::steady_clock::time_point opened_at);

  /// The batch-boundary admission check: OK, or the sticky terminal
  /// status after cancellation / deadline expiry.
  Status CheckRunnable();
  /// Lazily opens the operator tree (first Next only). The `cursor.open`
  /// failpoint fires here; operator exceptions become Status::Internal.
  /// On failure the tree is torn down WITHOUT Close (same contract as
  /// DrainOperator: destructors cancel whatever the partial Open
  /// dispatched).
  Status EnsureOpen();
  /// Transitions into a terminal state: closes the tree, releases the
  /// slot, records total_seconds, and makes `status` sticky (prefixed
  /// with the session id when it is an error). Thread-safe and
  /// exactly-once: the lifecycle mutex serializes it against a concurrent
  /// Close, and the released/ folded flags make slot release and outcome
  /// accounting idempotent.
  void Terminate(Status status);
  void TerminateLocked(Status status);
  void ReleaseAdmission();
  /// The once-per-session epilogue, run by the first Terminate: folds the
  /// profile's relational self-times into stats_, emits the per-operator
  /// and emit trace spans, and counts the session outcome in the global
  /// metrics. Terminate runs twice on some paths (end-of-stream Next, then
  /// Close) — the folded_ flag keeps this to exactly once.
  void FinishObservation(const Status& status);

  // Destruction order matters: root_ (declared last) dies first, while
  // stats_, profile_ (operators hold raw OperatorProfile pointers into
  // it), the pinned runtimes and the pool it points into are alive.
  Semaphore* admission_;  // Null once released.
  std::vector<std::shared_ptr<TableRuntime>> runtimes_;
  std::shared_ptr<ThreadPool> pool_;
  std::shared_ptr<std::atomic<bool>> cancel_;
  std::unique_ptr<ExecStats> stats_;
  std::unique_ptr<PlanProfile> profile_;
  std::shared_ptr<TraceSink> trace_;  // Null = tracing off.
  std::vector<std::string> columns_;
  std::string plan_text_;
  std::size_t batch_size_;
  std::uint64_t session_id_ = 0;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::chrono::steady_clock::time_point opened_at_;

  /// Serializes the terminal epilogue (Terminate/Close) so a Close racing
  /// a cancellation-triggered Terminate releases the slot and counts the
  /// outcome exactly once.
  std::mutex lifecycle_mu_;
  Status status_;        // Sticky terminal error (OK while streaming).
  bool tree_opened_ = false;  // Set by EnsureOpen at the first Next.
  bool finished_ = false;  // Stream ended cleanly.
  bool closed_ = false;
  bool folded_ = false;  // FinishObservation already ran.
  // First Next() call, for the session's "emit" trace span.
  bool emit_started_ = false;
  std::chrono::steady_clock::time_point first_next_{};

  // Debug-build enforcement of the single-consumer contract: Next, Fetch
  // and Close each enter through a ConsumerGuard that records the calling
  // thread here and aborts (QUERYER_DCHECK) when a second thread is
  // already inside. Same-thread reentrancy (Fetch -> Next, destructor ->
  // Close) is legal, hence the depth counter; `consumer_depth_` is only
  // touched by the thread that owns `consumer_`.
  class ConsumerGuard;
  std::atomic<std::thread::id> consumer_{};
  int consumer_depth_ = 0;

  // Fetch's carry-over of a partially consumed batch.
  std::unique_ptr<RowBatch> fetch_batch_;
  std::size_t fetch_pos_ = 0;

  OperatorPtr root_;  // Null after Close.
};

/// Cursors are heap-allocated: operators hold pointers into the cursor's
/// session state, so the handle itself must not move.
using CursorPtr = std::unique_ptr<QueryCursor>;

}  // namespace queryer

#endif  // QUERYER_ENGINE_QUERY_CURSOR_H_
