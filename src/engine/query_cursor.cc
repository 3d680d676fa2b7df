#include "engine/query_cursor.h"

#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace queryer {

// RAII check of the single-consumer contract at each consumer entry point.
// The CAS claims the cursor for the calling thread; a thread that finds it
// claimed by another is a contract violation — two threads concurrently
// inside Next/Fetch/Close — and aborts in debug builds. Finding it claimed
// by ITSELF is legal reentrancy (Fetch drives Next, the destructor drives
// Close), tracked by the depth counter.
class QueryCursor::ConsumerGuard {
 public:
  explicit ConsumerGuard(QueryCursor* cursor) : cursor_(cursor) {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (!cursor_->consumer_.compare_exchange_strong(
            expected, self, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      QUERYER_DCHECK(expected == self &&
                     "QueryCursor is single-consumer: Next/Fetch/Close must "
                     "not race from two threads (Cancel is the only "
                     "any-thread entry point)");
    }
    ++cursor_->consumer_depth_;
  }

  ~ConsumerGuard() {
    if (--cursor_->consumer_depth_ == 0) {
      cursor_->consumer_.store(std::thread::id{}, std::memory_order_release);
    }
  }

  ConsumerGuard(const ConsumerGuard&) = delete;
  ConsumerGuard& operator=(const ConsumerGuard&) = delete;

 private:
  QueryCursor* cursor_;
};

QueryCursor::QueryCursor(Semaphore* admission,
                         std::vector<std::shared_ptr<TableRuntime>> runtimes,
                         std::shared_ptr<ThreadPool> pool,
                         std::shared_ptr<std::atomic<bool>> cancel,
                         std::unique_ptr<ExecStats> stats,
                         std::unique_ptr<PlanProfile> profile,
                         std::shared_ptr<TraceSink> trace, OperatorPtr root,
                         std::string plan_text, std::size_t batch_size,
                         std::uint64_t session_id, double deadline_seconds,
                         std::chrono::steady_clock::time_point opened_at)
    : admission_(admission),
      runtimes_(std::move(runtimes)),
      pool_(std::move(pool)),
      cancel_(std::move(cancel)),
      stats_(std::move(stats)),
      profile_(std::move(profile)),
      trace_(std::move(trace)),
      plan_text_(std::move(plan_text)),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      session_id_(session_id),
      opened_at_(opened_at),
      root_(std::move(root)) {
  columns_ = root_->output_columns();
  if (deadline_seconds > 0) {
    has_deadline_ = true;
    deadline_ = opened_at_ + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(
                                     deadline_seconds));
  }
}

QueryCursor::~QueryCursor() { Close(); }

void QueryCursor::ReleaseAdmission() {
  if (admission_ != nullptr) {
    admission_->Release();
    admission_ = nullptr;
  }
}

namespace {

// Folds one profile node's self time into the ExecStats relational buckets.
// Dedup-ish categories are skipped: their self time is already reported in
// the ER-stage seconds (blocking/resolution/group/...), and folding it here
// would double-count. Fused Filter+Scan pairs share one kScan node, so a
// fused predicate's time lands in scan_seconds — exactly where it ran.
void FoldProfile(const OperatorProfile& node, ExecStats* stats) {
  switch (node.category) {
    case OperatorCategory::kScan:
      stats->scan_seconds += node.self_seconds();
      break;
    case OperatorCategory::kFilter:
    case OperatorCategory::kGroupFilter:
      stats->filter_seconds += node.self_seconds();
      break;
    case OperatorCategory::kJoin:
      stats->join_seconds += node.self_seconds();
      break;
    case OperatorCategory::kProject:
      stats->project_seconds += node.self_seconds();
      break;
    case OperatorCategory::kDedup:
    case OperatorCategory::kDedupJoin:
    case OperatorCategory::kGroup:
    case OperatorCategory::kOther:
      break;
  }
  for (const auto& child : node.children) FoldProfile(*child, stats);
}

// Emits one Complete span per operator that ever ran, spanning its first to
// last activity (Open through the final Next/Close the consumer issued).
void EmitOperatorSpans(const OperatorProfile& node, TraceSink* trace) {
  if (node.opens > 0) {
    trace->Complete(node.label, "operator", node.first_activity,
                    node.last_activity,
                    "\"rows\":" + std::to_string(node.rows) +
                        ",\"batches\":" + std::to_string(node.batches));
  }
  for (const auto& child : node.children) EmitOperatorSpans(*child, trace);
}

}  // namespace

void QueryCursor::FinishObservation(const Status& status) {
  if (folded_) return;
  folded_ = true;
  if (profile_ != nullptr && profile_->root() != nullptr) {
    FoldProfile(*profile_->root(), stats_.get());
    if (trace_ != nullptr) {
      EmitOperatorSpans(*profile_->root(), trace_.get());
    }
  }
  if (trace_ != nullptr && emit_started_) {
    // The consumer-visible streaming window: first Next() to termination.
    trace_->Complete("emit", "session", first_next_,
                     std::chrono::steady_clock::now());
  }
  const EngineMetrics& metrics = GlobalEngineMetrics();
  if (finished_) {
    metrics.queries_executed->Increment();
  } else if (status.IsCancelled()) {
    metrics.queries_cancelled->Increment();
  } else if (status.IsDeadlineExceeded()) {
    metrics.queries_deadline_exceeded->Increment();
  } else if (status.ok()) {
    // Closed (or destroyed) mid-stream without an error: abandoned.
    metrics.queries_abandoned->Increment();
  } else {
    metrics.queries_failed->Increment();
  }
}

void QueryCursor::Terminate(Status status) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  TerminateLocked(std::move(status));
}

void QueryCursor::TerminateLocked(Status status) {
  if (!status.ok()) {
    // Terminal errors name their session — with concurrent sessions (and
    // injected chaos failures), the message alone says which query died.
    status = status.WithContext("session " + std::to_string(session_id_));
  }
  if (root_ != nullptr) {
    // Close cascades down the tree on this (the consumer) thread; no
    // operator leaves pool work behind between calls. A tree that never
    // opened (lazy open not reached, or EnsureOpen failed) is torn down by
    // destructors alone — the DrainOperator contract: no Close after a
    // failed (or skipped) Open.
    if (tree_opened_) root_->Close();
    root_.reset();
  }
  if (!finished_) {
    // A finished stream already recorded its open → end-of-stream time.
    stats_->total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      opened_at_)
            .count();
  }
  // After the tree closed (operators wrote their last profile entries),
  // before the slot frees: fold profiles into stats, flush trace spans,
  // count the session outcome. Runs once even though Terminate may not.
  FinishObservation(status);
  ReleaseAdmission();
  status_ = std::move(status);
}

void QueryCursor::Close() {
  ConsumerGuard guard(this);
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (closed_) return;
  closed_ = true;
  // A Cancel() that arrived before this Close makes the session count as
  // cancelled — but only when the stream had not already finished (a
  // Cancel after the last batch never turns success into an error).
  const bool was_cancelled = cancel_->load(std::memory_order_acquire);
  if (status_.ok()) {
    if (!finished_ && was_cancelled) {
      TerminateLocked(Status::Cancelled("query session cancelled"));
    } else {
      TerminateLocked(Status::OK());
    }
  }
  fetch_batch_.reset();
}

Status QueryCursor::CheckRunnable() {
  if (!status_.ok()) return status_;
  if (closed_) return Status::ExecutionError("cursor is closed");
  if (cancel_->load(std::memory_order_acquire)) {
    Terminate(Status::Cancelled("query session cancelled"));
    return status_;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    Terminate(Status::DeadlineExceeded("query deadline exceeded"));
    return status_;
  }
  return Status::OK();
}

Status QueryCursor::EnsureOpen() {
  // Open is where a DEDUP plan's whole resolution transaction runs; the
  // span makes that cost visible in the session trace, exactly as when
  // the engine opened the tree eagerly.
  TraceSpan open_span(trace_.get(), "open", "session");
  try {
    QUERYER_FAILPOINT("cursor.open");
    QUERYER_RETURN_NOT_OK(root_->Open());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  } catch (...) {
    return Status::Internal("non-std exception during operator tree Open");
  }
  tree_opened_ = true;
  return Status::OK();
}

Result<bool> QueryCursor::Next(RowBatch* batch) {
  ConsumerGuard guard(this);
  // A finished stream stays finished: a Cancel() or deadline that fires
  // after the last batch was delivered must not turn success into error.
  if (finished_) return false;
  QUERYER_RETURN_NOT_OK(CheckRunnable());
  if (!tree_opened_) {
    // Lazy open: the heavy lifting (resolution, join build, ...) happens
    // inside the first Next, so its failure — injected or real — takes
    // the same terminate-and-stick path as a mid-stream error, and a
    // session cancelled before its first Next never starts it at all.
    Status opened = EnsureOpen();
    if (!opened.ok()) {
      Terminate(std::move(opened));
      return status_;
    }
  }
  if (!emit_started_ && trace_ != nullptr) {
    emit_started_ = true;
    first_next_ = std::chrono::steady_clock::now();
  }
  Result<bool> has = [&]() -> Result<bool> {
    try {
      QUERYER_FAILPOINT("cursor.next");
      return root_->Next(batch);
    } catch (const std::exception& e) {
      return Status::Internal(e.what());
    } catch (...) {
      return Status::Internal("non-std exception from operator Next");
    }
  }();
  if (!has.ok()) {
    Terminate(has.status());
    return status_;
  }
  if (!*has) {
    // End of stream — but a Cancel() that landed mid-pull still wins over
    // the end of the stream: a session cancelled before its answer was
    // fully delivered reports kCancelled, as at any other batch boundary,
    // so check the flag before declaring the answer complete. Only the
    // cancel flag, NOT the deadline: the deadline acts solely through
    // CheckRunnable, which terminates the stream on the spot, so it can
    // never truncate — a stream that reaches its end under a just-expired
    // deadline is complete and stays successful.
    if (cancel_->load(std::memory_order_acquire)) {
      Terminate(Status::Cancelled("query session cancelled"));
      return status_;
    }
    stats_->total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      opened_at_)
            .count();
    finished_ = true;
    // The session is over: close the tree and release the admission slot
    // NOW, not at Close/destruction — a client that drains a cursor and
    // keeps the handle around (for stats, say) must not block the
    // engine's next session.
    Terminate(Status::OK());
    return false;
  }
  return true;
}

Result<std::vector<std::vector<std::string>>> QueryCursor::Fetch(
    std::size_t n) {
  ConsumerGuard guard(this);
  std::vector<std::vector<std::string>> rows;
  if (fetch_batch_ == nullptr) {
    fetch_batch_ = std::make_unique<RowBatch>(batch_size_);
    fetch_pos_ = 0;
  }
  while (rows.size() < n) {
    if (fetch_pos_ >= fetch_batch_->size()) {
      QUERYER_ASSIGN_OR_RETURN(bool has, Next(fetch_batch_.get()));
      fetch_pos_ = 0;
      if (!has) break;
      continue;  // The refilled batch may legally be empty.
    }
    rows.push_back(fetch_batch_->TakeValues(fetch_pos_++));
  }
  return rows;
}

std::string QueryCursor::AnnotatedPlan() const {
  std::string out;
  if (profile_ != nullptr && profile_->root() != nullptr) {
    out += profile_->ToString();
  } else {
    out += plan_text_;
  }
  out += "\n";
  out += stats_->ToString();
  return out;
}

}  // namespace queryer
