// CancelContext: the session cancellation flag + deadline, in a form the
// ER layer can poll from deep inside comparison execution.
//
// The streaming session (QueryCursor) owns an atomic cancel flag and an
// optional deadline, checked at every batch boundary. Resolution, however,
// runs comparison chunks far below the batch boundaries — a cold Link
// Index DEDUP can spend seconds there. The Executor packages the session's
// flag and deadline into a CancelContext and hands it down to the
// Deduplicator, whose comparison loops call Check() every few hundred
// comparisons so Cancel() and deadline expiry pre-empt resolution instead
// of waiting it out.

#ifndef QUERYER_COMMON_CANCEL_CONTEXT_H_
#define QUERYER_COMMON_CANCEL_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <memory>

#include "common/status.h"

namespace queryer {

/// \brief A poll-able view of one session's cancellation state. Copyable;
/// Check() is safe from any thread. A default-constructed context never
/// cancels (batch/offline callers pass nullptr instead).
struct CancelContext {
  std::shared_ptr<const std::atomic<bool>> cancel;  // Null = no flag.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  /// How many comparisons the ER loops evaluate between Check() calls —
  /// small enough that cancellation latency stays in the microseconds,
  /// large enough that the atomic load + clock read disappear in the
  /// similarity math.
  static constexpr std::size_t kPollInterval = 256;

  /// OK while the session may keep running; Cancelled once the flag is
  /// raised, DeadlineExceeded once the deadline passed.
  Status Check() const {
    if (cancel && cancel->load(std::memory_order_acquire)) {
      return Status::Cancelled("query cancelled during resolution");
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("query deadline expired during resolution");
    }
    return Status::OK();
  }
};

}  // namespace queryer

#endif  // QUERYER_COMMON_CANCEL_CONTEXT_H_
