// The parallel-execution substrate: a fixed-size worker pool with a shared
// task queue, plus the chunked ParallelFor primitive the engine's one
// data-parallel phase, comparison execution, is built on.
//
// Error handling follows the engine-wide Status idiom: ParallelFor bodies
// return Status, and any exception a body throws is captured and converted
// to an Internal Status, so worker threads never unwind across the pool
// boundary. With a null pool (or a single worker) every primitive degrades
// to the exact sequential execution order, which is how
// EngineOptions::num_threads == 1 preserves the seed's behavior bit for bit.

#ifndef QUERYER_PARALLEL_THREAD_POOL_H_
#define QUERYER_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/status.h"

namespace queryer {

class LatencyHistogram;  // obs/metrics.h — kept out of this header.

/// \brief Fixed-size worker pool with a FIFO task queue.
///
/// Workers are spawned in the constructor and joined in the destructor after
/// the queue drains. Submit is safe to call from any thread, including from
/// inside a running task (tasks must not block on tasks they enqueue,
/// though — the pool does no work stealing).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  virtual ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallel width: chunked phases split their work by this. Virtual so a
  /// capped view can report its cap instead of the backing pool's width.
  virtual std::size_t num_threads() const {
    return num_threads_.load(std::memory_order_acquire);
  }

  /// Enqueues a task for execution on some worker. Tasks must not throw;
  /// use ParallelFor for exception-to-Status conversion.
  virtual void Submit(std::function<void()> task);

  /// Grows the pool to at least `num_threads` workers (pools never
  /// shrink). Safe to call while tasks are running.
  void EnsureWorkers(std::size_t num_threads);

  /// The process-wide pool, shared by every engine and query session.
  /// Lazily created on first call and grown (never shrunk) to the largest
  /// width any caller requested; `min_threads` == 0 requests hardware
  /// concurrency. Callers keep the returned shared_ptr for as long as they
  /// use the pool, so the workers outlive every session that might still
  /// submit — the pool is joined only after the last holder (or the
  /// registry itself, at process exit) lets go.
  static std::shared_ptr<ThreadPool> Shared(std::size_t min_threads = 0);

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// permits 0 when the count is unknowable).
  static std::size_t HardwareConcurrency();

 protected:
  /// For forwarding views: spawns no workers of its own.
  ThreadPool() = default;

 private:
  /// A queued task plus its enqueue time, so the worker that dequeues it
  /// can report the queue wait to the process-wide metrics
  /// (queryer_threadpool_task_wait_seconds / _queue_depth).
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::atomic<std::size_t> num_threads_{0};
  std::queue<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_ = false;
};

/// \brief Width-capped view on a backing pool (usually the process-wide
/// shared one). Tasks run on the backing pool's workers, but num_threads()
/// reports at most `cap`, so everything that sizes its chunking from the
/// pool honors the owner's configured parallelism instead of silently
/// widening to whatever the shared pool grew to. Keeps the backing pool
/// alive.
class CappedThreadPool final : public ThreadPool {
 public:
  CappedThreadPool(std::shared_ptr<ThreadPool> backing, std::size_t cap)
      : backing_(std::move(backing)), cap_(cap == 0 ? 1 : cap) {}

  std::size_t num_threads() const override {
    std::size_t width = backing_->num_threads();
    return width < cap_ ? width : cap_;
  }
  void Submit(std::function<void()> task) override {
    backing_->Submit(std::move(task));
  }

 private:
  std::shared_ptr<ThreadPool> backing_;
  std::size_t cap_;
};

/// \brief Counting semaphore (C++17 has none): the engine's admission
/// control for EngineOptions::max_concurrent_queries.
class Semaphore {
 public:
  /// `count` == 0 means unlimited (Acquire never blocks).
  explicit Semaphore(std::size_t count) : available_(count), unlimited_(count == 0) {}

  void Acquire();
  void Release();

  /// Acquire with a bounded wait: returns false if no slot freed up within
  /// `timeout_seconds` (the caller sheds the request instead of queueing
  /// forever). A successful timed acquire records its wait in the
  /// histogram exactly like Acquire; a shed one records nothing — the
  /// admission-wait histogram stays the admitted-session distribution.
  bool TryAcquireFor(double timeout_seconds);

  /// When set, every Acquire records how long it waited for a slot
  /// (including the zero-wait fast path, so the histogram's count is the
  /// admitted-session count). The histogram must outlive the semaphore —
  /// the engine points it at the process-wide metrics registry.
  void set_wait_histogram(LatencyHistogram* histogram) {
    wait_histogram_ = histogram;
  }

  /// RAII slot: acquired on construction, released on destruction —
  /// unless Disarm() transferred ownership (QueryCursor takes its
  /// session's slot over this way).
  class Slot {
   public:
    /// Tag for adopting a slot the caller already acquired (e.g. through
    /// TryAcquireFor) instead of acquiring a fresh one.
    struct Adopt {};

    explicit Slot(Semaphore* semaphore) : semaphore_(semaphore) {
      semaphore_->Acquire();
    }
    Slot(Semaphore* semaphore, Adopt) : semaphore_(semaphore) {}
    ~Slot() {
      if (semaphore_ != nullptr) semaphore_->Release();
    }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    /// Gives the slot up without releasing it; the caller now owns the
    /// release.
    void Disarm() { semaphore_ = nullptr; }

   private:
    Semaphore* semaphore_;
  };

 private:
  std::mutex mutex_;
  std::condition_variable available_cv_;
  std::size_t available_;
  const bool unlimited_;
  LatencyHistogram* wait_histogram_ = nullptr;
};

/// \brief Half-open index range [begin, end) of one ParallelFor chunk.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// \brief Splits [0, n) into at most `num_chunks` contiguous non-empty
/// ranges of near-equal size (the first n % num_chunks chunks get one extra
/// element). Returns fewer than `num_chunks` ranges when n < num_chunks and
/// an empty vector when n == 0. The chunking depends only on (n, num_chunks),
/// never on scheduling — parallel phases rely on this for determinism.
std::vector<ChunkRange> SplitRange(std::size_t n, std::size_t num_chunks);

/// Body of a ParallelFor: processes [begin, end) as chunk `chunk_index`.
using ParallelForBody =
    std::function<Status(std::size_t chunk_index, std::size_t begin,
                         std::size_t end)>;

/// \brief Runs `body` over the chunks of [0, n), blocking until all finish.
///
/// `num_chunks == 0` defaults to the pool width (1 without a pool). With a
/// null or single-worker pool, chunks run inline on the calling thread in
/// ascending order — exact sequential semantics. Otherwise every chunk is
/// submitted to the pool; exceptions a body throws become Internal Statuses.
/// If several chunks fail, the Status of the lowest chunk index wins, so the
/// reported error does not depend on scheduling. All chunks run to
/// completion even when one fails (no cancellation), keeping partial writes
/// of failing runs well-defined for the caller — the inline path honors
/// this too.
Status ParallelFor(ThreadPool* pool, std::size_t n, const ParallelForBody& body,
                   std::size_t num_chunks = 0);

/// \brief ParallelFor over caller-provided chunks.
///
/// Callers that size per-chunk result buffers from a chunk list must pass
/// that same list here (rather than trusting an internal re-split to line
/// up), so chunk_index always addresses their buffers correctly.
Status ParallelFor(ThreadPool* pool, const std::vector<ChunkRange>& chunks,
                   const ParallelForBody& body);

}  // namespace queryer

#endif  // QUERYER_PARALLEL_THREAD_POOL_H_
