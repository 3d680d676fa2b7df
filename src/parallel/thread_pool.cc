#include "parallel/thread_pool.h"

#include <exception>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace queryer {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  num_threads_.store(workers_.size(), std::memory_order_release);
}

void ThreadPool::EnsureWorkers(std::size_t num_threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  QUERYER_CHECK(!stopping_);
  while (workers_.size() < num_threads) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  num_threads_.store(workers_.size(), std::memory_order_release);
}

std::shared_ptr<ThreadPool> ThreadPool::Shared(std::size_t min_threads) {
  if (min_threads == 0) min_threads = HardwareConcurrency();
  // Function-local statics: the pool is created on first demand and torn
  // down after main (workers are joined in ~ThreadPool then — no dangling
  // threads at static destruction, because the pool owns nothing beyond
  // its queue and the engines holding the shared_ptr are gone first).
  static std::mutex registry_mutex;
  static std::shared_ptr<ThreadPool> shared_pool;
  std::lock_guard<std::mutex> lock(registry_mutex);
  if (shared_pool == nullptr) {
    shared_pool = std::make_shared<ThreadPool>(min_threads);
  } else {
    shared_pool->EnsureWorkers(min_threads);
  }
  return shared_pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  QUERYER_DCHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    QUERYER_CHECK(!stopping_);
    queue_.push({std::move(task), std::chrono::steady_clock::now()});
  }
  GlobalEngineMetrics().pool_queue_depth->Add(1);
  ready_.notify_one();
}

std::size_t ThreadPool::HardwareConcurrency() {
  std::size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void Semaphore::Acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (wait_histogram_ != nullptr) {
    // Time the wait even on the uncontended path (it observes ~0): the
    // histogram's count then equals the admitted-session count, which is
    // what makes its quantiles meaningful.
    const auto start = std::chrono::steady_clock::now();
    if (!unlimited_) {
      available_cv_.wait(lock,
                         [this] { return unlimited_ || available_ > 0; });
      if (!unlimited_) --available_;
    }
    wait_histogram_->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    return;
  }
  if (unlimited_) return;
  available_cv_.wait(lock, [this] { return unlimited_ || available_ > 0; });
  if (!unlimited_) --available_;
}

bool Semaphore::TryAcquireFor(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (unlimited_) {
    if (wait_histogram_ != nullptr) wait_histogram_->Observe(0.0);
    return true;
  }
  const auto start = std::chrono::steady_clock::now();
  const bool acquired = available_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [this] { return unlimited_ || available_ > 0; });
  if (!acquired) return false;
  if (!unlimited_) --available_;
  if (wait_histogram_ != nullptr) {
    wait_histogram_->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  return true;
}

void Semaphore::Release() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (unlimited_) return;
    ++available_;
  }
  available_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue before honoring shutdown so ~ThreadPool never
      // abandons submitted work.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    const EngineMetrics& metrics = GlobalEngineMetrics();
    metrics.pool_queue_depth->Add(-1);
    metrics.pool_task_wait->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      task.enqueued)
            .count());
    // Inert: a worker must never unwind or fail, but a chaos schedule can
    // stretch the submit->run window here to shake out waiters' timeouts.
    QUERYER_FAILPOINT_INERT("threadpool.task");
    task.fn();
  }
}

std::vector<ChunkRange> SplitRange(std::size_t n, std::size_t num_chunks) {
  std::vector<ChunkRange> chunks;
  if (n == 0) return chunks;
  if (num_chunks == 0) num_chunks = 1;
  if (num_chunks > n) num_chunks = n;
  const std::size_t base = n / num_chunks;
  const std::size_t remainder = n % num_chunks;
  chunks.reserve(num_chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    std::size_t size = base + (c < remainder ? 1 : 0);
    chunks.push_back({begin, begin + size});
    begin += size;
  }
  return chunks;
}

namespace {

Status RunBodyCatching(const ParallelForBody& body, std::size_t chunk_index,
                       const ChunkRange& range) {
  try {
    return body(chunk_index, range.begin, range.end);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("ParallelFor body threw: ") + e.what());
  } catch (...) {
    return Status::Internal("ParallelFor body threw a non-std exception");
  }
}

}  // namespace

Status ParallelFor(ThreadPool* pool, std::size_t n, const ParallelForBody& body,
                   std::size_t num_chunks) {
  if (num_chunks == 0) num_chunks = pool != nullptr ? pool->num_threads() : 1;
  return ParallelFor(pool, SplitRange(n, num_chunks), body);
}

Status ParallelFor(ThreadPool* pool, const std::vector<ChunkRange>& chunks,
                   const ParallelForBody& body) {
  if (chunks.empty()) return Status::OK();

  if (pool == nullptr || pool->num_threads() < 2 || chunks.size() < 2) {
    // Run every chunk even after a failure, mirroring the pooled path's
    // no-cancellation contract, and report the lowest failing chunk.
    Status first_error;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      Status status = RunBodyCatching(body, c, chunks[c]);
      if (!status.ok() && first_error.ok()) first_error = std::move(status);
    }
    return first_error;
  }

  std::vector<Status> statuses(chunks.size());
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = chunks.size();
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    pool->Submit([&, c] {
      Status status = RunBodyCatching(body, c, chunks[c]);
      std::lock_guard<std::mutex> lock(done_mutex);
      statuses[c] = std::move(status);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

}  // namespace queryer
