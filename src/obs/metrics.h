// Process-wide metrics registry: lock-free counters/gauges and fixed-bucket
// latency histograms, registered by name and exportable as JSON or
// Prometheus text exposition format.
//
// Design rules (docs/OBSERVABILITY.md has the full metric catalog):
//
//  * Hot paths never take a lock and never look anything up: instruments
//    are resolved ONCE by name (registry map under a mutex) and cached as
//    raw pointers — GlobalEngineMetrics() is the engine's cache. Updates
//    are single relaxed atomic RMWs.
//  * Instruments are never destroyed. The registry is intentionally leaked
//    so worker threads draining a pool during static destruction can still
//    record (no destruction-order hazard), and a cached pointer can never
//    dangle.
//  * Histograms use FIXED power-of-two bucket bounds (1 µs … ~67 s), so
//    concurrent Observe calls are one relaxed fetch_add each and exports
//    from different processes are comparable bucket by bucket.
//
// Everything here is TSan-clean by construction; totals are exact (counts
// are sums of atomic increments, not sampled).

#ifndef QUERYER_OBS_METRICS_H_
#define QUERYER_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace queryer {

/// \brief Monotonic counter. Increment from any thread, no locks.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// \brief Up/down gauge (e.g. the ThreadPool queue depth).
class Gauge {
 public:
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// \brief Consistent point-in-time copy of a histogram, with percentile
/// estimation. Subtract two snapshots (Since) to get the distribution of a
/// bounded interval — bench_concurrent_queries reports per-point admission
/// wait this way.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  // One count per bucket.
  std::uint64_t count = 0;
  double sum_seconds = 0;

  /// Estimated p-quantile (p in [0,1]) in seconds: finds the bucket holding
  /// the p-th observation and interpolates linearly inside it. 0 when the
  /// snapshot is empty.
  double Quantile(double p) const;

  /// This snapshot minus an earlier one of the same histogram.
  HistogramSnapshot Since(const HistogramSnapshot& earlier) const;
};

/// \brief Fixed-bucket latency histogram. Bucket i covers observations up
/// to kFirstBucketSeconds * 2^i; the last bucket is the overflow bucket.
/// Observe is two relaxed atomic adds — safe and cheap from any thread.
class LatencyHistogram {
 public:
  static constexpr std::size_t kNumBuckets = 27;
  static constexpr double kFirstBucketSeconds = 1e-6;  // 1 µs ... ~67 s.

  /// Upper bound of bucket `i` in seconds (the overflow bucket reports the
  /// same bound as its predecessor for interpolation purposes).
  static double BucketBound(std::size_t i);

  void Observe(double seconds);

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  /// Total of all observations, in seconds (nanosecond resolution).
  double SumSeconds() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  // Nanoseconds as an integer: std::atomic<double> fetch_add is not
  // universally lock-free, an integer always is.
  std::atomic<std::uint64_t> sum_nanos_{0};
};

/// \brief Name -> instrument registry. Lookup/registration takes a mutex
/// (do it once, cache the pointer); the instruments themselves are
/// lock-free. Instruments live forever — see the file comment.
class MetricsRegistry {
 public:
  /// The process-wide registry (intentionally leaked, never destroyed).
  static MetricsRegistry& Global();

  /// Returns the instrument registered under `name`, creating it on first
  /// use. Registering the same name as two different kinds aborts.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms carry count/sum/p50/p95/p99 plus the raw buckets. Names are
  /// sorted, so the export is deterministic given the same values.
  std::string ExportJson() const;

  /// Prometheus text exposition format (counters, gauges, and histograms
  /// with cumulative `_bucket{le="..."}` series plus `_sum`/`_count`).
  std::string ExportPrometheus() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;
  ~MetricsRegistry() = delete;  // Leaked by design.

  struct Impl;
  Impl& impl() const;
};

/// \brief The engine's cached instrument pointers, resolved once from the
/// global registry. Every field is non-null. See docs/OBSERVABILITY.md for
/// the catalog (names, types, semantics).
struct EngineMetrics {
  // Query session lifecycle (QueryEngine / QueryCursor).
  Counter* queries_opened;             // Sessions admitted and opened.
  Counter* queries_executed;           // Streams drained to the end.
  Counter* queries_cancelled;          // Ended by Cancel().
  Counter* queries_deadline_exceeded;  // Ended by the session deadline.
  Counter* queries_abandoned;          // Closed/destroyed mid-stream.
  Counter* queries_failed;             // Ended by an execution error.
  Counter* sessions_shed;              // Refused admission (timeout).
  Counter* cancelled_in_resolution;    // Cancel/deadline pre-empted ER.
  LatencyHistogram* admission_wait;    // Semaphore::Acquire blocking time.

  // ER pipeline (Deduplicator).
  Counter* comparisons_executed;
  Counter* comparisons_skipped_linked;
  Counter* comparisons_skipped_inflight;
  Counter* matches_found;
  Counter* link_index_hits;    // Query entities served already-resolved.
  Counter* link_index_misses;  // Query entities resolved fresh.

  // ThreadPool.
  Gauge* pool_queue_depth;           // Tasks submitted, not yet started.
  LatencyHistogram* pool_task_wait;  // Submit -> task start.

  // Persistence tier (src/persist).
  Counter* li_log_appends;       // Link-log records appended.
  Counter* li_log_bytes;         // Bytes appended to link logs.
  Counter* li_log_compactions;   // Log compactions (snapshot + truncate).
  Counter* snapshots_written;    // Snapshot files written (all kinds).
  Counter* recovery_replayed_records;  // Log records replayed on open.
  Counter* recovery_torn_tails;        // Torn log tails truncated on open.
  LatencyHistogram* li_log_append_wait;  // Append (incl. fsync) latency.
  LatencyHistogram* snapshot_flush_wait;  // Snapshot write+flush latency.
};

/// The process-wide EngineMetrics (resolved once, never destroyed).
const EngineMetrics& GlobalEngineMetrics();

/// \brief The query server's cached instrument pointers (src/server), same
/// contract as EngineMetrics: every field non-null, resolved once from the
/// global registry. Catalog in docs/OBSERVABILITY.md.
struct ServerMetrics {
  // Connection lifecycle (QueryServer accept loop + I/O workers).
  Counter* connections_accepted;  // Accepted and assigned to a worker.
  Counter* connections_refused;   // Turned away (limit / accept failpoint).
  Counter* idle_disconnects;      // Closed by the server's idle timeout.
  Gauge* connections_active;      // Currently open connections.

  // Wire traffic.
  Counter* bytes_read;
  Counter* bytes_written;
  Counter* frames_received;   // Complete request frames parsed off the wire.
  Counter* responses_sent;
  Counter* protocol_errors;   // Malformed frames / unknown ops / bad ids.

  // Tenancy.
  Counter* requests_shed;  // Over-quota sheds, all tenants (per-tenant
                           // counters are registered dynamically as
                           // queryer_server_tenant_shed_total_<tenant>).

  // Caches.
  Counter* plan_cache_hits;
  Counter* plan_cache_misses;
  Counter* result_cache_hits;
  Counter* result_cache_misses;
  Counter* result_cache_invalidated;  // Hits rejected by a moved epoch /
                                      // catalog version (entry dropped).
  Counter* result_cache_insertions;

  // Request handling, HELLO to response written (one observation per
  // request frame, protocol errors included).
  LatencyHistogram* request_latency;
};

/// The process-wide ServerMetrics (resolved once, never destroyed).
const ServerMetrics& GlobalServerMetrics();

}  // namespace queryer

#endif  // QUERYER_OBS_METRICS_H_
