#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/logging.h"

namespace queryer {

// ---------------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------------

double HistogramSnapshot::Quantile(double p) const {
  if (count == 0) return 0;
  p = std::min(std::max(p, 0.0), 1.0);
  // Rank of the target observation (1-based), then walk the buckets.
  const double rank = p * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      const double lower = i == 0 ? 0.0 : LatencyHistogram::BucketBound(i - 1);
      const double upper = LatencyHistogram::BucketBound(i);
      const double within =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(within, 1.0);
    }
    cumulative += in_bucket;
  }
  return LatencyHistogram::BucketBound(buckets.empty() ? 0 : buckets.size() - 1);
}

HistogramSnapshot HistogramSnapshot::Since(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot delta;
  delta.buckets.resize(buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t before = i < earlier.buckets.size() ? earlier.buckets[i] : 0;
    delta.buckets[i] = buckets[i] >= before ? buckets[i] - before : 0;
  }
  delta.count = count >= earlier.count ? count - earlier.count : 0;
  delta.sum_seconds = std::max(0.0, sum_seconds - earlier.sum_seconds);
  return delta;
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

double LatencyHistogram::BucketBound(std::size_t i) {
  if (i >= kNumBuckets - 1) i = kNumBuckets - 2;  // Overflow bucket.
  return kFirstBucketSeconds * static_cast<double>(1ull << i);
}

void LatencyHistogram::Observe(double seconds) {
  if (seconds < 0 || !std::isfinite(seconds)) seconds = 0;
  std::size_t bucket = kNumBuckets - 1;
  for (std::size_t i = 0; i < kNumBuckets - 1; ++i) {
    if (seconds <= BucketBound(i)) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kNumBuckets);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_seconds =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

enum class MetricKind { kCounter, kGauge, kHistogram };

struct Instrument {
  MetricKind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<LatencyHistogram> histogram;
};

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // std::map keeps exports sorted by name (deterministic output).
  std::map<std::string, Instrument> instruments;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  // One leaked Impl per (leaked) registry.
  static Impl* impl = new Impl();
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  Instrument& inst = state.instruments[name];
  if (inst.counter == nullptr) {
    QUERYER_CHECK(inst.gauge == nullptr && inst.histogram == nullptr);
    inst.kind = MetricKind::kCounter;
    inst.counter = std::make_unique<Counter>();
  }
  return inst.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  Instrument& inst = state.instruments[name];
  if (inst.gauge == nullptr) {
    QUERYER_CHECK(inst.counter == nullptr && inst.histogram == nullptr);
    inst.kind = MetricKind::kGauge;
    inst.gauge = std::make_unique<Gauge>();
  }
  return inst.gauge.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  Instrument& inst = state.instruments[name];
  if (inst.histogram == nullptr) {
    QUERYER_CHECK(inst.counter == nullptr && inst.gauge == nullptr);
    inst.kind = MetricKind::kHistogram;
    inst.histogram = std::make_unique<LatencyHistogram>();
  }
  return inst.histogram.get();
}

std::string MetricsRegistry::ExportJson() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  std::ostringstream counters, gauges, histograms;
  bool first_counter = true, first_gauge = true, first_histogram = true;
  for (const auto& [name, inst] : state.instruments) {
    switch (inst.kind) {
      case MetricKind::kCounter:
        if (!first_counter) counters << ",";
        first_counter = false;
        counters << "\"" << name << "\":" << inst.counter->Value();
        break;
      case MetricKind::kGauge:
        if (!first_gauge) gauges << ",";
        first_gauge = false;
        gauges << "\"" << name << "\":" << inst.gauge->Value();
        break;
      case MetricKind::kHistogram: {
        if (!first_histogram) histograms << ",";
        first_histogram = false;
        HistogramSnapshot snap = inst.histogram->Snapshot();
        histograms << "\"" << name << "\":{\"count\":" << snap.count
                   << ",\"sum_seconds\":" << FormatDouble(snap.sum_seconds)
                   << ",\"p50\":" << FormatDouble(snap.Quantile(0.50))
                   << ",\"p95\":" << FormatDouble(snap.Quantile(0.95))
                   << ",\"p99\":" << FormatDouble(snap.Quantile(0.99))
                   << ",\"buckets\":[";
        for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
          if (i > 0) histograms << ",";
          histograms << snap.buckets[i];
        }
        histograms << "]}";
        break;
      }
    }
  }
  std::string out = "{\"counters\":{";
  out += counters.str();
  out += "},\"gauges\":{";
  out += gauges.str();
  out += "},\"histograms\":{";
  out += histograms.str();
  out += "}}";
  return out;
}

std::string MetricsRegistry::ExportPrometheus() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  std::ostringstream out;
  for (const auto& [name, inst] : state.instruments) {
    switch (inst.kind) {
      case MetricKind::kCounter:
        out << "# TYPE " << name << " counter\n"
            << name << " " << inst.counter->Value() << "\n";
        break;
      case MetricKind::kGauge:
        out << "# TYPE " << name << " gauge\n"
            << name << " " << inst.gauge->Value() << "\n";
        break;
      case MetricKind::kHistogram: {
        HistogramSnapshot snap = inst.histogram->Snapshot();
        out << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i + 1 < snap.buckets.size(); ++i) {
          cumulative += snap.buckets[i];
          out << name << "_bucket{le=\""
              << FormatDouble(LatencyHistogram::BucketBound(i)) << "\"} "
              << cumulative << "\n";
        }
        out << name << "_bucket{le=\"+Inf\"} " << snap.count << "\n"
            << name << "_sum " << FormatDouble(snap.sum_seconds) << "\n"
            << name << "_count " << snap.count << "\n";
        break;
      }
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// EngineMetrics
// ---------------------------------------------------------------------------

const EngineMetrics& GlobalEngineMetrics() {
  static const EngineMetrics* metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* m = new EngineMetrics();
    m->queries_opened = reg.GetCounter("queryer_queries_opened_total");
    m->queries_executed = reg.GetCounter("queryer_queries_executed_total");
    m->queries_cancelled = reg.GetCounter("queryer_queries_cancelled_total");
    m->queries_deadline_exceeded =
        reg.GetCounter("queryer_queries_deadline_exceeded_total");
    m->queries_abandoned = reg.GetCounter("queryer_queries_abandoned_total");
    m->queries_failed = reg.GetCounter("queryer_queries_failed_total");
    m->sessions_shed = reg.GetCounter("queryer_sessions_shed_total");
    m->cancelled_in_resolution =
        reg.GetCounter("queryer_sessions_cancelled_in_resolution_total");
    m->admission_wait = reg.GetHistogram("queryer_admission_wait_seconds");
    m->comparisons_executed =
        reg.GetCounter("queryer_comparisons_executed_total");
    m->comparisons_skipped_linked =
        reg.GetCounter("queryer_comparisons_skipped_linked_total");
    m->comparisons_skipped_inflight =
        reg.GetCounter("queryer_comparisons_skipped_inflight_total");
    m->matches_found = reg.GetCounter("queryer_matches_found_total");
    m->link_index_hits = reg.GetCounter("queryer_link_index_hits_total");
    m->link_index_misses = reg.GetCounter("queryer_link_index_misses_total");
    m->pool_queue_depth = reg.GetGauge("queryer_threadpool_queue_depth");
    m->pool_task_wait =
        reg.GetHistogram("queryer_threadpool_task_wait_seconds");
    m->li_log_appends = reg.GetCounter("queryer_li_log_appends_total");
    m->li_log_bytes = reg.GetCounter("queryer_li_log_bytes_total");
    m->li_log_compactions = reg.GetCounter("queryer_li_log_compactions_total");
    m->snapshots_written = reg.GetCounter("queryer_snapshots_written_total");
    m->recovery_replayed_records =
        reg.GetCounter("queryer_recovery_replayed_records_total");
    m->recovery_torn_tails =
        reg.GetCounter("queryer_recovery_torn_tails_total");
    m->li_log_append_wait =
        reg.GetHistogram("queryer_li_log_append_wait_seconds");
    m->snapshot_flush_wait =
        reg.GetHistogram("queryer_snapshot_flush_wait_seconds");
    return m;
  }();
  return *metrics;
}

// ---------------------------------------------------------------------------
// ServerMetrics
// ---------------------------------------------------------------------------

const ServerMetrics& GlobalServerMetrics() {
  static const ServerMetrics* metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* m = new ServerMetrics();
    m->connections_accepted =
        reg.GetCounter("queryer_server_connections_accepted_total");
    m->connections_refused =
        reg.GetCounter("queryer_server_connections_refused_total");
    m->idle_disconnects =
        reg.GetCounter("queryer_server_idle_disconnects_total");
    m->connections_active = reg.GetGauge("queryer_server_connections_active");
    m->bytes_read = reg.GetCounter("queryer_server_bytes_read_total");
    m->bytes_written = reg.GetCounter("queryer_server_bytes_written_total");
    m->frames_received = reg.GetCounter("queryer_server_frames_received_total");
    m->responses_sent = reg.GetCounter("queryer_server_responses_sent_total");
    m->protocol_errors =
        reg.GetCounter("queryer_server_protocol_errors_total");
    m->requests_shed = reg.GetCounter("queryer_server_requests_shed_total");
    m->request_latency =
        reg.GetHistogram("queryer_server_request_seconds");
    return m;
  }();
  return *metrics;
}

}  // namespace queryer
