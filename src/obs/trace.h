// Per-session tracing: records Chrome trace-event JSON that loads directly
// in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// A TraceSink is attached to a query session via EngineOptions::trace_sink.
// When no sink is attached, instrumentation sites cost ZERO — a TraceSpan
// constructed with a null sink takes no clock reading and records nothing
// (verified by obs_test via TraceSink::TotalEventsRecorded()).
//
// Event model (docs/OBSERVABILITY.md documents the schema in full):
// complete events (ph:"X"), one span per plan / open / operator / ER-stage
// / emit, duration in microseconds.
// Timestamps are microseconds since the sink's construction; thread ids are
// small dense integers assigned per OS thread on first use.

#ifndef QUERYER_OBS_TRACE_H_
#define QUERYER_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace queryer {

/// \brief Thread-safe in-memory buffer of trace events for one session (or
/// one process run — sinks may be shared across sessions; events carry the
/// session id in their args). Flushed to JSON on demand or at destruction.
class TraceSink {
 public:
  using Clock = std::chrono::steady_clock;

  TraceSink();
  /// Convenience: writes ToJson() to `path` when the sink is destroyed.
  explicit TraceSink(std::string path);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Records a complete ("X") span. `args_json` is either empty or a JSON
  /// object body without braces, e.g. `"rows":12,"batches":3`.
  void Complete(std::string name, const char* category, Clock::time_point begin,
                Clock::time_point end, std::string args_json = {});

  /// The sink's epoch; span begin/end time points must come from Clock.
  Clock::time_point epoch() const { return epoch_; }

  std::size_t event_count() const;

  /// Full trace document: {"traceEvents":[...]}.
  std::string ToJson() const;

  /// Writes ToJson() to a file; returns false (and logs to stderr) on I/O
  /// failure.
  bool WriteTo(const std::string& path) const;

  /// Process-wide count of events ever recorded into any sink. Lets tests
  /// assert the zero-overhead-when-off property: run with no sink attached
  /// and check this does not move.
  static std::uint64_t TotalEventsRecorded();

 private:
  struct Event {
    std::string name;      // Owned: the sink can outlive whoever named the
    const char* category;  // span. Categories are string literals.
    std::int64_t ts_micros;
    std::int64_t dur_micros;
    std::uint32_t tid;
    std::string args_json;
  };

  std::int64_t MicrosSince(Clock::time_point tp) const;
  void Append(Event event);

  const Clock::time_point epoch_;
  std::string path_;  // Empty unless the write-at-destruction ctor was used.
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// \brief RAII span: reads the clock at construction and records a Complete
/// event at destruction. With a null sink it is a complete no-op — no clock
/// read, no allocation.
class TraceSpan {
 public:
  TraceSpan(TraceSink* sink, const char* name, const char* category)
      : sink_(sink), name_(name), category_(category) {
    if (sink_ != nullptr) begin_ = TraceSink::Clock::now();
  }
  ~TraceSpan() {
    if (sink_ != nullptr) {
      sink_->Complete(name_, category_, begin_, TraceSink::Clock::now(),
                      std::move(args_json_));
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches args to the span-to-be, e.g. `"rows":42`. No-op when off.
  void set_args(std::string args_json) {
    if (sink_ != nullptr) args_json_ = std::move(args_json);
  }

 private:
  TraceSink* sink_;
  const char* name_;
  const char* category_;
  TraceSink::Clock::time_point begin_{};
  std::string args_json_;
};

/// Small dense id for the calling OS thread (1 = first thread seen).
/// Stable for the thread's lifetime; used as the trace "tid" so Perfetto
/// shows one lane per worker.
std::uint32_t CurrentTraceThreadId();

}  // namespace queryer

#endif  // QUERYER_OBS_TRACE_H_
