#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace queryer {

namespace {

std::atomic<std::uint64_t> g_total_events{0};
std::atomic<std::uint32_t> g_next_thread_id{0};

}  // namespace

std::uint32_t CurrentTraceThreadId() {
  thread_local std::uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

TraceSink::TraceSink() : epoch_(Clock::now()) {}

TraceSink::TraceSink(std::string path)
    : epoch_(Clock::now()), path_(std::move(path)) {}

TraceSink::~TraceSink() {
  if (!path_.empty()) WriteTo(path_);
}

std::int64_t TraceSink::MicrosSince(Clock::time_point tp) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(tp - epoch_)
      .count();
}

void TraceSink::Append(Event event) {
  g_total_events.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void TraceSink::Complete(std::string name, const char* category,
                         Clock::time_point begin, Clock::time_point end,
                         std::string args_json) {
  Event event;
  event.name = std::move(name);
  event.category = category;
  event.ts_micros = MicrosSince(begin);
  event.dur_micros = std::max<std::int64_t>(0, MicrosSince(end) - event.ts_micros);
  event.tid = CurrentTraceThreadId();
  event.args_json = std::move(args_json);
  Append(std::move(event));
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string TraceSink::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const Event& event : events_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += event.name;
    out += "\",\"cat\":\"";
    out += event.category;
    out += "\",\"ph\":\"X\",\"pid\":1";
    std::snprintf(buf, sizeof(buf), ",\"tid\":%u,\"ts\":%lld,\"dur\":%lld",
                  event.tid, static_cast<long long>(event.ts_micros),
                  static_cast<long long>(event.dur_micros));
    out += buf;
    if (!event.args_json.empty()) {
      out += ",\"args\":{";
      out += event.args_json;
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

bool TraceSink::WriteTo(const std::string& path) const {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "TraceSink: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  file << ToJson();
  file.flush();
  return file.good();
}

std::uint64_t TraceSink::TotalEventsRecorded() {
  return g_total_events.load(std::memory_order_relaxed);
}

}  // namespace queryer
