// The wire phase of warm_read's traced run: reads beside writes over the
// wire, for the server layer's per-layer metrics. An in-process QueryServer
// on loopback over a fresh warm restart (1 worker, 3 admitted sessions). Two
// readers run OPEN + NEXT-to-end over a statement pool larger than the plan
// cache, every 4th op an EXECUTE from a small hot set that fits the result
// cache. One writer EXECUTEs cold DEDUPs on fresh DSD slices; each publishes
// links, advances the Link Index epoch (invalidating cached DEDUP answers)
// and appends to the durable link log. All loops are closed. Every answer is
// checked. It reports no end-to-end metric: on the shared 4-vCPU host its
// latencies swung by up to 2x from run to run (see ../README.md).

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>

#include "bench.h"
#include "server/client.h"
#include "server/json.h"
#include "server/query_server.h"

namespace perfbench {

namespace {

constexpr int kReaders = 2;
constexpr std::size_t kPageRows = 256;
// The writer's pause between statements (a closed loop with think time).
constexpr double kWriterPauseMs = 300;

struct ReadSample {
  std::size_t statement;
  std::uint64_t digest;
  double ms;
  double ttfb_ms;
};

struct ReaderResult {
  std::vector<double> next_rtt_us;
  std::vector<ReadSample> samples;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

struct WriteSample {
  std::size_t statement;
  std::uint64_t digest;
  std::uint64_t comparisons;
};

struct WriterResult {
  std::vector<double> latency;
  std::vector<WriteSample> samples;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::string metrics_before, metrics_after;
};

// Frees a page's rows inside the caller's span rather than after it.
template <typename Rows>
void ReleaseRows(Rows* rows) {
  Rows().swap(*rows);
}

void ReaderLoop(queryer::Client* client, const WarmPlan& plan,
                std::uint64_t seed, int reader, Clock::time_point deadline,
                SpanRecorder* spans, ReaderResult* out) {
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const std::uint64_t op = (static_cast<std::uint64_t>(reader + 1) << 40) | i;
    const std::uint64_t draw = Mix(Mix(seed ^ (0x4EADULL + reader)) + i);
    const bool execute = i % 4 == 3;
    const std::size_t index = execute ? plan.hot_set[draw % plan.hot_set.size()]
                                      : plan.open_pool[draw % plan.open_pool.size()];
    const std::string& sql = plan.reads[index].sql;
    ++out->attempted;
    Digest digest;
    double ttfb = 0, ms = 0;
    std::string error;
    {
      ScopedSpan root(spans, "wire.read", op);
      const auto t0 = Clock::now();
      if (execute) {
        auto result = [&] {
          ScopedSpan span(spans, "client.execute", op);
          return client->Execute(sql);
        }();
        if (result.ok()) {
          ScopedSpan span(spans, "bench.digest", op);
          for (const auto& row : result->rows) digest.AddRow(row);
          ReleaseRows(&result->rows);
        } else {
          error = result.status().ToString();
        }
        ttfb = Ms(t0, Clock::now());
      } else {
        auto opened = [&] {
          ScopedSpan span(spans, "client.open", op);
          return client->Open(sql);
        }();
        if (!opened.ok()) {
          error = opened.status().ToString();
        } else {
          bool have_rows = false;
          while (true) {
            const auto n0 = Clock::now();
            auto page = [&] {
              ScopedSpan span(spans, "client.next", op);
              return client->Next(opened->cursor, kPageRows);
            }();
            out->next_rtt_us.push_back(Ms(n0, Clock::now()) * 1e3);
            if (!page.ok()) {
              error = page.status().ToString();
              break;
            }
            bool got_rows = false;
            {
              ScopedSpan span(spans, "bench.digest", op);
              for (const auto& row : page->rows) digest.AddRow(row);
              got_rows = !page->rows.empty();
              ReleaseRows(&page->rows);
            }
            if (!have_rows && (got_rows || page->done)) {
              ttfb = Ms(t0, Clock::now());
              have_rows = true;
            }
            if (page->done) break;
          }
        }
      }
      ms = Ms(t0, Clock::now());
      root.Measured(ms);
    }
    if (!error.empty()) {
      ++out->failed;
      if (out->errors.size() < 5) out->errors.push_back(error + " | " + sql);
      continue;
    }
    out->samples.push_back({index, digest.value(), ms, ttfb});
  }
}

void WriterLoop(queryer::Client* client, const WarmPlan& plan,
                Clock::time_point deadline, SpanRecorder* spans,
                WriterResult* out) {
  for (std::size_t w = 0; w < plan.writes.size() && Clock::now() < deadline; ++w) {
    const std::uint64_t op = (std::uint64_t{9} << 40) | w;
    const std::string& sql = plan.writes[w].sql;
    ++out->attempted;
    double ms = 0;
    auto result = [&] {
      ScopedSpan root(spans, "wire.write", op);
      const auto t0 = Clock::now();
      auto executed = [&] {
        ScopedSpan span(spans, "client.execute", op);
        return client->Execute(sql);
      }();
      ms = Ms(t0, Clock::now());
      root.Measured(ms);
      return executed;
    }();
    if (!result.ok()) {
      ++out->failed;
      if (out->errors.size() < 5) {
        out->errors.push_back(result.status().ToString() + " | " + sql);
      }
    } else {
      Digest digest;
      for (const auto& row : result->rows) digest.AddRow(row);
      out->latency.push_back(ms);
      out->samples.push_back({w, digest.value(), result->comparisons_executed});
    }
    const auto resume = Clock::now() + std::chrono::microseconds(
                                           static_cast<long>(kWriterPauseMs * 1e3));
    std::this_thread::sleep_until(std::min(resume, deadline));
  }
}

// A counter (or a histogram's count / sum) out of a METRICS payload; 0 when
// the instrument does not exist.
double MetricValue(const std::string& json, const std::string& group,
                   const std::string& name, const std::string& field = "") {
  auto parsed = queryer::JsonValue::Parse(json);
  if (!parsed.ok()) return 0;
  const queryer::JsonValue* root = &*parsed;
  if (const queryer::JsonValue* inner = root->Find("metrics")) root = inner;
  const queryer::JsonValue* g = root->Find(group);
  const queryer::JsonValue* v = g == nullptr ? nullptr : g->Find(name);
  if (v != nullptr && !field.empty()) v = v->Find(field);
  return v == nullptr ? 0 : v->number_value();
}

double Delta(const WriterResult& w, const std::string& group,
             const std::string& name, const std::string& field = "") {
  return MetricValue(w.metrics_after, group, name, field) -
         MetricValue(w.metrics_before, group, name, field);
}

double Ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

}  // namespace

void RunWirePhase(const Args& args, const WarmPlan& plan,
                  const References& refs, double seconds, RunRecord* rec,
                  LayerTotals* layers, WirePhase* out) {
  // The server's engine appends to its durable link log, so it runs on a
  // copy; the serial replay afterwards restores the prepared state itself.
  const std::string pristine = args.dir + "/state";
  const std::string state = args.dir + "/live";
  std::filesystem::remove_all(state);
  std::filesystem::copy(pristine, state, std::filesystem::copy_options::recursive);
  for (int c = 0; c <= kReaders + 1; ++c) {
    out->spans.push_back(std::make_unique<SpanRecorder>(true, 10 + c));
  }
  SpanRecorder* setup_spans = out->spans.back().get();

  Restored current;
  std::unique_ptr<queryer::QueryServer> server;
  {
    ScopedSpan root(setup_spans, "setup", 0);
    current = RestoreEngine(state, kWarmTables, 1, kReaders + 1, setup_spans);
    const auto t0 = Clock::now();
    {
      ScopedSpan span(setup_spans, "server.start", 0);
      server = std::make_unique<queryer::QueryServer>(current.engine.get());
      Check(server->Start(), "QueryServer::Start");
    }
    root.Measured(current.total_ms + Ms(t0, Clock::now()));
  }
  queryer::QueryEngine* engine = current.engine.get();

  // Connect the three clients before the clock starts.
  std::vector<queryer::Client> clients;
  for (int c = 0; c <= kReaders; ++c) {
    auto client = queryer::Client::Connect(
        "127.0.0.1", server->port(), c < kReaders ? "reader" + std::to_string(c) : "writer");
    Check(client.status(), "Client::Connect");
    clients.push_back(std::move(*client));
  }
  WriterResult writer;
  {
    auto m = clients[kReaders].Metrics();
    Check(m.status(), "METRICS");
    writer.metrics_before = *m;
  }

  std::vector<ReaderResult> readers(kReaders);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<long>(seconds * 1e6));
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back(ReaderLoop, &clients[r], std::cref(plan), args.seed, r,
                           deadline, out->spans[r].get(), &readers[r]);
    }
    threads.emplace_back(WriterLoop, &clients[kReaders], std::cref(plan), deadline,
                         out->spans[kReaders].get(), &writer);
    for (std::thread& t : threads) t.join();
  }
  rec->Info("wire_measured_s", Ms(start, Clock::now()) / 1e3);
  {
    auto m = clients[kReaders].Metrics();
    Check(m.status(), "METRICS");
    writer.metrics_after = *m;
  }
  for (queryer::Client& c : clients) c.Disconnect();
  server->Stop();

  std::vector<double> next_rtt_us;
  std::vector<ReadSample> samples;
  for (ReaderResult& r : readers) {
    next_rtt_us.insert(next_rtt_us.end(), r.next_rtt_us.begin(), r.next_rtt_us.end());
    samples.insert(samples.end(), r.samples.begin(), r.samples.end());
    rec->attempted += r.attempted;
    rec->failed += r.failed;
    for (const std::string& e : r.errors) rec->Fail("wire read failed: " + e);
  }
  rec->attempted += writer.attempted;
  rec->failed += writer.failed;
  for (const std::string& e : writer.errors) rec->Fail("wire write failed: " + e);

  // Plain answers must equal the reference. A DEDUP read may see clusters
  // grow while the writer links new entities, so it must equal the
  // in-process answer of some state the writer's statements pass through:
  // the serial replay below records those answers.
  SpanRecorder off(false, 0);
  std::map<std::size_t, std::vector<std::uint64_t>> moved;  // Statement -> digests.
  for (const ReadSample& s : samples) {
    const Statement& q = plan.reads[s.statement];
    auto ref = refs.find(q.sql);
    if (ref != refs.end() && ref->second == s.digest) continue;
    if (IsDedup(q)) {
      moved[s.statement].push_back(s.digest);
      continue;
    }
    ++rec->failed;
    rec->Fail("wire answer differs from the in-process answer: " + q.sql);
  }

  std::map<std::string, std::uint64_t> partitions;
  for (const std::string& name : kWarmTables) {
    auto runtime = engine->GetRuntime(name);
    Check(runtime.status(), "GetRuntime " + name);
    partitions[name] = PartitionDigest((*runtime)->link_index());
  }

  // Wire tax: the same plain statements in-process, on the now idle engine.
  std::map<std::size_t, std::vector<double>> wire_ms;
  for (const ReadSample& s : samples) {
    if (!IsDedup(plan.reads[s.statement])) wire_ms[s.statement].push_back(s.ms);
  }
  std::vector<double> tax;
  for (const auto& [index, ms] : wire_ms) {
    std::vector<double> local;
    for (int rep = 0; rep < 3; ++rep) {
      OpResult r = RunQuery(engine, plan.reads[index].sql, &off, 0);
      if (r.ok) local.push_back(r.total_ms);
    }
    if (!local.empty()) tax.push_back(Median(ms) - Median(local));
  }
  server.reset();
  current.engine.reset();

  // The writer's statements replayed serially in-process on a fresh restore
  // of the same snapshots: same answers, same final link set, and after
  // each write the answers of the DEDUP reads the wire saw change.
  {
    const std::string copy = args.dir + "/replay";
    std::filesystem::remove_all(copy);
    std::filesystem::copy(pristine, copy, std::filesystem::copy_options::recursive);
    Restored replay = RestoreEngine(copy, kWarmTables, 1, 1, &off);
    std::map<std::size_t, std::set<std::uint64_t>> states;
    auto record_states = [&] {
      for (const auto& entry : moved) {
        OpResult r = RunQuery(replay.engine.get(), plan.reads[entry.first].sql, &off, 0);
        if (r.ok && r.stats.comparisons_executed == 0) states[entry.first].insert(r.digest);
      }
    };
    record_states();
    for (const WriteSample& s : writer.samples) {
      OpResult r = RunQuery(replay.engine.get(), plan.writes[s.statement].sql, &off, 0);
      if (!r.ok || r.digest != s.digest) {
        ++rec->failed;
        rec->Fail("write answer differs from the serial replay: " +
                  plan.writes[s.statement].sql);
      }
      record_states();
    }
    for (const auto& [statement, digests] : moved) {
      for (std::uint64_t digest : digests) {
        if (states[statement].count(digest) == 0) {
          ++rec->failed;
          rec->Fail("DEDUP answer over the wire matches no state of the serial "
                    "replay: " + plan.reads[statement].sql);
        }
      }
    }
    rec->Info("dedup_reads_changed_by_writes", static_cast<double>(moved.size()));
    for (const std::string& name : kWarmTables) {
      auto runtime = replay.engine->GetRuntime(name);
      Check(runtime.status(), "GetRuntime " + name);
      if (PartitionDigest((*runtime)->link_index()) != partitions[name]) {
        rec->Fail("final link set of " + name + " differs from the serial replay");
      }
    }
  }

  rec->Info("wire_reads", static_cast<double>(samples.size()));
  rec->Info("wire_writes", static_cast<double>(writer.samples.size()));
  layers->next_rtt_us = Median(next_rtt_us);
  layers->wire_tax_ms = Median(tax);
  layers->result_cache_hit_ratio =
      Ratio(Delta(writer, "counters", "queryer_result_cache_hits_total"),
            Delta(writer, "counters", "queryer_result_cache_misses_total"));
  layers->plan_cache_hit_ratio =
      Ratio(Delta(writer, "counters", "queryer_plan_cache_hits_total"),
            Delta(writer, "counters", "queryer_plan_cache_misses_total"));
  layers->result_cache_invalidations =
      Delta(writer, "counters", "queryer_result_cache_invalidated_total");
  layers->write_p50_ms = Median(writer.latency);
  for (const ReadSample& s : samples) out->op_ms += s.ms;
  for (double ms : writer.latency) out->op_ms += ms;
  out->ops = static_cast<double>(samples.size() + writer.latency.size());
}

}  // namespace perfbench
