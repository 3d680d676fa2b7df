// Digests, link quality, spans, statistics and the in-process query op.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "blocking/block_join.h"
#include "blocking/token_blocking.h"
#include "matching/comparison_execution.h"
#include "metablocking/meta_blocking.h"
#include "obs/metrics.h"

namespace perfbench {

using queryer::EntityId;

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

std::uint64_t HashCells(const std::string_view* cells, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, cells separated.
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned char c : cells[i]) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0x1f;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

// --------------------------------------------------------------------------
// Digests and link quality.
// --------------------------------------------------------------------------

void Digest::AddRow(const std::vector<std::string_view>& cells) {
  sum_ += Mix(HashCells(cells.data(), cells.size()));
  ++rows_;
}

void Digest::AddRow(const std::vector<std::string>& cells) {
  std::vector<std::string_view> views(cells.begin(), cells.end());
  AddRow(views);
}

namespace {

// Canonical cluster id of every entity: the smallest member's id.
std::vector<EntityId> CanonicalClusters(const queryer::LinkIndex& li) {
  const std::size_t n = li.num_entities();
  std::vector<EntityId> rep(n);
  std::unordered_map<EntityId, EntityId> smallest;
  for (EntityId e = 0; e < n; ++e) {
    rep[e] = li.Representative(e);
    auto [it, inserted] = smallest.emplace(rep[e], e);
    if (!inserted && e < it->second) it->second = e;
  }
  for (EntityId e = 0; e < n; ++e) rep[e] = smallest[rep[e]];
  return rep;
}

}  // namespace

std::uint64_t PartitionDigest(const queryer::LinkIndex& li) {
  std::vector<EntityId> canon = CanonicalClusters(li);
  std::uint64_t sum = 0;
  for (EntityId e = 0; e < canon.size(); ++e) {
    if (canon[e] != e) sum += Mix((static_cast<std::uint64_t>(e) << 32) ^ canon[e]);
  }
  return sum ^ Mix(canon.size());
}

void MeasureLinks(const queryer::LinkIndex& li,
                  const queryer::datagen::GroundTruth& truth, LinkQuality* out) {
  const std::size_t n = li.num_entities();
  std::vector<EntityId> canon = CanonicalClusters(li);
  std::vector<double> size(n, 0);
  for (EntityId e = 0; e < n; ++e) size[canon[e]] += 1;
  std::vector<char> resolved(n);
  for (EntityId e = 0; e < n; ++e) resolved[e] = li.IsResolved(e) ? 1 : 0;

  // B-cubed, per resolved entity: the share of its Link Index cluster that
  // is truly its duplicate (precision) and of its true cluster that the
  // Link Index put with it (recall).
  for (EntityId e = 0; e < n; ++e) {
    if (!resolved[e]) continue;
    const std::vector<EntityId>& members = truth.ClusterMembers(e);
    double both = 0;
    for (EntityId m : members) both += canon[m] == canon[e] ? 1 : 0;
    out->entities += 1;
    out->precision_sum += both / size[canon[e]];
    out->recall_sum += both / static_cast<double>(members.size());
  }

  // Pairwise counts (diagnostics): pairs inside a cluster with at least one
  // resolved member.
  std::unordered_map<EntityId, std::vector<EntityId>> clusters;
  for (EntityId e = 0; e < n; ++e) {
    if (size[canon[e]] > 1) clusters[canon[e]].push_back(e);
  }
  for (const auto& [id, members] : clusters) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        const EntityId a = members[i], b = members[j];
        if (!resolved[a] && !resolved[b]) continue;
        out->linked_pairs += 1;
        if (truth.AreDuplicates(a, b)) out->true_linked_pairs += 1;
      }
    }
  }
  for (EntityId e = 0; e < n; ++e) {
    const std::vector<EntityId>& members = truth.ClusterMembers(e);
    if (members.empty() || members.front() != e) continue;  // Once per cluster.
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (resolved[members[i]] || resolved[members[j]]) out->true_pairs += 1;
      }
    }
  }
}

void WriteTruth(const queryer::datagen::GroundTruth& truth,
                const std::string& path) {
  std::ofstream out(path);
  for (EntityId e = 0; e < truth.num_entities(); ++e) {
    out << truth.cluster(e) << '\n';
  }
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

queryer::datagen::GroundTruth ReadTruth(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::uint32_t> clusters;
  std::uint32_t c = 0;
  while (in >> c) clusters.push_back(c);
  return queryer::datagen::GroundTruth(std::move(clusters));
}

void WriteReferences(const References& refs, const std::string& path) {
  std::ofstream out(path);
  for (const auto& [sql, digest] : refs) out << digest << '\t' << sql << '\n';
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

References ReadReferences(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(2);
  }
  References refs;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    refs[line.substr(tab + 1)] = std::strtoull(line.c_str(), nullptr, 10);
  }
  return refs;
}

// --------------------------------------------------------------------------
// Spans.
// --------------------------------------------------------------------------

int SpanRecorder::Begin(std::string_view name, std::uint64_t op) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double CheckSelfTimes(const std::vector<const SpanRecorder*>& recorders,
                      std::size_t* ops, double* worst) {
  double gap_sum = 0, measured_sum = 0;
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    // Self time: duration minus the part of the interval the children
    // cover (children are sequential on one thread, so clipping suffices).
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      const Span& p = spans[s.parent];
      const std::int64_t lo = std::max(s.start_ns, p.start_ns);
      const std::int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) self[s.parent] -= static_cast<double>(hi - lo);
    }
    // Sum the self times below each root (the root's own self time is the
    // time no span accounts for, so it stays out).
    std::vector<double> covered(spans.size(), 0);
    std::vector<int> root(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0) {
        root[i] = static_cast<int>(i);
        continue;
      }
      root[i] = root[spans[i].parent];
      covered[root[i]] += self[i];
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0 || spans[i].measured_ms <= 0) continue;
      const double measured_ns = spans[i].measured_ms * 1e6;
      const double gap = std::fabs(measured_ns - covered[i]);
      gap_sum += gap;
      measured_sum += measured_ns;
      *worst = std::max(*worst, gap / measured_ns);
      ++*ops;
    }
  }
  return measured_sum > 0 ? gap_sum / measured_sum : 0;
}

bool WriteChromeTrace(const std::vector<const SpanRecorder*>& recorders,
                      const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanRecorder* rec : recorders) {
    for (const Span& s : rec->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::string name;
      AppendEscaped(s.name, &name);
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"span\":%zu,\"parent\":%d}}",
                   first ? "" : ",\n", name.c_str(), rec->tid(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.op), i, s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

double SpanCostNs() {
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    SpanRecorder rec(true, 0);
    constexpr int kSpans = 20000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      ScopedSpan span(&rec, "cursor.next", static_cast<std::uint64_t>(i));
    }
    best = std::min(best, Ms(t0, Clock::now()) * 1e6 / kSpans);
  }
  return best;
}

// --------------------------------------------------------------------------
// Statistics and the result record.
// --------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double TailPercentile(std::size_t n, double q) {
  for (double rung : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (rung <= q && static_cast<double>(n) * (1 - rung) >= 10) return rung;
  }
  return 0.5;
}

void RunRecord::Fail(const std::string& what) {
  correct = false;
  if (failures.size() < 20) failures.push_back(what);
}

void RunRecord::Info(const std::string& key, double value) {
  info.emplace_back(key, FormatNumber(value));
}

std::string RunRecord::ToJson() const {
  std::string out = "{\"correct\":";
  out += correct && failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           FormatNumber(std::isfinite(metrics[i].value) ? metrics[i].value : 0) +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "},\"info\":{";
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    AppendEscaped(info[i].first, &out);
    out += "\":\"";
    AppendEscaped(info[i].second, &out);
    out += "\"";
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    AppendEscaped(failures[i], &out);
    out += "\"";
  }
  out += "]}";
  return out;
}

LatencySummary Summarize(const std::vector<Timing>& timings, double wall_s,
                         double tail_q) {
  std::vector<double> ms, ttfb;
  for (const Timing& t : timings) {
    ms.push_back(t.ms);
    ttfb.push_back(t.ttfb_ms);
  }
  LatencySummary s;
  s.samples = timings.size();
  s.tail_q = TailPercentile(s.samples, tail_q);
  s.p50_ms = Median(ms);
  s.tail_ms = Quantile(ms, s.tail_q);
  s.ttfb_p50_ms = Median(ttfb);
  s.per_s = wall_s > 0 ? static_cast<double>(s.samples) / wall_s : 0;
  return s;
}

void AddLatencyMetrics(RunRecord* rec, const LatencySummary& s) {
  rec->Add("query_p50_ms", s.p50_ms, "ms");
  rec->Add("query_tail_ms", s.tail_ms, "ms");
  rec->Add("ttfb_p50_ms", s.ttfb_p50_ms, "ms");
  rec->Add("queries_per_s", s.per_s, "1/s");
  rec->Info("query_tail_percentile", s.tail_q * 100);
  rec->Info("query_samples", static_cast<double>(s.samples));
}

void AddOutcomeMetrics(RunRecord* rec, const LinkQuality& links, double setup_s,
                       double peak_rss_mb) {
  const double entities = links.entities > 0 ? links.entities : 1;
  rec->Add("setup_s", setup_s, "s");
  rec->Add("link_precision", links.precision_sum / entities, "ratio");
  rec->Add("link_recall", links.recall_sum / entities, "ratio");
  rec->Add("success_rate",
           rec->attempted > 0 ? static_cast<double>(rec->attempted - rec->failed) /
                                    static_cast<double>(rec->attempted)
                              : 0,
           "ratio");
  rec->Add("peak_rss_mb", peak_rss_mb, "MiB");
  rec->Info("resolved_entities", links.entities);
  rec->Info("pairwise_precision", links.linked_pairs > 0
                                      ? links.true_linked_pairs / links.linked_pairs
                                      : 0);
  rec->Info("pairwise_recall",
            links.true_pairs > 0 ? links.true_linked_pairs / links.true_pairs : 0);
}

void OpTotals::Add(const OpResult& r) {
  ops += 1;
  prepare_us.push_back(r.prepare_ms * 1e3);
  open_ms.push_back(r.open_ms);
  relational_ms += r.stats.relational_seconds() * 1e3;
  group_ms += r.stats.group_seconds * 1e3;
  drain_ms += r.drain_ms;
  unattributed_ms += r.stats.other_seconds() * 1e3;
  morsels += static_cast<double>(r.stats.morsels_scanned + r.stats.probe_morsels);
}

void AddLayerMetrics(RunRecord* rec, const LayerTotals& t) {
  const double n = t.ops.ops > 0 ? t.ops.ops : 1;
  rec->Add("storage.register_ms", t.register_ms, "ms");
  rec->Add("storage.tbi_bytes", t.tbi_bytes, "bytes");
  rec->Add("blocking.tbi_build_ms", t.tbi_build_ms, "ms");
  AddFunnelMetrics(rec, t.funnel);
  rec->Add("matching.comparisons_per_query",
           t.resolving_statements > 0 ? t.comparisons / t.resolving_statements : 0,
           "count");
  rec->Add("parallel.morsels_per_query", t.ops.morsels / n, "count");
  rec->Add("planner.prepare_us", Median(t.ops.prepare_us), "us");
  rec->Add("engine.open_wait_ms", Median(t.ops.open_ms), "ms");
  rec->Add("exec.relational_ms", t.ops.relational_ms / n, "ms");
  rec->Add("exec.group_ms", t.ops.group_ms / n, "ms");
  rec->Add("exec.drain_ms", t.ops.drain_ms / n, "ms");
  rec->Add("exec.unattributed_ms", t.ops.unattributed_ms / n, "ms");
  const double entities = t.li_hits + t.li_misses;
  rec->Add("link_index.served_fraction", entities > 0 ? t.li_hits / entities : 0,
           "ratio");
  rec->Add("persist.restore_ms", t.restore_ms, "ms");
  rec->Add("server.next_rtt_us", t.next_rtt_us, "us");
  rec->Add("server.wire_tax_ms", t.wire_tax_ms, "ms");
  rec->Add("server.result_cache_hit_ratio", t.result_cache_hit_ratio, "ratio");
  rec->Add("server.plan_cache_hit_ratio", t.plan_cache_hit_ratio, "ratio");
  rec->Add("server.result_cache_invalidations", t.result_cache_invalidations,
           "count");
  rec->Add("server.write_p50_ms", t.write_p50_ms, "ms");
  rec->Add("trace.overhead_fraction", t.trace_overhead, "ratio");
  rec->Add("trace.self_time_error", t.self_time_err, "ratio");
}

double LinkIndexHits() {
  return static_cast<double>(
      queryer::GlobalEngineMetrics().link_index_hits->Value());
}

double LinkIndexMisses() {
  return static_cast<double>(
      queryer::GlobalEngineMetrics().link_index_misses->Value());
}

double TbiBytes(queryer::QueryEngine* engine,
                const std::vector<std::string>& tables) {
  double bytes = 0;
  for (const std::string& name : tables) {
    auto runtime = engine->GetRuntime(name);
    if (runtime.ok()) bytes += static_cast<double>((*runtime)->tbi().MemoryFootprint());
  }
  return bytes;
}

void FinishTrace(const Args& args, const std::vector<const SpanRecorder*>& recs,
                 double op_ms_total, double op_count, RunRecord* rec,
                 LayerTotals* t) {
  // Clock reads and loop bookkeeping between spans stay far below this;
  // work done outside every span (a layer call or benchmark work left
  // unwrapped) does not.
  constexpr double kTolerance = 0.01;
  std::size_t checked = 0, spans = 0;
  double worst = 0;
  t->self_time_err = CheckSelfTimes(recs, &checked, &worst);
  for (const SpanRecorder* r : recs) spans += r->spans().size();
  if (checked == 0) rec->Fail("no measured op to check self times against");
  if (t->self_time_err > kTolerance) {
    rec->Fail("span self times miss " + std::to_string(t->self_time_err * 100) +
              "% of the measured op latency (tolerance 1%)");
  }
  rec->Info("self_time_ops", static_cast<double>(checked));
  rec->Info("self_time_worst_op", worst);
  // Overhead of the span recorder itself, per op, against the op's wall time.
  const double span_ns = SpanCostNs();
  if (op_count > 0 && op_ms_total > 0) {
    const double spans_per_op = static_cast<double>(spans) / op_count;
    t->trace_overhead = spans_per_op * span_ns * 1e-6 / (op_ms_total / op_count);
  }
  rec->Info("span_cost_ns", span_ns);
  rec->Info("spans", static_cast<double>(spans));
  rec->Info("self_time_tolerance", kTolerance);
  if (!args.trace_out.empty()) {
    if (!WriteChromeTrace(recs, args.trace_out)) {
      rec->Fail("cannot write span file " + args.trace_out);
    }
    rec->Info("span_file", args.trace_out);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double CalibrationMs() {
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 1;
    for (int i = 0; i < 20000000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    sink = x;
    (void)sink;
    best = std::min(best, Ms(t0, Clock::now()));
  }
  return best;
}

// --------------------------------------------------------------------------
// Engine helpers.
// --------------------------------------------------------------------------

void Check(const queryer::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(2);
}

queryer::EngineOptions BaseOptions(std::size_t threads,
                                   std::size_t max_concurrent) {
  queryer::EngineOptions options;
  options.num_threads = threads;
  options.max_concurrent_queries = max_concurrent;
  return options;
}

OpResult RunQuery(queryer::QueryEngine* engine, const std::string& sql,
                  SpanRecorder* rec, std::uint64_t op) {
  OpResult r;
  ScopedSpan op_span(rec, "query", op);
  const auto t0 = Clock::now();
  queryer::Result<queryer::PreparedQuery> prepared = [&] {
    ScopedSpan span(rec, "engine.prepare", op);
    return engine->Prepare(sql);
  }();
  const auto t1 = Clock::now();
  r.prepare_ms = Ms(t0, t1);
  if (!prepared.ok()) {
    r.error = prepared.status().ToString();
    return r;
  }
  queryer::Result<queryer::CursorPtr> opened = [&] {
    ScopedSpan span(rec, "engine.open", op);
    return (*prepared).Open();
  }();
  const auto t2 = Clock::now();
  r.open_ms = Ms(t1, t2);
  if (!opened.ok()) {
    r.error = opened.status().ToString();
    return r;
  }
  queryer::QueryCursor& cursor = **opened;
  const std::size_t width = cursor.columns().size();
  std::vector<std::string_view> cells(width);
  queryer::RowBatch batch(cursor.batch_size());
  Digest digest;
  bool first = true;
  bool have_rows = false;
  while (true) {
    const auto n0 = Clock::now();
    queryer::Result<bool> has = [&] {
      ScopedSpan span(rec, "cursor.next", op);
      return cursor.Next(&batch);
    }();
    const auto n1 = Clock::now();
    if (!first) r.drain_ms += Ms(n0, n1);
    first = false;
    if (!has.ok()) {
      r.error = has.status().ToString();
      break;
    }
    if (!*has) break;
    {
      ScopedSpan span(rec, "bench.digest", op);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        for (std::size_t c = 0; c < width; ++c) cells[c] = batch.value(i, c);
        digest.AddRow(cells);
      }
    }
    if (!have_rows && batch.size() > 0) {
      r.ttfb_ms = Ms(t0, Clock::now());
      have_rows = true;
    }
  }
  {
    ScopedSpan span(rec, "cursor.close", op);
    cursor.Close();
  }
  r.total_ms = Ms(t0, Clock::now());
  op_span.Measured(r.total_ms);
  if (!have_rows) r.ttfb_ms = r.total_ms;
  r.stats = cursor.stats();
  r.stats.collected_comparisons.clear();
  r.digest = digest.value();
  r.rows = digest.rows();
  r.ok = r.error.empty();
  return r;
}

std::vector<EntityId> SliceEntities(const queryer::Table& table, int modulus,
                                    int slice) {
  std::vector<EntityId> ids;
  for (EntityId e = slice; e < table.num_rows(); e += modulus) ids.push_back(e);
  return ids;
}

void ReplayFunnel(queryer::TableRuntime* runtime,
                  const std::vector<EntityId>& selection,
                  queryer::ThreadPool* pool, SpanRecorder* rec,
                  std::uint64_t op, FunnelTotals* f) {
  const queryer::LinkIndex& li = runtime->link_index();
  std::vector<EntityId> unresolved;
  for (EntityId e : selection) {
    if (!li.IsResolved(e)) unresolved.push_back(e);
  }
  if (unresolved.empty()) return;
  ScopedSpan root(rec, "replay", op);
  const queryer::Table& table = runtime->table();
  const auto t0 = Clock::now();
  queryer::BlockCollection blocks;
  {
    ScopedSpan span(rec, "blocking.qbi_build", op);
    queryer::QueryBlockIndex qbi = queryer::QueryBlockIndex::Build(
        table, unresolved, runtime->blocking_options());
    ScopedSpan join(rec, "blocking.block_join", op);
    blocks = queryer::BlockJoin(qbi, runtime->tbi());
  }
  const auto t1 = Clock::now();
  f->blocks += static_cast<double>(blocks.size());
  queryer::MetaBlockingResult mb;
  {
    ScopedSpan span(rec, "metablocking.run", op);
    mb = queryer::RunMetaBlocking(std::move(blocks),
                                  runtime->meta_blocking_config(), pool);
  }
  const auto t2 = Clock::now();
  queryer::Result<queryer::StagedComparisons> serial = [&] {
    ScopedSpan span(rec, "matching.evaluate", op);
    return queryer::EvaluateComparisons(table, mb.comparisons,
                                        runtime->matching_config(), li,
                                        &runtime->attribute_weights());
  }();
  const auto t3 = Clock::now();
  f->queries += 1;
  f->blocking_ms += Ms(t0, t1);
  f->metablocking_ms += Ms(t1, t2);
  f->pairs_before_pruning += static_cast<double>(mb.comparisons_before_pruning);
  f->pairs_after += static_cast<double>(mb.comparisons.size());
  if (serial.ok()) {
    f->eval_serial_ms += Ms(t2, t3);
    f->executed += static_cast<double>(serial->executed);
    f->matched += static_cast<double>(serial->matched.size());
  }
  if (pool != nullptr && pool->num_threads() > 1) {
    const auto t4 = Clock::now();
    queryer::Result<queryer::StagedComparisons> parallel = [&] {
      ScopedSpan span(rec, "parallel.evaluate", op);
      return queryer::EvaluateComparisons(table, mb.comparisons,
                                          runtime->matching_config(), li,
                                          &runtime->attribute_weights(), pool);
    }();
    if (parallel.ok()) f->eval_pool_ms += Ms(t4, Clock::now());
  }
}

void AddFunnelMetrics(RunRecord* rec, const FunnelTotals& f) {
  const double q = f.queries > 0 ? f.queries : 1;
  rec->Add("blocking.query_ms", f.blocking_ms / q, "ms");
  rec->Add("blocking.blocks_per_query", f.blocks / q, "count");
  rec->Add("metablocking.ms_per_query", f.metablocking_ms / q, "ms");
  rec->Add("metablocking.pairs_before_pruning", f.pairs_before_pruning / q,
           "count");
  rec->Add("metablocking.pairs_after", f.pairs_after / q, "count");
  rec->Add("matching.us_per_comparison",
           f.executed > 0 ? f.eval_serial_ms * 1e3 / f.executed : 0, "us");
  rec->Add("matching.match_rate", f.executed > 0 ? f.matched / f.executed : 0,
           "ratio");
  rec->Add("parallel.comparison_speedup",
           f.eval_pool_ms > 0 ? f.eval_serial_ms / f.eval_pool_ms : 0, "x");
  rec->Info("replayed_queries", f.queries);
}

int Finish(RunRecord* rec) {
  if (rec->failed > 0) rec->correct = false;
  std::fflush(stderr);
  std::printf("%s\n", rec->ToJson().c_str());
  std::fflush(stdout);
  return rec->correct ? 0 : 1;
}

}  // namespace perfbench
