// warm_read: a warm restart (RegisterTableFromSnapshots of DSD, OAGP and
// OAGV plus their durable Link Index) serving a seeded fixed mix of DEDUP
// SP/SPJ reads over the resolved working set and plain SP/SPJ reads over
// OAGP ⋈ OAGV. One in-process client, sequential engine. Matching is
// bypassed: every DEDUP read must be served by the Link Index with zero
// comparisons. The traced run adds the wire phase (wire_phase.cc) for the
// server layer's per-layer metrics.

#include "bench.h"

namespace perfbench {

const std::vector<std::string> kWarmTables = {"dsd", "oagp", "oagv"};

Restored RestoreEngine(const std::string& state_dir,
                       const std::vector<std::string>& tables,
                       std::size_t threads, std::size_t max_concurrent,
                       SpanRecorder* spans) {
  Restored s;
  const auto t0 = Clock::now();
  queryer::EngineOptions options = BaseOptions(threads, max_concurrent);
  options.data_dir = state_dir;
  {
    ScopedSpan span(spans, "engine.construct", 0);
    s.engine = std::make_unique<queryer::QueryEngine>(options);
  }
  for (const std::string& name : tables) {
    ScopedSpan span(spans, "persist.restore", 0);
    const auto t = Clock::now();
    Check(s.engine->RegisterTableFromSnapshots(name),
          "RegisterTableFromSnapshots " + name);
    s.restore_ms += Ms(t, Clock::now());
  }
  for (const std::string& name : tables) {
    ScopedSpan span(spans, "blocking.warm_indices", 0);
    const auto t = Clock::now();
    Check(s.engine->WarmIndices(name), "WarmIndices " + name);
    s.warm_ms += Ms(t, Clock::now());
  }
  s.total_ms = Ms(t0, Clock::now());
  return s;
}

namespace {

// Set-ups before the measured phase and after it, so that one slow spell of
// the host cannot cover every sample and the median of them is not one
// short span.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;

// Sequential execution. With 2 workers the same reads ran up to 65% slower
// from one run to the next on a 4-vCPU host shared with other load (a scan
// waits for its slowest morsel's worker to be scheduled), and throughput was
// lower than with one. Morsel parallelism is measured on cold_dedup.
constexpr std::size_t kWorkers = 1;

// The i-th op of the seeded mix: a class by weight, then a statement of it.
std::size_t DrawRead(const WarmPlan& plan, std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t draw = Mix(Mix(seed ^ 0x5EEDULL) + i);
  double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
  std::size_t cls = 0;
  while (cls + 1 < plan.mix_weights.size() && u >= plan.mix_weights[cls]) {
    u -= plan.mix_weights[cls];
    ++cls;
  }
  const std::vector<std::size_t>& members = plan.mix_classes[cls];
  return members[Mix(draw) % members.size()];
}

}  // namespace

int RunWarmRead(const Args& args) {
  RunRecord rec;
  rec.Info("workload", "warm_read");
  rec.Info("calibration_start_ms", CalibrationMs());
  const WarmPlan plan = MakeWarmPlan(args.seed);
  const References refs = ReadReferences(args.dir + "/reference.tsv");
  SpanRecorder spans(args.trace, 0);
  LayerTotals layers;

  std::vector<double> setup_ms, restore_ms, warm_ms;
  Restored current;
  auto set_up = [&] {
    current.engine.reset();
    ScopedSpan root(&spans, "setup", 0);
    current = RestoreEngine(args.dir + "/state", kWarmTables, kWorkers, 1, &spans);
    root.Measured(current.total_ms);
    setup_ms.push_back(current.total_ms);
    restore_ms.push_back(current.restore_ms);
    warm_ms.push_back(current.warm_ms);
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up();
  queryer::QueryEngine* engine = current.engine.get();
  layers.tbi_bytes = TbiBytes(engine, kWarmTables);

  std::vector<Timing> timings;
  std::map<std::string, std::vector<double>> by_kind;
  double query_ms = 0;
  const double hits0 = LinkIndexHits(), misses0 = LinkIndexMisses();
  const auto start = Clock::now();
  double wall_s = 0;
  for (std::uint64_t op = 1;; ++op) {
    wall_s = Ms(start, Clock::now()) / 1e3;
    if (wall_s >= args.seconds) break;
    const Statement& q = plan.reads[DrawRead(plan, args.seed, op)];
    OpResult r = RunQuery(engine, q.sql, &spans, op);
    ++rec.attempted;
    if (!r.ok) {
      ++rec.failed;
      rec.Fail("query failed: " + r.error + " | " + q.sql);
      continue;
    }
    auto ref = refs.find(q.sql);
    if (ref == refs.end() || ref->second != r.digest) {
      ++rec.failed;
      rec.Fail("answer differs from the in-process reference: " + q.sql);
      continue;
    }
    if (IsDedup(q)) {
      if (r.stats.comparisons_executed != 0 ||
          r.stats.entities_already_resolved != r.stats.query_entities) {
        ++rec.failed;
        rec.Fail("warm DEDUP read was not served by the Link Index: " + q.sql);
        continue;
      }
      layers.resolving_statements += 1;
    }
    timings.push_back({r.total_ms, r.ttfb_ms});
    by_kind[q.kind].push_back(r.total_ms);
    query_ms += r.total_ms;
    layers.ops.Add(r);
  }
  layers.li_hits = LinkIndexHits() - hits0;
  layers.li_misses = LinkIndexMisses() - misses0;
  if (layers.li_misses != 0) rec.Fail("warm_read resolved entities afresh");

  LinkQuality links;
  for (const std::string& name : kWarmTables) {
    auto runtime = engine->GetRuntime(name);
    Check(runtime.status(), "GetRuntime " + name);
    MeasureLinks((*runtime)->link_index(), ReadTruth(args.dir + "/" + name + ".truth"),
               &links);
  }
  const double peak_rss = PeakRssMb();
  for (int i = 0; i < kSetupsAfter; ++i) set_up();
  const double executed_ops = static_cast<double>(timings.size());
  for (const auto& [kind, ms] : by_kind) rec.Info("p50_ms_" + kind, Median(ms));
  rec.Info("setup_samples", static_cast<double>(setup_ms.size()));
  rec.Info("rows_dsd", kDsdRows);
  rec.Info("rows_oagp", kOagpRows);
  rec.Info("rows_oagv", kOagvRows);
  if (args.trace) {
    layers.register_ms = Median(restore_ms);
    layers.restore_ms = Median(restore_ms);
    layers.tbi_build_ms = Median(warm_ms);
    WirePhase wire;
    RunWirePhase(args, plan, refs, args.seconds / 4, &rec, &layers, &wire);
    std::vector<const SpanRecorder*> recs = {&spans};
    for (const auto& r : wire.spans) recs.push_back(r.get());
    FinishTrace(args, recs, query_ms + wire.op_ms, executed_ops + wire.ops, &rec,
                &layers);
    AddLayerMetrics(&rec, layers);
  } else {
    AddOutcomeMetrics(&rec, links, Median(setup_ms) / 1e3, peak_rss);
    AddLatencyMetrics(&rec, Summarize(timings, wall_s, 0.99));
  }
  rec.Info("calibration_end_ms", CalibrationMs());
  return Finish(&rec);
}

}  // namespace perfbench
