// cold_dedup: the paper's cost. One in-process client interleaves DSD
// DEDUP selections and PPL ⋈ OAO DEDUP-joins (two to one) over fresh 0.5%
// slices on an engine with 2 workers and one admitted query at a time. The epoch (the
// seeded query sequence) runs on a freshly ingested engine each time, so
// every epoch does identical work and each one adds a set-up sample.

#include "bench.h"

namespace perfbench {

namespace {

const std::vector<std::string> kTables = {"dsd", "ppl", "oao"};

struct Setup {
  std::unique_ptr<queryer::QueryEngine> engine;
  double total_ms = 0;
  double register_ms = 0;
  double warm_ms = 0;
};

// Engine construction -> RegisterCsvFile per table -> WarmIndices per table.
Setup SetUp(const Args& args, SpanRecorder* spans) {
  ScopedSpan root(spans, "setup", 0);
  Setup s;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(spans, "engine.construct", 0);
    s.engine = std::make_unique<queryer::QueryEngine>(BaseOptions(2, 1));
  }
  for (const std::string& name : kTables) {
    ScopedSpan span(spans, "storage.register_csv", 0);
    const auto t = Clock::now();
    Check(s.engine->RegisterCsvFile(args.dir + "/" + name + ".csv", name),
          "RegisterCsvFile " + name);
    s.register_ms += Ms(t, Clock::now());
  }
  for (const std::string& name : kTables) {
    ScopedSpan span(spans, "blocking.warm_indices", 0);
    const auto t = Clock::now();
    Check(s.engine->WarmIndices(name), "WarmIndices " + name);
    s.warm_ms += Ms(t, Clock::now());
  }
  s.total_ms = Ms(t0, Clock::now());
  root.Measured(s.total_ms);
  return s;
}

// Set-ups before the measured phase and after it (each later epoch adds
// one more), so that one slow spell of the host cannot cover every sample
// and the median of them is not one short span.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;

}  // namespace

int RunColdDedup(const Args& args) {
  RunRecord rec;
  rec.Info("workload", "cold_dedup");
  rec.Info("calibration_start_ms", CalibrationMs());
  const ColdPlan plan = MakeColdPlan(args.seed);
  const References refs = ReadReferences(args.dir + "/reference.tsv");
  std::vector<queryer::datagen::GroundTruth> truth;
  for (const std::string& name : kTables) {
    truth.push_back(ReadTruth(args.dir + "/" + name + ".truth"));
  }
  SpanRecorder spans(args.trace, 0);
  LayerTotals layers;

  std::vector<double> setup_ms, register_ms, warm_ms;
  Setup current;
  auto take_setup = [&](Setup s) {
    setup_ms.push_back(s.total_ms);
    register_ms.push_back(s.register_ms);
    warm_ms.push_back(s.warm_ms);
    current = std::move(s);
  };
  for (int i = 0; i < kSetupsBefore; ++i) {
    current.engine.reset();
    take_setup(SetUp(args, &spans));
  }
  layers.tbi_bytes = TbiBytes(current.engine.get(), kTables);

  std::vector<Timing> timings;
  std::vector<std::size_t> comparisons(plan.queries.size());
  LinkQuality links;
  double query_ms = 0;
  std::uint64_t op = 0;
  const double hits0 = LinkIndexHits(), misses0 = LinkIndexMisses();
  const auto start = Clock::now();
  double last_epoch_s = 0, epochs_s = 0;
  int epochs = 0;
  while (true) {
    if (epochs > 0) {
      const double elapsed = Ms(start, Clock::now()) / 1e3;
      if (elapsed + last_epoch_s > args.seconds) break;
      current.engine.reset();
      take_setup(SetUp(args, &spans));
    }
    queryer::QueryEngine* engine = current.engine.get();
    const auto epoch_start = Clock::now();
    for (std::size_t i = 0; i < plan.queries.size(); ++i) {
      const Statement& q = plan.queries[i];
      ++op;
      if (args.trace) {
        // The funnel of the selection side, replayed read-only before the
        // query and outside its timer.
        const std::string table = q.kind == "dsd_sp" ? "dsd" : "ppl";
        auto runtime = engine->GetRuntime(table);
        Check(runtime.status(), "GetRuntime " + table);
        ReplayFunnel(runtime->get(),
                     SliceEntities((*runtime)->table(), 200, plan.slices[i]),
                     engine->thread_pool(), &spans, op, &layers.funnel);
      }
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
      if (epochs == 0) {
        comparisons[i] = r.stats.comparisons_executed;
      } else if (comparisons[i] != r.stats.comparisons_executed) {
        rec.Fail("comparisons_executed did not repeat across epochs: " + q.sql);
      }
      timings.push_back({r.total_ms, r.ttfb_ms});
      query_ms += r.total_ms;
      layers.ops.Add(r);
      layers.resolving_statements += 1;
      layers.comparisons += static_cast<double>(r.stats.comparisons_executed);
    }
    last_epoch_s = Ms(epoch_start, Clock::now()) / 1e3;
    epochs_s += last_epoch_s;
    // The epoch's final link set must equal the reference's, table by table.
    for (std::size_t t = 0; t < kTables.size(); ++t) {
      auto runtime = engine->GetRuntime(kTables[t]);
      Check(runtime.status(), "GetRuntime");
      const queryer::LinkIndex& li = (*runtime)->link_index();
      auto ref = refs.find("#links " + kTables[t]);
      if (ref == refs.end() || ref->second != PartitionDigest(li)) {
        rec.Fail("link set of " + kTables[t] + " differs from the reference");
      }
      if (epochs == 0) MeasureLinks(li, truth[t], &links);
    }
    ++epochs;
  }
  layers.li_hits = LinkIndexHits() - hits0;
  layers.li_misses = LinkIndexMisses() - misses0;
  const double executed_ops = static_cast<double>(timings.size());
  const double peak_rss = PeakRssMb();
  for (int i = 0; i < kSetupsAfter; ++i) {
    current.engine.reset();
    take_setup(SetUp(args, &spans));
  }

  rec.Info("epochs", epochs);
  rec.Info("queries_per_epoch", static_cast<double>(plan.queries.size()));
  rec.Info("setup_samples", static_cast<double>(setup_ms.size()));
  rec.Info("rows_dsd", kDsdRows);
  rec.Info("rows_ppl", kPplRows);
  rec.Info("rows_oao", kOaoRows);
  if (args.trace) {
    layers.register_ms = Median(register_ms);
    layers.tbi_build_ms = Median(warm_ms);
    FinishTrace(args, {&spans}, query_ms, executed_ops, &rec, &layers);
    AddLayerMetrics(&rec, layers);
  } else {
    AddOutcomeMetrics(&rec, links, Median(setup_ms) / 1e3, peak_rss);
    // The measured phase is the epochs' query loops; the set-ups between
    // epochs are not query ops. Three or more 48-query epochs give 144+
    // samples, which keep 10 beyond p90.
    AddLatencyMetrics(&rec, Summarize(timings, epochs_s, 0.90));
  }
  rec.Info("comparisons_per_query",
           layers.resolving_statements > 0
               ? layers.comparisons / layers.resolving_statements
               : 0);
  rec.Info("calibration_end_ms", CalibrationMs());
  return Finish(&rec);
}

}  // namespace perfbench
