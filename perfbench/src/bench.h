// Shared pieces of the bench of record: workload inputs, the in-memory span
// recorder, answer digests, latency statistics and the result record each
// workload fills in. See ../README.md for the workloads and the metrics.
#ifndef QUERYER_PERFBENCH_BENCH_H_
#define QUERYER_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/ground_truth.h"
#include "engine/query_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Command-line arguments of one process (prepare or run).
struct Args {
  std::string mode;      // "prepare" | "run"
  std::string workload;  // cold_dedup | warm_read
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;        // Per-run scratch directory (inputs + state).
  std::string trace_out;  // Chrome trace JSON file (trace runs only).
};

// Table sizes. Cold DEDUP cost grows about quadratically with rows, so the
// cold tables stay near the sizes the workload descriptions quote.
inline constexpr std::size_t kDsdRows = 3344;
inline constexpr std::size_t kPplRows = 5000;
inline constexpr std::size_t kOaoRows = 2773;
inline constexpr std::size_t kOagpRows = 50000;
inline constexpr std::size_t kOagvRows = 6500;

/// Deterministic 64-bit mixer (splitmix64 finalizer).
std::uint64_t Mix(std::uint64_t x);

// ---------------------------------------------------------------------------
// Workload inputs. Everything here is a pure function of the seed, so the
// preparation process and the run process agree without passing state.
// ---------------------------------------------------------------------------

/// One statement of a workload with the class it was drawn from.
struct Statement {
  std::string sql;
  std::string kind;
};

/// True for the DEDUP read classes of WarmPlan.
inline bool IsDedup(const Statement& s) { return s.kind.rfind("dedup", 0) == 0; }

/// The cold_dedup epoch: DSD selections and PPL ⋈ OAO DEDUP-joins,
/// interleaved two to one, over disjoint 0.5% slices.
struct ColdPlan {
  std::vector<Statement> queries;
  /// Slice number (MOD(id, 200) = slice) of each query's selection side.
  std::vector<int> slices;
};
ColdPlan MakeColdPlan(std::uint64_t seed);

/// Statements of the warm_read workload and of its traced wire phase (both
/// read the same restored state).
struct WarmPlan {
  std::vector<Statement> resolve;  // DEDUP statements the preparation runs.
  std::vector<Statement> reads;    // Every read statement (digest-checked).
  // warm_read: the weighted in-process mix, as indices into `reads`.
  std::vector<std::vector<std::size_t>> mix_classes;
  std::vector<double> mix_weights;
  // Wire phase: OPEN pool (> plan cache capacity) and EXECUTE hot set.
  std::vector<std::size_t> open_pool;
  std::vector<std::size_t> hot_set;
  // Wire phase: the writer's cold DEDUPs on fresh DSD slices, in order.
  std::vector<Statement> writes;
  std::vector<int> write_slices;  // MOD(dsd.id, 400) of each write.
};
WarmPlan MakeWarmPlan(std::uint64_t seed);

/// Generated tables of a workload, with ground truth.
struct Datasets {
  std::vector<queryer::datagen::GeneratedDataset> tables;
};
Datasets MakeDatasets(const std::string& workload, std::uint64_t seed);

/// The preparation step: writes the inputs (CSV files or snapshots + the
/// durable Link Index), ground truth and reference digests under args.dir.
int Prepare(const Args& args);

// ---------------------------------------------------------------------------
// Digests and link quality.
// ---------------------------------------------------------------------------

/// Order-independent digest of a multiset of rows.
class Digest {
 public:
  void AddRow(const std::vector<std::string_view>& cells);
  void AddRow(const std::vector<std::string>& cells);
  std::uint64_t value() const { return sum_ ^ Mix(rows_ + 0x9e37); }
  std::uint64_t rows() const { return rows_; }

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t rows_ = 0;
};

/// Digest of a Link Index's clustering (independent of union order).
std::uint64_t PartitionDigest(const queryer::LinkIndex& li);

/// The Link Index against the ground truth over the entities it marks
/// resolved: B-cubed sums (divide by `entities`), plus pairwise counts over
/// pairs with a resolved member. Pairwise precision is dominated
/// quadratically by the largest clusters, which moved it by ±20% between
/// seeds on warm_read; the entity-level B-cubed form moved by ±5%.
struct LinkQuality {
  double entities = 0;
  double precision_sum = 0;
  double recall_sum = 0;
  double linked_pairs = 0;
  double true_linked_pairs = 0;
  double true_pairs = 0;
};
void MeasureLinks(const queryer::LinkIndex& li,
                  const queryer::datagen::GroundTruth& truth, LinkQuality* out);

void WriteTruth(const queryer::datagen::GroundTruth& truth,
                const std::string& path);
queryer::datagen::GroundTruth ReadTruth(const std::string& path);

/// Reference answers: statement text -> digest, one "digest<TAB>sql" line
/// each.
using References = std::map<std::string, std::uint64_t>;
void WriteReferences(const References& refs, const std::string& path);
References ReadReferences(const std::string& path);

// ---------------------------------------------------------------------------
// Spans. Recorded in memory by the benchmark around its calls into the
// engine; written out as Chrome trace JSON at the end of a traced run.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // Index into the same recorder, -1 for a root.
  std::uint64_t op = 0;
  /// An op root's latency as the workload clocked it (ms); < 0 elsewhere.
  double measured_ms = -1;
};

/// One recorder per client thread. Disabled recorders cost one branch.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}
  bool enabled() const { return enabled_; }
  int tid() const { return tid_; }
  /// Opens a span under the innermost open span; returns its index.
  int Begin(std::string_view name, std::uint64_t op);
  void End(int index);
  void SetMeasured(int index, double ms) { spans_[index].measured_ms = ms; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name, std::uint64_t op)
      : rec_(rec), index_(rec->enabled() ? rec->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Marks this span as an op root whose latency the workload clocked
  /// itself; the self-time check holds its children against `ms`.
  void Measured(double ms) {
    if (index_ >= 0) rec_->SetMeasured(index_, ms);
  }

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Self-time check over every measured op (a root span with a clocked
/// latency): the self times of the spans below the root must cover the
/// op's latency, so that time no layer span and no benchmark span accounts
/// for shows as a gap. Returns Σ|latency − Σ self times| ÷ Σ latency over
/// the ops; `worst` gets the largest single op's relative gap.
double CheckSelfTimes(const std::vector<const SpanRecorder*>& recorders,
                      std::size_t* ops, double* worst);

/// Writes every span as a Chrome trace "X" event.
bool WriteChromeTrace(const std::vector<const SpanRecorder*>& recorders,
                      const std::string& path);

/// Measured cost of recording one span (ns), for the overhead estimate.
double SpanCostNs();

// ---------------------------------------------------------------------------
// Statistics and the result record.
// ---------------------------------------------------------------------------

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

/// The tail percentile for `n` samples: the highest of `q` and the ladder
/// below it (99.9, 99, 95, 90, 75, 50) that leaves at least 10 samples
/// beyond it.
double TailPercentile(std::size_t n, double q);

/// What one run reports.
struct RunRecord {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // Human-readable check failures.
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // Diagnostics.

  void Fail(const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void Info(const std::string& key, double value);
  std::string ToJson() const;
};

/// One completed query op: its latency and its time to first batch (ms).
struct Timing {
  double ms;
  double ttfb_ms;
};

/// The latency and throughput metrics of a run, over every completed op of
/// the measured phase pooled: the medians, the tail percentile, and the
/// completions per second of measured wall time.
struct LatencySummary {
  double p50_ms = 0;
  double tail_ms = 0;
  double ttfb_p50_ms = 0;
  double per_s = 0;
  double tail_q = 0;
  std::size_t samples = 0;
};
LatencySummary Summarize(const std::vector<Timing>& timings, double wall_s,
                         double tail_q);

void AddLatencyMetrics(RunRecord* rec, const LatencySummary& s);

/// Fills the remaining end-to-end metrics.
void AddOutcomeMetrics(RunRecord* rec, const LinkQuality& links, double setup_s,
                       double peak_rss_mb);

/// Peak resident set size of this process so far (MiB).
double PeakRssMb();

/// Best-of-3 time of a fixed integer loop (ms); a host-speed diagnostic.
double CalibrationMs();

// ---------------------------------------------------------------------------
// One in-process query: Prepare -> Open -> Next... -> Close, timed by parts.
// ---------------------------------------------------------------------------

struct OpResult {
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;
  std::uint64_t rows = 0;
  double total_ms = 0;     // Prepare start to last row.
  double ttfb_ms = 0;      // Prepare start to the first non-empty batch.
  double prepare_ms = 0;   // QueryEngine::Prepare.
  double open_ms = 0;      // PreparedQuery::Open (admission).
  double drain_ms = 0;     // The Next calls after the first.
  queryer::ExecStats stats;
};

OpResult RunQuery(queryer::QueryEngine* engine, const std::string& sql,
                  SpanRecorder* rec, std::uint64_t op);

/// Aborts the process with a message when `status` is not OK (set-up and
/// preparation failures, which are not measured ops).
void Check(const queryer::Status& status, const std::string& what);

/// Engine options every workload starts from.
queryer::EngineOptions BaseOptions(std::size_t threads,
                                   std::size_t max_concurrent);

/// The funnel replay of one cold selection: QueryBlockIndex::Build ->
/// BlockJoin -> RunMetaBlocking -> EvaluateComparisons, read-only against
/// the runtime's current Link Index. Outside every query timer.
struct FunnelTotals {
  double queries = 0;
  double blocking_ms = 0;
  double blocks = 0;
  double metablocking_ms = 0;
  double pairs_before_pruning = 0;
  double pairs_after = 0;
  double eval_serial_ms = 0;
  double eval_pool_ms = 0;
  double executed = 0;
  double matched = 0;
};
void ReplayFunnel(queryer::TableRuntime* runtime,
                  const std::vector<queryer::EntityId>& selection,
                  queryer::ThreadPool* pool, SpanRecorder* rec,
                  std::uint64_t op, FunnelTotals* totals);
void AddFunnelMetrics(RunRecord* rec, const FunnelTotals& f);

/// Entities of `table` with MOD(id, modulus) == slice (ids are row
/// positions in every generated table).
std::vector<queryer::EntityId> SliceEntities(const queryer::Table& table,
                                             int modulus, int slice);

/// Accumulates the per-layer view of in-process ops.
struct OpTotals {
  std::vector<double> prepare_us;
  std::vector<double> open_ms;
  double ops = 0;
  double relational_ms = 0;
  double group_ms = 0;
  double drain_ms = 0;
  double unattributed_ms = 0;
  double morsels = 0;
  void Add(const OpResult& r);
};

/// Everything the traced run reports; layers a workload bypasses stay 0.
struct LayerTotals {
  double register_ms = 0;
  double tbi_bytes = 0;
  double tbi_build_ms = 0;
  double restore_ms = 0;
  FunnelTotals funnel;
  double resolving_statements = 0;
  double comparisons = 0;
  OpTotals ops;
  double li_hits = 0;
  double li_misses = 0;
  double next_rtt_us = 0;
  double wire_tax_ms = 0;
  double result_cache_hit_ratio = 0;
  double plan_cache_hit_ratio = 0;
  double result_cache_invalidations = 0;
  double write_p50_ms = 0;
  double trace_overhead = 0;
  double self_time_err = 0;
};
void AddLayerMetrics(RunRecord* rec, const LayerTotals& t);

/// Engine-wide Link Index hit/miss counters (process totals).
double LinkIndexHits();
double LinkIndexMisses();

/// Sum of TableBlockIndex::MemoryFootprint over the named tables.
double TbiBytes(queryer::QueryEngine* engine,
                const std::vector<std::string>& tables);

/// Self-time check + overhead estimate + span file for a traced run.
void FinishTrace(const Args& args, const std::vector<const SpanRecorder*>& recs,
                 double op_ms_total, double op_count, RunRecord* rec,
                 LayerTotals* t);

/// A restored engine and the timing of its set-up (ms).
struct Restored {
  std::unique_ptr<queryer::QueryEngine> engine;
  double total_ms = 0;
  double restore_ms = 0;
  double warm_ms = 0;
};

/// Engine construction -> RegisterTableFromSnapshots per table ->
/// WarmIndices per table, from the snapshots under `state_dir`.
Restored RestoreEngine(const std::string& state_dir,
                       const std::vector<std::string>& tables,
                       std::size_t threads, std::size_t max_concurrent,
                       SpanRecorder* spans);

/// Tables of the warm_read workload.
extern const std::vector<std::string> kWarmTables;

// Workload runners; each returns the process exit code.
int RunColdDedup(const Args& args);
int RunWarmRead(const Args& args);

/// The spans and op totals of warm_read's traced wire phase.
struct WirePhase {
  std::vector<std::unique_ptr<SpanRecorder>> spans;
  double op_ms = 0;
  double ops = 0;
};

/// warm_read's traced run only: a loopback QueryServer over a fresh restore
/// of the prepared state, two reading and one writing client for `seconds`.
/// Checks every answer and fills the server layer's metrics.
void RunWirePhase(const Args& args, const WarmPlan& plan,
                  const References& refs, double seconds, RunRecord* rec,
                  LayerTotals* layers, WirePhase* out);

/// Prints the record as the process's last stdout line; returns 0 when
/// the run was correct, 1 otherwise.
int Finish(RunRecord* rec);

}  // namespace perfbench

#endif  // QUERYER_PERFBENCH_BENCH_H_
