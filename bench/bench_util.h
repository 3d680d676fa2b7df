// Shared infrastructure for the experiment harnesses (one binary per paper
// table/figure — see docs/BENCHMARKS.md for which binary reproduces what).
//
// Dataset sizes default to 1/20 of the paper's, so that a default run of a
// harness takes minutes on one machine instead of hours, and scale with the
// QUERYER_BENCH_SCALE environment variable (e.g. 20 reproduces the paper's
// absolute sizes, 0.2 gives a smoke run). Every harness prints aligned
// human-readable tables plus machine-readable "CSV," lines.

#ifndef QUERYER_BENCH_BENCH_UTIL_H_
#define QUERYER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "datagen/orgs.h"
#include "datagen/people.h"
#include "datagen/scholarly.h"
#include "engine/query_engine.h"

namespace queryer::bench {

/// Scale multiplier from QUERYER_BENCH_SCALE (default 1.0).
double Scale();

/// base * Scale(), at least 100.
std::size_t Scaled(std::size_t base);

/// Worker-thread count for engines built by MakeEngine. Set by a
/// `--threads=N` argument (see InitBenchArgs) or the QUERYER_BENCH_THREADS
/// environment variable; defaults to 1 (sequential). A value of 0 is
/// accepted as "hardware concurrency" and resolved to the actual worker
/// count before it is ever returned or reported.
std::size_t Threads();

/// Overrides the thread count programmatically (sweep harnesses).
void SetThreads(std::size_t threads);

/// True when the thread count was set explicitly (--threads,
/// QUERYER_BENCH_THREADS or SetThreads) rather than defaulted to 1.
/// Sweep harnesses use this to honor an explicit --threads=N — including
/// N = 1 — as the maximum sweep point.
bool ThreadsExplicit();

/// RowBatch capacity for engines built by MakeEngine. Set by a
/// `--batch-size=N` argument or the QUERYER_BENCH_BATCH_SIZE environment
/// variable; 0 (the default) keeps the engine's default capacity.
std::size_t BatchSize();

/// Overrides the batch size programmatically (sweep harnesses).
void SetBatchSize(std::size_t batch_size);

/// Session trace sink shared by every engine MakeEngine builds. Non-null
/// only after InitBenchArgs saw a `--trace-out=FILE` argument; the Chrome
/// trace-event JSON is written to FILE at process exit (load it in
/// https://ui.perfetto.dev). Null = tracing off, zero overhead.
std::shared_ptr<TraceSink> BenchTraceSink();

/// Parses the shared bench flags (`--threads=N`, `--batch-size=N`,
/// `--trace-out=FILE`, `--metrics-out=FILE`) out of argv. `--trace-out`
/// records a session trace (see BenchTraceSink); `--metrics-out` dumps the
/// process-wide metrics registry as JSON at exit. Unrecognized arguments
/// are left in place and argc/argv are compacted, so harnesses with their
/// own flag parsing can run this first.
void InitBenchArgs(int* argc, char** argv);

// Baseline (scale = 1.0) dataset sizes: paper size / 20.
inline constexpr std::size_t kDsdRows = 3344;    // Paper: 66,879.
inline constexpr std::size_t kOaoRows = 2773;    // Paper: 55,464.
inline constexpr std::size_t kOapRows = 25000;   // Paper: 500K.
inline constexpr std::size_t kOagvRows = 6500;   // Paper: 130K.
inline constexpr std::size_t kSize200K = 10000;  // Paper: 200K.
inline constexpr std::size_t kSize500K = 25000;  // Paper: 500K.
inline constexpr std::size_t kSize1M = 50000;    // Paper: 1M.
inline constexpr std::size_t kSize1500K = 75000; // Paper: 1.5M.
inline constexpr std::size_t kSize2M = 100000;   // Paper: 2M.

/// Deterministic dataset factories (seeds fixed per dataset family).
datagen::GeneratedDataset Dsd(std::size_t rows);
datagen::GeneratedDataset Oao(std::size_t rows);
datagen::GeneratedDataset Oap(std::size_t rows,
                              const std::vector<std::string>& org_pool);
datagen::GeneratedDataset Ppl(std::size_t rows,
                              const std::vector<std::string>& org_pool);
datagen::GeneratedDataset Oagp(std::size_t rows);
datagen::GeneratedDataset Oagv(std::size_t rows);
const std::vector<datagen::VenueUniverseEntry>& Universe();

/// Engine over the given tables with the engine-default ER configuration.
QueryEngine MakeEngine(const std::vector<TablePtr>& tables,
                       ExecutionMode mode,
                       const MetaBlockingConfig& meta_blocking = {},
                       bool collect_comparisons = false);

/// The Q1..Q5 selectivity ladder of the paper's SP experiments (~5%..80%).
inline constexpr int kSelectivities[] = {5, 20, 35, 50, 80};

/// "SELECT DEDUP <projection> FROM <table> WHERE MOD(id, 100) < <pct>" —
/// a uniformly random selection of ~pct% of the table.
std::string SelectivityQuery(const std::string& table, int percent,
                             const std::string& projection);

/// Entity ids selected by MOD(id, 100) < percent (for PC measurement).
std::vector<EntityId> SelectedIds(const Table& table, int percent);

/// Runs one query, aborting the bench on failure.
QueryResult MustExecute(QueryEngine* engine, const std::string& sql);

/// Machine-readable output line: "CSV,<bench>,<f1>,<f2>,...".
void CsvLine(const std::string& bench, const std::vector<std::string>& fields);

/// Machine-readable JSON line: {"bench":"<bench>","threads":N,...}. The
/// thread count is always included; values that parse as numbers are
/// emitted unquoted.
void JsonLine(const std::string& bench,
              const std::vector<std::pair<std::string, std::string>>& fields);

/// Section banner.
void Banner(const std::string& title);

}  // namespace queryer::bench

#endif  // QUERYER_BENCH_BENCH_UTIL_H_
