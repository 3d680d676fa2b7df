// Micro-benchmarks over the ER kernels (google-benchmark): Jaro-Winkler,
// tokenization, blocking-index construction, meta-blocking
// stages and the Link Index.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "blocking/block_join.h"
#include "blocking/token_blocking.h"
#include "common/string_util.h"
#include "datagen/scholarly.h"
#include "matching/comparison_execution.h"
#include "matching/comparison_kernel.h"
#include "matching/link_index.h"
#include "matching/profile_matcher.h"
#include "matching/similarity.h"
#include "metablocking/meta_blocking.h"
#include "parallel/thread_pool.h"

namespace queryer {
namespace {

const char kLeft[] = "entity resolution over dirty scholarly data";
const char kRight[] = "enitty resolution over dirty schollarly data";

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinklerSimilarity(kLeft, kRight));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_TokenizeAlnum(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TokenizeAlnum(kLeft));
  }
}
BENCHMARK(BM_TokenizeAlnum);

void BM_ValueSimilarity(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueSimilarity(kLeft, kRight));
  }
}
BENCHMARK(BM_ValueSimilarity);

// One pair per call: ProfileSimilarity builds a one-pair ComparisonKernel
// each time, so this measures kernel set-up plus one comparison.
// BM_ComparisonKernel below is the batch cost the engine pays.
void BM_ProfileSimilarity(benchmark::State& state) {
  auto dsd = datagen::MakeDsdLike(100, 3);
  MatchingConfig config;
  config.excluded_attributes = {0};
  AttributeWeights weights = AttributeWeights::Compute(*dsd.table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ProfileSimilarity(*dsd.table, 0, 1, config, &weights));
  }
}
BENCHMARK(BM_ProfileSimilarity);

// The engine's unit of matching work: one kernel built over a cold query's
// funnel (the meta-blocked pairs of a 0.5% DEDUP slice of a 3,344-row DSD
// table), then every pair evaluated. `per_comparison` is the wall time of
// one iteration divided by its pairs, kernel build included.
void BM_ComparisonKernel(benchmark::State& state) {
  auto dsd = datagen::MakeDsdLike(3344, 3);
  BlockingOptions options;
  options.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(*dsd.table, options);
  std::vector<EntityId> selection;
  for (EntityId e = static_cast<EntityId>(state.range(0));
       e < dsd.table->num_rows(); e += 200) {
    selection.push_back(e);
  }
  QueryBlockIndex qbi = QueryBlockIndex::Build(*dsd.table, selection, options);
  std::vector<Comparison> pairs =
      RunMetaBlocking(BlockJoin(qbi, *tbi), MetaBlockingConfig::All())
          .comparisons;
  MatchingConfig config;
  config.excluded_attributes = {0};
  AttributeWeights weights = AttributeWeights::Compute(*dsd.table);
  for (auto _ : state) {
    ComparisonKernel kernel(*dsd.table, pairs.data(),
                            pairs.data() + pairs.size(), config, &weights);
    double sum = 0;
    for (const auto& [a, b] : pairs) sum += kernel.Similarity(a, b);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
  state.counters["pairs"] = static_cast<double>(pairs.size());
  state.counters["per_comparison"] = benchmark::Counter(
      static_cast<double>(pairs.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ComparisonKernel)->Arg(0)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_TableBlockIndexBuild(benchmark::State& state) {
  auto dsd = datagen::MakeDsdLike(static_cast<std::size_t>(state.range(0)), 5);
  BlockingOptions options;
  options.excluded_attributes = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(TableBlockIndex::Build(*dsd.table, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableBlockIndexBuild)->Arg(1000)->Arg(5000);

void BM_QueryBlockingAndJoin(benchmark::State& state) {
  auto dsd = datagen::MakeDsdLike(5000, 7);
  BlockingOptions options;
  options.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(*dsd.table, options);
  std::vector<EntityId> selection;
  for (EntityId e = 0; e < 200; ++e) selection.push_back(e * 7 % 5000);
  for (auto _ : state) {
    QueryBlockIndex qbi = QueryBlockIndex::Build(*dsd.table, selection, options);
    benchmark::DoNotOptimize(BlockJoin(qbi, *tbi));
  }
}
BENCHMARK(BM_QueryBlockingAndJoin);

void BM_MetaBlocking(benchmark::State& state) {
  auto dsd = datagen::MakeDsdLike(5000, 9);
  BlockingOptions options;
  options.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(*dsd.table, options);
  std::vector<EntityId> selection;
  for (EntityId e = 0; e < 500; ++e) selection.push_back(e * 3 % 5000);
  QueryBlockIndex qbi = QueryBlockIndex::Build(*dsd.table, selection, options);
  BlockCollection enriched = BlockJoin(qbi, *tbi);
  for (auto _ : state) {
    BlockCollection copy = enriched;
    benchmark::DoNotOptimize(
        RunMetaBlocking(std::move(copy), MetaBlockingConfig::All()));
  }
}
BENCHMARK(BM_MetaBlocking);

// The cold query's shape: Block-Join plus the whole meta-blocking funnel of
// a 0.5% DEDUP slice (MOD(row, 200) = arg) of a 3,344-row DSD table, the
// selection BM_ComparisonKernel evaluates.
void BM_MetaBlockingColdSlice(benchmark::State& state) {
  auto dsd = datagen::MakeDsdLike(3344, 3);
  BlockingOptions options;
  options.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(*dsd.table, options);
  std::vector<EntityId> selection;
  for (EntityId e = static_cast<EntityId>(state.range(0));
       e < dsd.table->num_rows(); e += 200) {
    selection.push_back(e);
  }
  std::size_t pairs = 0;
  for (auto _ : state) {
    QueryBlockIndex qbi =
        QueryBlockIndex::Build(*dsd.table, selection, options);
    MetaBlockingResult result =
        RunMetaBlocking(BlockJoin(qbi, *tbi), MetaBlockingConfig::All());
    pairs = result.comparisons_before_pruning;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs_before_pruning"] = static_cast<double>(pairs);
}
BENCHMARK(BM_MetaBlockingColdSlice)
    ->Arg(0)
    ->Arg(7)
    ->Unit(benchmark::kMillisecond);

void BM_LinkIndexPublishFind(benchmark::State& state) {
  std::vector<LinkIndex::Link> links;
  for (EntityId e = 0; e + 1 < 10000; e += 2) links.emplace_back(e, e + 1);
  for (auto _ : state) {
    LinkIndex li(10000);
    li.PublishLinks(links);
    benchmark::DoNotOptimize(li.Cluster(5000));
  }
}
BENCHMARK(BM_LinkIndexPublishFind);

// Engine-wide worker pool for the parallel micro benchmarks, sized by the
// --threads flag (null = sequential path).
ThreadPool* BenchPool() {
  static ThreadPool* pool = bench::Threads() == 1
                                ? nullptr
                                : new ThreadPool(bench::Threads() == 0
                                                     ? ThreadPool::
                                                           HardwareConcurrency()
                                                     : bench::Threads());
  return pool;
}

void BM_ComparisonExecution(benchmark::State& state) {
  auto dsd = datagen::MakeDsdLike(static_cast<std::size_t>(state.range(0)), 9);
  BlockingOptions options;
  options.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(*dsd.table, options);
  BlockCollection blocks;
  for (std::size_t b = 0; b < tbi->num_blocks(); ++b) {
    Block block;
    block.key = static_cast<std::uint32_t>(b);
    block.entities = tbi->block_entities(b);
    block.query_entities = block.entities;
    blocks.push_back(std::move(block));
  }
  MetaBlockingResult refined =
      RunMetaBlocking(std::move(blocks), MetaBlockingConfig::All());
  MatchingConfig config;
  config.excluded_attributes = {0};
  AttributeWeights weights = AttributeWeights::Compute(*dsd.table);
  for (auto _ : state) {
    LinkIndex li(dsd.table->num_rows());
    StagedComparisons staged =
        *EvaluateComparisons(*dsd.table, refined.comparisons, config, li,
                             &weights, BenchPool());
    benchmark::DoNotOptimize(li.PublishLinks(staged.matched));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(refined.comparisons.size()));
}
// Wall time, not CPU time: with a pool the bench thread mostly sleeps while
// the workers burn the cycles.
BENCHMARK(BM_ComparisonExecution)->Arg(2000)->Arg(5000)->UseRealTime();

}  // namespace
}  // namespace queryer

int main(int argc, char** argv) {
  // Shared bench flags (--threads=N) come out first; google-benchmark then
  // parses its own and the thread count lands in the JSON context block
  // (--benchmark_format=json).
  queryer::bench::InitBenchArgs(&argc, argv);
  benchmark::AddCustomContext("threads",
                              std::to_string(queryer::bench::Threads()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
