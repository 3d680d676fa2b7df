// Tests of the parallel-execution subsystem: ThreadPool submit/wait,
// exception-to-Status propagation and chunking edge cases of ParallelFor,
// the concurrency-safe Link Index read path, and the determinism contract —
// a multi-threaded engine must produce the same rows and link counts as the
// sequential one.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "matching/comparison_execution.h"
#include "matching/comparison_kernel.h"
#include "matching/link_index.h"
#include "parallel/thread_pool.h"

namespace queryer {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // ~ThreadPool drains the queue before joining.
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(SplitRangeTest, EmptyRange) {
  EXPECT_TRUE(SplitRange(0, 4).empty());
}

TEST(SplitRangeTest, FewerElementsThanChunks) {
  std::vector<ChunkRange> chunks = SplitRange(3, 8);
  ASSERT_EQ(chunks.size(), 3u);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].begin, c);
    EXPECT_EQ(chunks[c].end, c + 1);
  }
}

TEST(SplitRangeTest, UnevenSplitCoversRangeExactlyOnce) {
  // 10 over 4 chunks: sizes 3,3,2,2 — contiguous, gap-free.
  std::vector<ChunkRange> chunks = SplitRange(10, 4);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].end - chunks[0].begin, 3u);
  EXPECT_EQ(chunks[1].end - chunks[1].begin, 3u);
  EXPECT_EQ(chunks[2].end - chunks[2].begin, 2u);
  EXPECT_EQ(chunks[3].end - chunks[3].begin, 2u);
  std::size_t expected_begin = 0;
  for (const ChunkRange& chunk : chunks) {
    EXPECT_EQ(chunk.begin, expected_begin);
    expected_begin = chunk.end;
  }
  EXPECT_EQ(expected_begin, 10u);
}

TEST(SplitRangeTest, ZeroChunksClampsToOne) {
  std::vector<ChunkRange> chunks = SplitRange(5, 0);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].begin, 0u);
  EXPECT_EQ(chunks[0].end, 5u);
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  Status status = ParallelFor(
      &pool, visits.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++visits[i];
        return Status::OK();
      },
      16);
  ASSERT_TRUE(status.ok());
  for (const auto& count : visits) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> visits(100, 0);  // No atomics needed: inline = one thread.
  Status status = ParallelFor(
      nullptr, visits.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++visits[i];
        return Status::OK();
      },
      7);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 100);
}

TEST(ParallelForTest, EmptyRangeIsOk) {
  ThreadPool pool(2);
  bool called = false;
  Status status =
      ParallelFor(&pool, 0, [&](std::size_t, std::size_t, std::size_t) {
        called = true;
        return Status::OK();
      });
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, PropagatesBodyStatus) {
  ThreadPool pool(4);
  Status status = ParallelFor(
      &pool, 100,
      [](std::size_t chunk, std::size_t, std::size_t) {
        if (chunk >= 2) {
          return Status::ExecutionError("chunk " + std::to_string(chunk));
        }
        return Status::OK();
      },
      8);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kExecutionError);
  // The lowest failing chunk wins, independent of scheduling.
  EXPECT_EQ(status.message(), "chunk 2");
}

TEST(ParallelForTest, ConvertsExceptionsToStatus) {
  ThreadPool pool(4);
  Status status = ParallelFor(
      &pool, 100,
      [](std::size_t chunk, std::size_t, std::size_t) -> Status {
        if (chunk == 1) throw std::runtime_error("worker exploded");
        return Status::OK();
      },
      4);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("worker exploded"), std::string::npos);
}

TEST(ParallelForTest, InlineExceptionAlsoBecomesStatus) {
  Status status = ParallelFor(
      nullptr, 10, [](std::size_t, std::size_t, std::size_t) -> Status {
        throw std::logic_error("sequential throw");
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(LinkIndexTest, PublishLinksReportsMerges) {
  LinkIndex li(4);
  EXPECT_EQ(li.PublishLinks({{0, 1}, {2, 3}, {0, 2}}), 3u);
  // Transitively linked already: no merge, no count.
  EXPECT_EQ(li.PublishLinks({{1, 3}}), 0u);
  EXPECT_EQ(li.num_links(), 3u);
}

// The whole-pipeline determinism contract on a seeded dirty table: the
// 4-thread engine must produce exactly the 1-thread rows and link counts.
TEST(ParallelDeterminismTest, FourThreadsMatchSequential) {
  auto dsd = datagen::MakeDsdLike(1500, 4242);
  const std::string sql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 40";

  auto run = [&](std::size_t num_threads) {
    EngineOptions options;
    options.num_threads = num_threads;
    QueryEngine engine(options);
    EXPECT_TRUE(engine.RegisterTable(dsd.table).ok());
    EXPECT_TRUE(engine.WarmIndices("dsd").ok());
    auto result = engine.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::size_t links =
        engine.GetRuntime("dsd")->get()->link_index().num_links();
    return std::make_tuple(result->rows, links, result->stats.matches_found);
  };

  auto [rows1, links1, matches1] = run(1);
  auto [rows4, links4, matches4] = run(4);
  EXPECT_EQ(rows4, rows1);
  EXPECT_EQ(links4, links1);
  EXPECT_EQ(matches4, matches1);
  EXPECT_GT(links1, 0u);
  EXPECT_FALSE(rows1.empty());
}

// The reference for the paper's comparison count: evaluate the pairs one by
// one against a live index that every match amends, so a pair linked
// transitively by an earlier match of the run is skipped, not evaluated.
struct OneByOneCounts {
  std::size_t executed = 0;
  std::size_t skipped_linked = 0;
  std::size_t merges = 0;
};

OneByOneCounts ResolveOneByOne(const Table& table,
                               const std::vector<Comparison>& comparisons,
                               const MatchingConfig& config,
                               const AttributeWeights* weights,
                               LinkIndex* link_index) {
  ComparisonKernel kernel(table, comparisons.data(),
                          comparisons.data() + comparisons.size(), config,
                          weights);
  OneByOneCounts counts;
  for (const auto& [a, b] : comparisons) {
    if (link_index->AreLinked(a, b)) {
      ++counts.skipped_linked;
      continue;
    }
    ++counts.executed;
    if (kernel.Similarity(a, b) >= kMatchThreshold) {
      link_index->PublishLinks({{a, b}});
      ++counts.merges;
    }
  }
  return counts;
}

// Staged evaluation + one publish against the one-by-one reference, on top
// of links some earlier "query" already resolved. One chunk must reproduce
// the reference's counts exactly (the chunk overlay stands in for the live
// index); a 4-worker pool ends at the identical clustering, evaluating no
// fewer pairs than the reference and no more than the starting index left
// unlinked.
TEST(ParallelDeterminismTest, ComparisonExecutionMatchesSequential) {
  auto dsd = datagen::MakeDsdLike(800, 77);
  BlockingOptions blocking;
  blocking.excluded_attributes = {0};
  MatchingConfig matching;
  matching.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(*dsd.table, blocking);
  std::vector<Comparison> comparisons;
  for (std::size_t b = 0; b < tbi->num_blocks(); ++b) {
    const auto& entities = tbi->block_entities(b);
    for (std::size_t i = 0; i < entities.size(); ++i) {
      for (std::size_t j = i + 1; j < entities.size(); ++j) {
        comparisons.emplace_back(entities[i], entities[j]);
      }
    }
  }
  ASSERT_GE(comparisons.size(), kParallelComparisonThreshold);
  AttributeWeights weights = AttributeWeights::Compute(*dsd.table);

  // Pre-existing links from an "earlier query".
  const std::vector<Comparison> earlier = {{0, 1}, comparisons.front()};
  LinkIndex reference(dsd.table->num_rows());
  reference.PublishLinks(earlier);
  std::size_t unlinked_at_start = 0;
  for (const auto& [a, b] : comparisons) {
    if (!reference.AreLinked(a, b)) ++unlinked_at_start;
  }
  const OneByOneCounts oracle =
      ResolveOneByOne(*dsd.table, comparisons, matching, &weights, &reference);
  ASSERT_GT(oracle.skipped_linked, 0u);
  // The run itself links pairs it later meets: the overlay has work to do.
  ASSERT_LT(oracle.executed, unlinked_at_start);

  LinkIndex one_chunk(dsd.table->num_rows());
  one_chunk.PublishLinks(earlier);
  StagedComparisons serial =
      *EvaluateComparisons(*dsd.table, comparisons, matching, one_chunk,
                           &weights);
  EXPECT_EQ(serial.executed, oracle.executed);
  EXPECT_EQ(serial.skipped_linked, oracle.skipped_linked);
  EXPECT_EQ(serial.matched.size(), oracle.merges);
  EXPECT_EQ(one_chunk.PublishLinks(serial.matched), oracle.merges);

  ThreadPool pool(4);
  LinkIndex chunked(dsd.table->num_rows());
  chunked.PublishLinks(earlier);
  StagedComparisons parallel = *EvaluateComparisons(
      *dsd.table, comparisons, matching, chunked, &weights, &pool);
  EXPECT_GE(parallel.executed, oracle.executed);
  EXPECT_LE(parallel.executed, unlinked_at_start);
  EXPECT_EQ(parallel.executed + parallel.skipped_linked, comparisons.size());
  EXPECT_EQ(chunked.PublishLinks(parallel.matched), oracle.merges);

  EXPECT_EQ(one_chunk.num_links(), reference.num_links());
  EXPECT_EQ(chunked.num_links(), reference.num_links());
  for (EntityId e = 0; e < dsd.table->num_rows(); ++e) {
    EXPECT_EQ(one_chunk.Cluster(e), reference.Cluster(e));
    EXPECT_EQ(chunked.Cluster(e), reference.Cluster(e));
  }
}

}  // namespace
}  // namespace queryer
