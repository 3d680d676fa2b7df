// Tests of inter-query concurrency: the Link Index reader/writer protocol,
// the resolution coordinator's claim tables, and multi-client
// QueryEngine::Execute sessions — concurrent same-table queries,
// overlapping predicates, dedup-join sessions, racing cold-start warmup,
// and the {num_threads} x {clients} determinism matrix.
//
// The engine guarantees concurrent execution is equivalent to a serial
// execution of the same queries in claim order. The workloads here are
// built so that *every* serial order gives the same answers and link
// counts (clique-structured duplicates whose clusters are fully discovered
// by any single resolution, or identical queries from every client), so
// the concurrent runs can be compared byte-for-byte against one fixed
// serial baseline. Rows are compared as sorted bags: a SQL answer without
// ORDER BY fixes its content, not its order.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "matching/link_index.h"
#include "matching/resolution_coordinator.h"
#include "parallel/thread_pool.h"

namespace queryer {
namespace {

std::vector<std::vector<std::string>> Sorted(
    std::vector<std::vector<std::string>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// A dirty table whose duplicate groups are cliques: members of one group
// are identical except for the (blocking/matching-excluded) id attribute,
// and different groups share no token. Resolving any member therefore
// discovers its whole cluster, and no query can grow another query's
// clusters — answers are independent of resolution order.
TablePtr MakeCliqueTable(std::size_t num_groups, std::size_t dups_per_group,
                         const std::string& name = "cliq") {
  TableBuilder builder(name, Schema({"id", "name", "city"}));
  std::size_t row = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    std::string group = std::to_string(g);
    for (std::size_t d = 0; d < dups_per_group; ++d) {
      EXPECT_TRUE(builder
                      .AddRow({"r" + std::to_string(row++),
                               "alpha" + group + " beta" + group,
                               "city" + group})
                      .ok());
    }
  }
  return builder.Build();
}

EngineOptions CliqueOptions(std::size_t max_concurrent,
                            std::size_t num_threads = 1) {
  EngineOptions options;
  // Tiny per-group blocks make Edge Pruning statistics meaningless (same
  // reasoning as the motivating-example tests); BP+BF keeps all true pairs.
  options.meta_blocking = MetaBlockingConfig::BpBf();
  options.max_concurrent_queries = max_concurrent;
  options.num_threads = num_threads;
  return options;
}

// ---------------------------------------------------------------------------
// LinkIndex reader/writer protocol.
// ---------------------------------------------------------------------------

TEST(LinkIndexProtocolTest, PublishLinksCountsOnlyRealMerges) {
  LinkIndex li(6);
  std::uint64_t epoch0 = li.epoch();
  // {0,1,2} via two links plus one redundant, {4,5} via one.
  std::size_t merged =
      li.PublishLinks({{0, 1}, {1, 2}, {0, 2}, {4, 5}});
  EXPECT_EQ(merged, 3u);
  EXPECT_EQ(li.num_links(), 3u);
  // One batch = one epoch bump, not one per link.
  EXPECT_EQ(li.epoch(), epoch0 + 1);
  EXPECT_TRUE(li.AreLinked(0, 2));
  EXPECT_TRUE(li.AreLinked(4, 5));
  EXPECT_FALSE(li.AreLinked(2, 4));
  // Publishing again is all no-op merges.
  EXPECT_EQ(li.PublishLinks({{0, 1}, {2, 0}}), 0u);
  EXPECT_EQ(li.num_links(), 3u);
}

TEST(LinkIndexProtocolTest, MarkResolvedBatchAndReadView) {
  LinkIndex li(4);
  li.MarkResolvedBatch({0, 2, 2});
  EXPECT_EQ(li.num_resolved(), 2u);
  li.PublishLinks({{1, 3}});
  LinkIndex::ReadView view = li.SharedSnapshot();
  EXPECT_TRUE(view.IsResolved(0));
  EXPECT_FALSE(view.IsResolved(1));
  EXPECT_TRUE(view.AreLinked(1, 3));
  EXPECT_EQ(view.Cluster(1), (std::vector<EntityId>{1, 3}));
  EXPECT_EQ(view.Representative(1), view.Representative(3));
}

TEST(LinkIndexProtocolTest, ConcurrentReadersWhilePublishing) {
  // Publisher threads append disjoint chains while readers hammer the read
  // accessors; under TSan this validates the lock discipline, and the final
  // clustering must be the full chains regardless of interleaving.
  constexpr std::size_t kEntities = 512;
  LinkIndex li(kEntities);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        for (EntityId e = 0; e + 1 < kEntities; e += 7) {
          li.AreLinked(e, e + 1);
          li.Representative(e);
          li.IsResolved(e);
        }
        li.num_links();
      }
    });
  }
  std::vector<std::thread> publishers;
  for (int p = 0; p < 2; ++p) {
    publishers.emplace_back([&, p] {
      // Publisher p links entities == p (mod 4) to their successors in
      // batches: chains 0-4-8-..., 1-5-9-...
      for (EntityId e = static_cast<EntityId>(p); e + 4 < kEntities; e += 4) {
        li.PublishLinks({{e, static_cast<EntityId>(e + 4)}});
      }
      li.MarkResolvedBatch({static_cast<EntityId>(p)});
    });
  }
  for (std::thread& t : publishers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(li.AreLinked(0, 128));
  EXPECT_TRUE(li.AreLinked(1, 129));
  EXPECT_FALSE(li.AreLinked(0, 1));
  EXPECT_EQ(li.num_resolved(), 2u);
}

// ---------------------------------------------------------------------------
// ResolutionCoordinator claim tables.
// ---------------------------------------------------------------------------

TEST(ResolutionCoordinatorTest, EntityClaimsPartition) {
  LinkIndex li(8);
  li.MarkResolvedBatch({5});
  ResolutionCoordinator coordinator;

  auto first = coordinator.ClaimEntities({1, 2, 5}, li);
  EXPECT_EQ(first.claimed, (std::vector<EntityId>{1, 2}));
  EXPECT_TRUE(first.foreign.empty());
  EXPECT_EQ(first.already_resolved, 1u);

  // A second session overlapping the first gets the leftovers only.
  auto second = coordinator.ClaimEntities({2, 3, 5}, li);
  EXPECT_EQ(second.claimed, (std::vector<EntityId>{3}));
  EXPECT_EQ(second.foreign, (std::vector<EntityId>{2}));
  EXPECT_EQ(second.already_resolved, 1u);

  // First session finishes: resolve, then release. A third claim must see
  // the entities as resolved, never as claimable.
  li.MarkResolvedBatch(first.claimed);
  coordinator.ReleaseEntities(first.claimed);
  auto third = coordinator.ClaimEntities({1, 2, 3}, li);
  EXPECT_TRUE(third.claimed.empty());
  EXPECT_EQ(third.foreign, (std::vector<EntityId>{3}));
  EXPECT_EQ(third.already_resolved, 2u);
  coordinator.AwaitEntities(first.claimed);  // Released: returns at once.
}

TEST(ResolutionCoordinatorTest, ComparisonClaimsDedupAcrossSessions) {
  ResolutionCoordinator coordinator;
  auto first = coordinator.ClaimComparisons({{1, 2}, {3, 4}});
  EXPECT_EQ(first.owned.size(), 2u);
  EXPECT_TRUE(first.foreign.empty());

  // Orientation must not matter: (2,1) is the in-flight (1,2).
  auto second = coordinator.ClaimComparisons({{2, 1}, {5, 6}});
  EXPECT_EQ(second.owned, (std::vector<Comparison>{{5, 6}}));
  EXPECT_EQ(second.foreign, (std::vector<Comparison>{{2, 1}}));

  coordinator.ReleaseComparisons(first.owned);
  coordinator.AwaitComparisons(second.foreign);  // Returns at once now.
  auto third = coordinator.ClaimComparisons({{1, 2}});
  EXPECT_EQ(third.owned.size(), 1u);
}

TEST(ResolutionCoordinatorTest, AbandonedComparisonsAreAdoptedByWaiters) {
  // An owner that fails before publishing parks its pairs; a session that
  // was waiting on them must adopt them instead of treating them as done.
  ResolutionCoordinator coordinator;
  auto owner = coordinator.ClaimComparisons({{1, 2}, {3, 4}});
  auto waiter = coordinator.ClaimComparisons({{1, 2}});
  ASSERT_EQ(waiter.foreign, (std::vector<Comparison>{{1, 2}}));

  coordinator.AbandonComparisons(owner.owned);
  std::vector<Comparison> adopted = coordinator.AwaitComparisons(waiter.foreign);
  EXPECT_EQ(adopted, (std::vector<Comparison>{{1, 2}}));

  // The adopted pair is in flight under the waiter: foreign to others.
  auto third = coordinator.ClaimComparisons({{1, 2}, {3, 4}});
  EXPECT_EQ(third.foreign, (std::vector<Comparison>{{1, 2}}));
  // (3,4) was abandoned but never awaited; the fresh claim adopts it, so
  // it must not resurface when someone later waits on it.
  EXPECT_EQ(third.owned, (std::vector<Comparison>{{3, 4}}));
  coordinator.ReleaseComparisons(third.owned);
  EXPECT_TRUE(coordinator.AwaitComparisons({{3, 4}}).empty());

  coordinator.ReleaseComparisons(adopted);
  // After the waiter publishes and releases, the pair settles normally.
  EXPECT_TRUE(coordinator.AwaitComparisons({{2, 1}}).empty());
}

TEST(ResolutionCoordinatorTest, AwaitBlocksUntilRelease) {
  ResolutionCoordinator coordinator;
  LinkIndex li(4);
  auto claim = coordinator.ClaimEntities({1}, li);
  ASSERT_EQ(claim.claimed.size(), 1u);

  std::atomic<bool> awaited{false};
  std::thread waiter([&] {
    coordinator.AwaitEntities({1});
    awaited.store(true);
  });
  // The waiter cannot finish before the release.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(awaited.load());
  coordinator.ReleaseEntities(claim.claimed);
  waiter.join();
  EXPECT_TRUE(awaited.load());
}

TEST(SemaphoreTest, BoundsAdmission) {
  Semaphore semaphore(2);
  semaphore.Acquire();
  semaphore.Acquire();
  std::atomic<bool> admitted{false};
  std::thread third([&] {
    Semaphore::Slot slot(&semaphore);
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  semaphore.Release();
  third.join();
  EXPECT_TRUE(admitted.load());
  semaphore.Release();
}

TEST(SharedPoolTest, EngineWidthIsACapNotAFloor) {
  // Engines share the process-wide pool, but each one's num_threads() must
  // stay its own configured parallelism cap — not silently widen to
  // whatever another engine grew the shared pool to.
  EngineOptions wide;
  wide.num_threads = 4;
  QueryEngine a(wide);
  EXPECT_EQ(a.num_threads(), 4u);
  EngineOptions narrow;
  narrow.num_threads = 2;
  QueryEngine b(narrow);
  EXPECT_EQ(b.num_threads(), 2u);
}

TEST(SharedPoolTest, ProcessWidePoolIsSharedAndGrows) {
  std::shared_ptr<ThreadPool> a = ThreadPool::Shared(2);
  std::shared_ptr<ThreadPool> b = ThreadPool::Shared(3);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GE(a->num_threads(), 3u);  // Grown, never shrunk.
  std::shared_ptr<ThreadPool> c = ThreadPool::Shared(2);
  EXPECT_EQ(c.get(), a.get());
  EXPECT_GE(c->num_threads(), 3u);
}

// ---------------------------------------------------------------------------
// Multi-client engine sessions.
// ---------------------------------------------------------------------------

struct RunOutcome {
  std::vector<std::vector<std::string>> rows;  // Sorted.
  std::size_t links = 0;
};

// Runs `queries` serially on a fresh engine (the baseline schedule).
std::vector<RunOutcome> RunSerial(const std::vector<TablePtr>& tables,
                                  const std::vector<std::string>& queries,
                                  const EngineOptions& options,
                                  std::size_t* final_links) {
  QueryEngine engine(options);
  for (const TablePtr& table : tables) {
    EXPECT_TRUE(engine.RegisterTable(table).ok());
  }
  std::vector<RunOutcome> outcomes(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto result = engine.Execute(queries[i]);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    outcomes[i].rows = Sorted(result->rows);
    outcomes[i].links =
        engine.GetRuntime(tables[0]->name())->get()->link_index().num_links();
  }
  *final_links =
      engine.GetRuntime(tables[0]->name())->get()->link_index().num_links();
  return outcomes;
}

// Runs query i on client thread i % clients, all clients concurrently.
std::vector<RunOutcome> RunConcurrent(const std::vector<TablePtr>& tables,
                                      const std::vector<std::string>& queries,
                                      const EngineOptions& options,
                                      std::size_t clients,
                                      std::size_t* final_links) {
  QueryEngine engine(options);
  for (const TablePtr& table : tables) {
    EXPECT_TRUE(engine.RegisterTable(table).ok());
  }
  std::vector<RunOutcome> outcomes(queries.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < queries.size(); i += clients) {
        auto result = engine.Execute(queries[i]);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        outcomes[i].rows = Sorted(result->rows);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *final_links =
      engine.GetRuntime(tables[0]->name())->get()->link_index().num_links();
  return outcomes;
}

TEST(ConcurrentSessionsTest, SameQueryFromFourClientsMatchesSerial) {
  // Identical queries: the first claimer resolves the whole selection, the
  // rest wait and reuse — any claim order is the same serial schedule, so
  // this is safe even with Edge Pruning enabled on generated dirty data.
  auto dsd = datagen::MakeDsdLike(800, 4242);
  const std::string sql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 40";

  EngineOptions serial_options;
  std::size_t serial_links = 0;
  std::vector<RunOutcome> baseline =
      RunSerial({dsd.table}, {sql}, serial_options, &serial_links);

  EngineOptions concurrent_options;
  concurrent_options.max_concurrent_queries = 4;
  std::size_t concurrent_links = 0;
  std::vector<RunOutcome> outcomes =
      RunConcurrent({dsd.table}, {sql, sql, sql, sql}, concurrent_options, 4,
                    &concurrent_links);

  EXPECT_GT(serial_links, 0u);
  EXPECT_EQ(concurrent_links, serial_links);
  for (const RunOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.rows, baseline[0].rows);
  }
}

TEST(ConcurrentSessionsTest, OverlappingPredicatesMatchSerial) {
  TablePtr cliq = MakeCliqueTable(24, 3);
  std::vector<std::string> queries;
  for (int q = 0; q < 8; ++q) {
    // Windows of four cities overlapping the neighbours by two.
    std::string a = std::to_string(2 * q), b = std::to_string(2 * q + 1);
    std::string c = std::to_string(2 * q + 2), d = std::to_string(2 * q + 3);
    queries.push_back("SELECT DEDUP name, city FROM cliq WHERE city IN "
                      "('city" + a + "', 'city" + b + "', 'city" + c +
                      "', 'city" + d + "')");
  }

  std::size_t serial_links = 0;
  std::vector<RunOutcome> baseline =
      RunSerial({cliq}, queries, CliqueOptions(1), &serial_links);

  std::size_t concurrent_links = 0;
  std::vector<RunOutcome> outcomes = RunConcurrent(
      {cliq}, queries, CliqueOptions(4), 4, &concurrent_links);

  EXPECT_GT(serial_links, 0u);
  EXPECT_EQ(concurrent_links, serial_links);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(outcomes[i].rows, baseline[i].rows) << queries[i];
  }
}

TEST(ConcurrentSessionsTest, DedupJoinSessionsMatchSerial) {
  TablePtr cliq = MakeCliqueTable(16, 3);
  TableBuilder regions_builder("regions", Schema({"city", "region"}));
  for (std::size_t g = 0; g < 16; ++g) {
    ASSERT_TRUE(regions_builder
                    .AddRow({"city" + std::to_string(g),
                             g % 2 == 0 ? "east" : "west"})
                    .ok());
  }
  TablePtr regions = regions_builder.Build();
  std::vector<std::string> queries = {
      "SELECT DEDUP cliq.name, regions.region FROM cliq INNER JOIN regions "
      "ON cliq.city = regions.city WHERE regions.region = 'east'",
      "SELECT DEDUP cliq.name, regions.region FROM cliq INNER JOIN regions "
      "ON cliq.city = regions.city WHERE regions.region = 'west'",
      "SELECT DEDUP name, city FROM cliq WHERE city IN ('city1', 'city2')",
      "SELECT DEDUP cliq.name, regions.region FROM cliq INNER JOIN regions "
      "ON cliq.city = regions.city WHERE regions.region = 'east'",
  };

  std::size_t serial_links = 0;
  std::vector<RunOutcome> baseline =
      RunSerial({cliq, regions}, queries, CliqueOptions(1), &serial_links);

  std::size_t concurrent_links = 0;
  std::vector<RunOutcome> outcomes = RunConcurrent(
      {cliq, regions}, queries, CliqueOptions(4), 4, &concurrent_links);

  EXPECT_GT(serial_links, 0u);
  EXPECT_EQ(concurrent_links, serial_links);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(outcomes[i].rows, baseline[i].rows) << queries[i];
  }
}

TEST(ConcurrentSessionsTest, RacingColdStartWarmup) {
  // No WarmIndices call: the first queries race the lazy TBI/weights
  // construction from four threads (one mixes explicit WarmIndices in).
  TablePtr cliq = MakeCliqueTable(20, 3);
  std::vector<std::string> queries;
  for (int q = 0; q < 12; ++q) {
    queries.push_back("SELECT DEDUP name, city FROM cliq WHERE city = 'city" +
                      std::to_string(q) + "'");
  }
  std::size_t serial_links = 0;
  std::vector<RunOutcome> baseline =
      RunSerial({cliq}, queries, CliqueOptions(1), &serial_links);

  QueryEngine engine(CliqueOptions(4));
  ASSERT_TRUE(engine.RegisterTable(cliq).ok());
  std::vector<RunOutcome> outcomes(queries.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      if (c == 0) EXPECT_TRUE(engine.WarmIndices("cliq").ok());
      for (std::size_t i = c; i < queries.size(); i += 4) {
        auto result = engine.Execute(queries[i]);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        outcomes[i].rows = Sorted(result->rows);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(engine.GetRuntime("cliq")->get()->link_index().num_links(),
            serial_links);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(outcomes[i].rows, baseline[i].rows) << queries[i];
  }
}

// The same workload at num_threads in {1,4} x concurrent clients in
// {1,2,4} must produce identical per-query answers and an identical final
// link count. The eight windows run twice, so the second round reads what
// the first published while other clients may still be resolving.
TEST(ConcurrentSessionsTest, DeterminismMatrix) {
  TablePtr cliq = MakeCliqueTable(20, 4);
  std::vector<std::string> queries;
  for (int round = 0; round < 2; ++round) {
    for (int q = 0; q < 8; ++q) {
      std::string a = std::to_string(2 * q), b = std::to_string(2 * q + 3);
      queries.push_back("SELECT DEDUP name, city FROM cliq WHERE city IN "
                        "('city" + a + "', 'city" + b + "')");
    }
  }

  std::size_t baseline_links = 0;
  std::vector<RunOutcome> baseline =
      RunSerial({cliq}, queries, CliqueOptions(1, 1), &baseline_links);
  EXPECT_GT(baseline_links, 0u);

  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t clients :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      std::size_t links = 0;
      std::vector<RunOutcome> outcomes =
          RunConcurrent({cliq}, queries, CliqueOptions(clients, num_threads),
                        clients, &links);
      EXPECT_EQ(links, baseline_links)
          << "num_threads=" << num_threads << " clients=" << clients;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(outcomes[i].rows, baseline[i].rows)
            << "num_threads=" << num_threads << " clients=" << clients
            << " query " << i;
      }
    }
  }
}

}  // namespace
}  // namespace queryer
