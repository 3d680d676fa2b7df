// The streaming query-session API: Prepare/Open/Next cursors must produce
// bit-identical answers to Execute at every num_threads x consumer batch
// capacity (Execute is itself a cursor drain at the default capacity, so
// the matrix here drives an explicit client-side Next loop), and the session
// lifecycle must hold: an abandoned or cancelled cursor releases its
// admission slot and leaves no ResolutionCoordinator claim behind, so a
// second client's query completes; a cross-thread Cancel() during a
// scan/probe drain is TSan-clean; a destructor-without-drain leaks nothing
// under ASan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"

namespace queryer {
namespace {

using Rows = std::vector<std::vector<std::string>>;

std::unique_ptr<QueryEngine> MakeEngine(
    const std::vector<TablePtr>& tables, std::size_t num_threads = 1,
    std::size_t max_concurrent = 1, double deadline = 0) {
  EngineOptions options;
  options.num_threads = num_threads;
  options.max_concurrent_queries = max_concurrent;
  options.default_query_deadline = deadline;
  auto engine = std::make_unique<QueryEngine>(options);
  for (const TablePtr& table : tables) {
    EXPECT_TRUE(engine->RegisterTable(table).ok());
  }
  return engine;
}

// Drains a cursor through an explicit client-side Next loop, pulling
// batches of `capacity` rows.
Rows DrainCursor(QueryCursor* cursor,
                 std::size_t capacity = kDefaultBatchSize) {
  Rows rows;
  RowBatch batch(capacity);
  while (true) {
    auto has = cursor->Next(&batch);
    EXPECT_TRUE(has.ok()) << has.status().ToString();
    if (!has.ok() || !*has) break;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      rows.push_back(batch.TakeValues(i));
    }
  }
  cursor->Close();
  return rows;
}

class CursorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Tables of several default-size batches; the OAGP/OAGV pair gives the
    // join's probe side several probe batches.
    dsd_ = new datagen::GeneratedDataset(datagen::MakeDsdLike(2600, 4242));
    auto universe = datagen::MakeVenueUniverse(300, 7);
    datagen::OagpOptions oagp_options;
    oagp_options.venue_join_fraction = 0.5;
    oagp_ = new datagen::GeneratedDataset(
        datagen::MakeOagpLike(3000, universe, 11, oagp_options));
    oagv_ = new datagen::GeneratedDataset(
        datagen::MakeOagvLike(800, universe, 13));
  }
  static void TearDownTestSuite() {
    delete dsd_;
    delete oagp_;
    delete oagv_;
    dsd_ = nullptr;
    oagp_ = nullptr;
    oagv_ = nullptr;
  }

  static datagen::GeneratedDataset* dsd_;
  static datagen::GeneratedDataset* oagp_;
  static datagen::GeneratedDataset* oagv_;
};

datagen::GeneratedDataset* CursorTest::dsd_ = nullptr;
datagen::GeneratedDataset* CursorTest::oagp_ = nullptr;
datagen::GeneratedDataset* CursorTest::oagv_ = nullptr;

// Cursor answers == Execute answers, bit for bit, across the whole
// num_threads x consumer batch capacity matrix, for every pipeline shape
// (scan+filter, hash join, full DEDUP). Project and the join size their
// child batches from the consumer's, so capacity 1 runs the pipeline row
// at a time.
TEST_F(CursorTest, CursorMatchesExecuteAcrossThreadsAndBatchSizes) {
  struct Case {
    std::vector<TablePtr> tables;
    std::string sql;
  };
  const Case cases[] = {
      {{dsd_->table}, "SELECT id, title FROM dsd WHERE MOD(id, 100) < 23"},
      {{oagp_->table, oagv_->table},
       "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title"},
      {{dsd_->table},
       "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10"},
  };
  for (const Case& c : cases) {
    for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
      auto execute_engine = MakeEngine(c.tables, num_threads);
      auto result = execute_engine->Execute(c.sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                   std::size_t{1024}}) {
        auto cursor_engine = MakeEngine(c.tables, num_threads);
        auto cursor = cursor_engine->ExecuteStream(c.sql);
        ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
        Rows streamed = DrainCursor(cursor->get(), capacity);
        EXPECT_EQ(streamed, result->rows)
            << c.sql << " threads=" << num_threads << " batch=" << capacity;
      }
    }
  }
}

// Prepare once, inspect the plan, open twice: same answer both times, and
// the second run is served from the Link Index (no re-resolution).
TEST_F(CursorTest, PrepareIsReExecutableAndInspectable) {
  auto engine = MakeEngine({dsd_->table});
  auto prepared = engine->Prepare(
      "SELECT DEDUP title, year FROM dsd WHERE MOD(id, 100) < 10");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared->dedup());
  EXPECT_NE(prepared->plan_text().find("Deduplicate"), std::string::npos)
      << prepared->plan_text();

  auto first = prepared->Open();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Rows first_rows = DrainCursor(first->get());
  EXPECT_FALSE(first_rows.empty());
  EXPECT_GT((*first)->stats().comparisons_executed, 0u);

  auto second = prepared->Open();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  Rows second_rows = DrainCursor(second->get());
  EXPECT_EQ(second_rows, first_rows);
  // Everything was resolved by the first run.
  EXPECT_EQ((*second)->stats().comparisons_executed, 0u);
  EXPECT_GT((*second)->stats().entities_already_resolved, 0u);
}

// Prepare captures the mode at prepare time: a later set_mode call changes
// what Explain/Prepare produce from then on, but not an already-prepared
// query, which still opens and answers under its captured plan.
TEST_F(CursorTest, PrepareCapturesOptionsAtPrepareTime) {
  auto engine = MakeEngine({dsd_->table});
  const std::string sql =
      "SELECT DEDUP title FROM dsd WHERE MOD(id, 100) < 5";
  auto aes_plan = engine->Explain(sql);
  ASSERT_TRUE(aes_plan.ok());
  auto prepared = engine->Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->plan_text(), *aes_plan);

  engine->set_mode(ExecutionMode::kNaive);
  auto nes_plan = engine->Explain(sql);
  ASSERT_TRUE(nes_plan.ok());
  // The engine replans under the new mode...
  auto reprepared = engine->Prepare(sql);
  ASSERT_TRUE(reprepared.ok());
  EXPECT_EQ(reprepared->plan_text(), *nes_plan);
  // ...but the old prepared query keeps its captured plan and still runs.
  EXPECT_EQ(prepared->plan_text(), *aes_plan);
  auto cursor = prepared->Open();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_FALSE(DrainCursor(cursor->get()).empty());
}

// Fetch(n) returns exactly n rows until the stream runs dry, and the
// concatenation equals the Execute answer.
TEST_F(CursorTest, FetchReturnsRowsInOrder) {
  auto engine = MakeEngine({dsd_->table});
  const std::string sql = "SELECT id, title FROM dsd WHERE MOD(id, 100) < 23";
  auto result = engine->Execute(sql);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->rows.size(), 150u);

  auto cursor = engine->ExecuteStream(sql);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  Rows fetched;
  // An n that never divides the batch size, so Fetch must carry partially
  // consumed batches across calls.
  while (true) {
    auto chunk = (*cursor)->Fetch(150);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk->empty()) break;
    EXPECT_LE(chunk->size(), 150u);
    for (auto& row : *chunk) fetched.push_back(std::move(row));
    if (chunk->size() < 150) break;  // End of stream.
  }
  EXPECT_EQ(fetched, result->rows);
  // Exhausted: one more Fetch finds nothing.
  auto empty = (*cursor)->Fetch(10);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// An early Close mid-stream releases the admission slot: with
// max_concurrent_queries == 1, a second query on the same engine would
// block forever (the ctest timeout would kill us) if the slot leaked.
TEST_F(CursorTest, EarlyCloseReleasesAdmissionSlot) {
  auto engine = MakeEngine({dsd_->table});
  auto cursor = engine->ExecuteStream("SELECT * FROM dsd");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  RowBatch batch(64);
  auto has = (*cursor)->Next(&batch);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  (*cursor)->Close();  // Mid-stream: most of the table is undrained.

  auto second = engine->Execute("SELECT id FROM dsd WHERE MOD(id, 100) < 5");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second->rows.empty());
}

// Destruction without Close (and without draining) also releases the slot
// — and, under ASan, proves the abandoned session state (operator tree,
// join build table, ER state) leaks nothing.
TEST_F(CursorTest, AbandonedCursorDestructorReleasesEverything) {
  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    auto engine = MakeEngine({oagp_->table, oagv_->table}, num_threads);
    {
      auto cursor = engine->ExecuteStream(
          "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title");
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      RowBatch batch(64);
      auto has = (*cursor)->Next(&batch);
      ASSERT_TRUE(has.ok());
      // Drop the cursor mid-stream with the probe half done.
    }
    auto after = engine->Execute("SELECT id FROM oagp WHERE MOD(id, 100) < 5");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
  }
}

// An abandoned DEDUP session leaves no ResolutionCoordinator claim behind:
// a second client's overlapping DEDUP query (a different session on the
// same engine) completes and matches the serial answer.
TEST_F(CursorTest, EarlyCloseLeavesNoCoordinatorClaims) {
  // Serial reference.
  auto reference_engine = MakeEngine({dsd_->table});
  auto reference = reference_engine->Execute(
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10");
  ASSERT_TRUE(reference.ok());

  auto engine = MakeEngine({dsd_->table}, /*num_threads=*/1,
                           /*max_concurrent=*/2);
  auto cursor = engine->ExecuteStream(
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  RowBatch batch(16);
  auto has = (*cursor)->Next(&batch);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  (*cursor)->Close();  // Abandon with most of DR_E undrained.

  // The overlapping second session must complete (claims released) and
  // reuse the first session's published links for the same answer.
  auto second = engine->Execute(
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->rows, reference->rows);
  EXPECT_EQ(second->stats.comparisons_executed, 0u);
}

// Cancel() from the consuming thread: sticky kCancelled at the next batch
// boundary, and the session's resources are released.
TEST_F(CursorTest, CancelSurfacesCancelledStatus) {
  auto engine = MakeEngine({dsd_->table});
  auto cursor = engine->ExecuteStream("SELECT * FROM dsd");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  RowBatch batch(16);
  auto has = (*cursor)->Next(&batch);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  (*cursor)->Cancel();
  auto cancelled = (*cursor)->Next(&batch);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled())
      << cancelled.status().ToString();
  // Sticky.
  auto again = (*cursor)->Next(&batch);
  EXPECT_TRUE(again.status().IsCancelled());
  // The slot is free: the engine admits the next session.
  auto after = engine->Execute("SELECT id FROM dsd WHERE MOD(id, 100) < 5");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

// Cancel() from another thread while the consumer drains a scan and a join
// probe on a 4-thread engine: the race between the canceller's store and
// the consumer's batch-boundary reads of the flag is what TSan checks
// here. The drain ends either cancelled or complete — nothing else.
TEST_F(CursorTest, CancelDuringScanAndProbeIsClean) {
  const std::string queries[] = {
      "SELECT * FROM oagp",
      "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title",
  };
  for (const std::string& sql : queries) {
    auto engine =
        MakeEngine({oagp_->table, oagv_->table}, /*num_threads=*/4);
    auto cursor = engine->ExecuteStream(sql);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

    std::atomic<bool> started{false};
    std::thread canceller([&] {
      while (!started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      (*cursor)->Cancel();
    });

    RowBatch batch(32);
    Status final_status;
    bool ended = false;
    while (true) {
      auto has = (*cursor)->Next(&batch);
      started.store(true, std::memory_order_release);
      if (!has.ok()) {
        final_status = has.status();
        break;
      }
      if (!*has) {
        ended = true;
        break;
      }
    }
    canceller.join();
    if (!ended) {
      EXPECT_TRUE(final_status.IsCancelled()) << final_status.ToString();
    }
    // Either way the session is over and the engine admits the next one.
    auto after = engine->Execute("SELECT id FROM oagp WHERE MOD(id, 100) < 5");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
  }
}

// A pre-cancelled cursor delivers no rows: the first batch boundary
// already surfaces kCancelled.
TEST_F(CursorTest, CancelBeforeFirstBatchDeliversNothing) {
  auto engine = MakeEngine({dsd_->table});
  auto cursor = engine->ExecuteStream("SELECT * FROM dsd");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  (*cursor)->Cancel();
  RowBatch batch((*cursor)->batch_size());
  auto has = (*cursor)->Next(&batch);
  ASSERT_FALSE(has.ok());
  EXPECT_TRUE(has.status().IsCancelled());
}

// EngineOptions::default_query_deadline, checked at batch boundaries:
// an (unreasonably) tight deadline surfaces kDeadlineExceeded from the
// cursor — and through Execute, which is a cursor drain.
TEST_F(CursorTest, DeadlineExceededSurfacesAtBatchBoundary) {
  auto engine = MakeEngine({dsd_->table}, 1, 1, /*deadline=*/1e-9);
  auto cursor = engine->ExecuteStream("SELECT * FROM dsd");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  RowBatch batch((*cursor)->batch_size());
  auto has = (*cursor)->Next(&batch);
  ASSERT_FALSE(has.ok());
  EXPECT_TRUE(has.status().IsDeadlineExceeded()) << has.status().ToString();

  auto result = engine->Execute("SELECT * FROM dsd");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // The expired sessions released their slots.
  auto relaxed = MakeEngine({dsd_->table});
  EXPECT_TRUE(relaxed->Execute("SELECT id FROM dsd").ok());
}

// Lifecycle edges: a fully drained cursor has released its session (the
// engine admits the next query with the handle still alive), its stats are
// complete, and further Next calls keep reporting end of stream — even
// after a late Cancel or an explicit Close. Next after Close on an
// UNFINISHED cursor is an error.
TEST_F(CursorTest, CloseSemantics) {
  auto engine = MakeEngine({dsd_->table});
  auto cursor = engine->ExecuteStream("SELECT id FROM dsd");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  Rows rows = DrainCursor(cursor->get());  // Also Closes.
  EXPECT_FALSE(rows.empty());
  EXPECT_GT((*cursor)->stats().total_seconds, 0.0);
  // Drained => session released even before Close: with the handle still
  // alive, the engine's single slot is free for the next query.
  auto next_query = engine->Execute("SELECT id FROM dsd WHERE MOD(id, 100) < 5");
  ASSERT_TRUE(next_query.ok()) << next_query.status().ToString();
  // Sticky end-of-stream, unchanged by a late Cancel or repeated Close.
  (*cursor)->Cancel();
  (*cursor)->Close();
  RowBatch batch((*cursor)->batch_size());
  auto has = (*cursor)->Next(&batch);
  ASSERT_TRUE(has.ok()) << has.status().ToString();
  EXPECT_FALSE(*has);

  // Close before the stream ends: Next becomes an error.
  auto unfinished = engine->ExecuteStream("SELECT id FROM dsd");
  ASSERT_TRUE(unfinished.ok());
  (*unfinished)->Close();
  auto after_close = (*unfinished)->Next(&batch);
  EXPECT_FALSE(after_close.ok());
}

// Cancel() followed by Close() while the session is still inside ER
// resolution: the cancel pre-empts the comparison loop (an armed delay on
// er.comparison_chunk holds the session there long enough for the race to
// be deterministic), the cancellation is counted exactly once, and the
// admission slot is released exactly once — a double release would mint a
// phantom second slot, which the bounded-admission probe below would
// expose as an admission that should have been shed.
TEST_F(CursorTest, CancelThenCloseDuringResolutionReleasesSlotExactlyOnce) {
  const std::string dedup =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";
  auto engine = MakeEngine({dsd_->table});

  const EngineMetrics& metrics = GlobalEngineMetrics();
  const std::uint64_t cancelled_before = metrics.queries_cancelled->Value();
  const std::uint64_t in_resolution_before =
      metrics.cancelled_in_resolution->Value();

  ASSERT_TRUE(Failpoints::Global()
                  .Arm("er.comparison_chunk", "delay(150)")
                  .ok());
  auto cursor = engine->ExecuteStream(dedup);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

  // The consumer drives the first Next into the cold-LI resolution, where
  // the delay holds it; the main thread cancels mid-flight.
  Status from_next;
  std::thread consumer([&] {
    RowBatch batch(16);
    auto has = (*cursor)->Next(&batch);
    from_next = has.ok() ? Status::OK() : has.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  (*cursor)->Cancel();
  consumer.join();
  Failpoints::Global().Disarm("er.comparison_chunk");

  ASSERT_FALSE(from_next.ok());
  EXPECT_TRUE(from_next.IsCancelled()) << from_next.ToString();
  (*cursor)->Close();  // After the cancelled Next: must not double-count.

  EXPECT_EQ(metrics.queries_cancelled->Value(), cancelled_before + 1);
  EXPECT_EQ(metrics.cancelled_in_resolution->Value(),
            in_resolution_before + 1);

  // Exactly one slot exists afterwards: a holder takes it, a second
  // session is shed, and releasing the holder re-admits.
  engine->set_admission_timeout(0.05);
  auto holder = engine->ExecuteStream("SELECT id FROM dsd");
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();
  auto shed = engine->Execute("SELECT id FROM dsd");
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted())
      << shed.status().ToString();
  (*holder)->Close();
  EXPECT_TRUE(engine->Execute("SELECT id FROM dsd").ok());
}

// The session deadline expiring in the middle of a cold-LI resolution
// (not at a batch boundary): an armed delay on er.comparison_chunk pushes
// the first comparison chunk past the deadline, the cancel poll inside
// the comparison loop trips, and kDeadlineExceeded surfaces through both
// Next and Execute. The pre-empted sessions leave zero coordinator claims
// behind, and once the failpoint is disarmed and the deadline dropped the
// same engine answers the query correctly.
TEST_F(CursorTest, DeadlineMidResolutionPreemptsAndLeavesNoClaims) {
  const std::string dedup =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";
  auto reference_engine = MakeEngine({dsd_->table});
  auto reference = reference_engine->Execute(dedup);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // max_concurrent=2 lets the engine admit a second session beside this
  // one; every session resolves through the claim/publish transaction, so
  // the pre-emption exercises claim release either way.
  auto engine = MakeEngine({dsd_->table}, /*num_threads=*/1,
                           /*max_concurrent=*/2, /*deadline=*/0.25);
  ASSERT_TRUE(Failpoints::Global()
                  .Arm("er.comparison_chunk", "delay(400)")
                  .ok());

  // Through the cursor's Next.
  auto cursor = engine->ExecuteStream(dedup);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  RowBatch batch(16);
  auto has = (*cursor)->Next(&batch);
  ASSERT_FALSE(has.ok());
  EXPECT_TRUE(has.status().IsDeadlineExceeded()) << has.status().ToString();
  (*cursor)->Close();

  // Through Execute (the LI is still cold — nothing was published).
  auto via_execute = engine->Execute(dedup);
  ASSERT_FALSE(via_execute.ok());
  EXPECT_TRUE(via_execute.status().IsDeadlineExceeded())
      << via_execute.status().ToString();

  // Both pre-empted sessions released every coordinator claim.
  auto runtime = engine->GetRuntime("dsd");
  ASSERT_TRUE(runtime.ok());
  EXPECT_EQ((*runtime)->coordinator().num_entities_in_flight(), 0u);
  EXPECT_EQ((*runtime)->coordinator().num_comparisons_in_flight(), 0u);

  // Disarmed and deadline-free, the same engine resolves correctly.
  Failpoints::Global().Disarm("er.comparison_chunk");
  engine->set_default_query_deadline(0);
  auto recovered = engine->Execute(dedup);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->rows, reference->rows);
}

}  // namespace
}  // namespace queryer
