// Fault injection: the failpoint subsystem itself (spec grammar, trigger
// gates, seeded replay, env arming) and the engine's behavior under
// injected failures — claim abandonment, Link Index consistency, admission
// slot release, first-error-wins propagation — capped by seeded chaos
// schedules that interleave failing scan / join / DEDUP sessions and then
// assert the engine's structural invariants:
//
//   * no stranded ResolutionCoordinator claims (all in-flight counts zero),
//   * no leaked admission slots (a full-width fault-free round completes),
//   * only genuine links ever published (a fault-free rerun on the chaosed
//     engine answers bit-identically to a never-chaosed engine),
//   * the Link Index stays structurally sane (num_resolved <= rows).
//
// QUERYER_CHAOS_SEED=<n> narrows the chaos matrix to one seed (the CI
// chaos job runs one seed per matrix leg); unset, all seeds run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <memory>

#include "common/cancel_context.h"
#include "common/failpoint.h"
#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "exec/deduplicator.h"
#include "exec/exec_stats.h"
#include "exec/table_runtime.h"
#include "obs/metrics.h"

namespace queryer {
namespace {

using Rows = std::vector<std::vector<std::string>>;

// Arms a site for one scope; always disarmed on exit, so a failing
// EXPECT cannot leak an armed failpoint into the next test.
class ScopedFailpoint {
 public:
  ScopedFailpoint(const std::string& site, const std::string& spec)
      : site_(site) {
    Status armed = Failpoints::Global().Arm(site, spec);
    EXPECT_TRUE(armed.ok()) << armed.ToString();
  }
  ~ScopedFailpoint() { Failpoints::Global().Disarm(site_); }

 private:
  std::string site_;
};

std::unique_ptr<QueryEngine> MakeEngine(
    const std::vector<TablePtr>& tables, std::size_t batch_size = 0,
    std::size_t num_threads = 1, std::size_t max_concurrent = 1) {
  EngineOptions options;
  if (batch_size != 0) options.batch_size = batch_size;
  options.num_threads = num_threads;
  options.max_concurrent_queries = max_concurrent;
  auto engine = std::make_unique<QueryEngine>(options);
  for (const TablePtr& table : tables) {
    EXPECT_TRUE(engine->RegisterTable(table).ok());
  }
  return engine;
}

// ---------------------------------------------------------------------------
// Failpoint mechanics.
// ---------------------------------------------------------------------------

TEST(FailpointTest, SpecGrammarAcceptsAndRejects) {
  Failpoints& fps = Failpoints::Global();
  EXPECT_TRUE(fps.Arm("fi.grammar", "error").ok());
  EXPECT_TRUE(fps.Arm("fi.grammar", "throw").ok());
  EXPECT_TRUE(fps.Arm("fi.grammar", "delay(10)").ok());
  EXPECT_TRUE(fps.Arm("fi.grammar", "error(p=0.5,seed=42)").ok());
  EXPECT_TRUE(fps.Arm("fi.grammar", "error(every=3)").ok());
  EXPECT_TRUE(fps.Arm("fi.grammar", "throw(once)").ok());
  EXPECT_TRUE(fps.Arm("fi.grammar", "delay(5,p=0.25,seed=7)").ok());

  EXPECT_TRUE(fps.Arm("fi.grammar", "explode").IsInvalidArgument());
  EXPECT_TRUE(fps.Arm("fi.grammar", "error(p=2.0)").IsInvalidArgument());
  EXPECT_TRUE(fps.Arm("fi.grammar", "error(wat=1)").IsInvalidArgument());
  EXPECT_TRUE(fps.Arm("fi.grammar", "").IsInvalidArgument());

  // A failed Arm must not leave the site armed with the bad spec; the
  // last good spec ("delay(5,...)") — or nothing — may remain. Disarm and
  // verify the site reports disarmed.
  fps.Disarm("fi.grammar");
  EXPECT_FALSE(fps.Get("fi.grammar")->armed());
}

TEST(FailpointTest, ErrorModeReturnsStatusNamingTheSite) {
  ScopedFailpoint armed("fi.error_site", "error");
  Failpoint* fp = Failpoints::Global().Get("fi.error_site");
  ASSERT_TRUE(fp->armed());
  Status fired = fp->Fire();
  ASSERT_FALSE(fired.ok());
  EXPECT_NE(fired.message().find("fi.error_site"), std::string::npos)
      << fired.ToString();
  Failpoints::Global().Disarm("fi.error_site");
  EXPECT_FALSE(fp->armed());
  EXPECT_TRUE(fp->Fire().ok());
}

TEST(FailpointTest, ThrowModeThrowsFailpointError) {
  ScopedFailpoint armed("fi.throw_site", "throw");
  Failpoint* fp = Failpoints::Global().Get("fi.throw_site");
  EXPECT_THROW(fp->FireOrThrow(), FailpointError);
  EXPECT_THROW((void)fp->Fire(), FailpointError);
  // Inert evaluation never throws — it only counts.
  EXPECT_NO_THROW(fp->FireInert());
}

TEST(FailpointTest, EveryNGateFiresOnExactMultiples) {
  ScopedFailpoint armed("fi.every_site", "error(every=3)");
  Failpoint* fp = Failpoints::Global().Get("fi.every_site");
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(!fp->Fire().ok());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
}

TEST(FailpointTest, OnceDisarmsAfterFirstTrigger) {
  ScopedFailpoint armed("fi.once_site", "error(once)");
  Failpoint* fp = Failpoints::Global().Get("fi.once_site");
  EXPECT_FALSE(fp->Fire().ok());
  EXPECT_FALSE(fp->armed());
  EXPECT_TRUE(fp->Fire().ok());
}

TEST(FailpointTest, SeededProbabilityReplaysIdentically) {
  auto sample = [](std::uint64_t seed) {
    Status armed = Failpoints::Global().Arm(
        "fi.prob_site", "error(p=0.5,seed=" + std::to_string(seed) + ")");
    EXPECT_TRUE(armed.ok());
    Failpoint* fp = Failpoints::Global().Get("fi.prob_site");
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) outcomes.push_back(!fp->Fire().ok());
    Failpoints::Global().Disarm("fi.prob_site");
    return outcomes;
  };
  std::vector<bool> first = sample(42);
  std::vector<bool> replay = sample(42);
  EXPECT_EQ(first, replay);  // Same seed => identical schedule.
  // The gate really gates: neither all-fire nor never-fire over 64 draws.
  std::size_t fires = 0;
  for (bool b : first) fires += b ? 1 : 0;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
  // A different seed produces a different schedule (2^-64 false-failure
  // odds notwithstanding).
  EXPECT_NE(sample(43), first);
}

TEST(FailpointTest, EnvFormatArmsSitesAndSkipsMalformedEntries) {
  Failpoints& fps = Failpoints::Global();
  fps.ArmFromEnv(
      "fi.env_a=error;no_equals_sign;fi.env_b=delay(1);fi.env_c=bogus(");
  EXPECT_TRUE(fps.Get("fi.env_a")->armed());
  EXPECT_TRUE(fps.Get("fi.env_b")->armed());
  EXPECT_FALSE(fps.Get("fi.env_c")->armed());
  std::vector<std::string> armed = fps.ArmedSites();
  EXPECT_NE(std::find(armed.begin(), armed.end(), "fi.env_a"), armed.end());
  fps.DisarmAll();
  EXPECT_TRUE(fps.ArmedSites().empty());
  EXPECT_FALSE(fps.Get("fi.env_a")->armed());
}

TEST(FailpointTest, TriggerCounterCountsExactFires) {
  Counter* counter = MetricsRegistry::Global().GetCounter(
      "queryer_failpoint_triggered_total_fi_counted_site");
  const std::uint64_t before = counter->Value();
  ScopedFailpoint armed("fi.counted_site", "error(every=2)");
  Failpoint* fp = Failpoints::Global().Get("fi.counted_site");
  for (int i = 0; i < 10; ++i) (void)fp->Fire();  // Fires on 2,4,6,8,10.
  EXPECT_EQ(counter->Value() - before, 5u);
}

// Regression: a cancellation observed at the claim-loop's top poll — while
// the session still holds the entity claims it just took — must release
// those claims before the error surfaces. A leak there is permanent: the
// coordinator's in-flight set never clears, so every later session's
// AwaitEntities on any of the entities blocks forever.
TEST(DeduplicatorCancelTest, LoopTopCancelReleasesHeldEntityClaims) {
  auto dsd = datagen::MakeDsdLike(300, 555);
  BlockingOptions blocking;
  blocking.excluded_attributes = {0};
  MatchingConfig matching;
  matching.excluded_attributes = {0};
  TableRuntime runtime(dsd.table, blocking, MetaBlockingConfig::All(),
                       matching);

  // Cancel already raised when Resolve starts: ClaimEntities still claims
  // (a cold LI makes every entity unresolved), so the first loop-top poll
  // fires with this session holding all the claims — the leak path.
  auto flag = std::make_shared<std::atomic<bool>>(true);
  CancelContext cancel;
  cancel.cancel = flag;

  ExecStats stats;
  Deduplicator cancelled_session(&runtime, &stats, /*pool=*/nullptr,
                                 /*trace=*/nullptr, &cancel);
  std::vector<EntityId> entities;
  for (EntityId e = 0; e < 20; ++e) entities.push_back(e);
  auto cancelled = cancelled_session.Resolve(entities);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled()) << cancelled.status().ToString();
  EXPECT_EQ(runtime.coordinator().num_entities_in_flight(), 0u);
  EXPECT_EQ(runtime.coordinator().num_comparisons_in_flight(), 0u);

  // And the entities are genuinely claimable again: a fresh session must
  // resolve them to completion instead of hanging in AwaitEntities.
  flag->store(false);
  ExecStats retry_stats;
  Deduplicator retry_session(&runtime, &retry_stats, nullptr, nullptr,
                             &cancel);
  auto resolved = retry_session.Resolve(entities);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_GE(resolved->size(), entities.size());
  EXPECT_EQ(runtime.coordinator().num_entities_in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Deterministic engine failure paths.
// ---------------------------------------------------------------------------

class FaultInjectionTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    dsd_ = new datagen::GeneratedDataset(datagen::MakeDsdLike(1200, 777));
    auto universe = datagen::MakeVenueUniverse(150, 7);
    datagen::OagpOptions oagp_options;
    oagp_options.venue_join_fraction = 0.5;
    oagp_ = new datagen::GeneratedDataset(
        datagen::MakeOagpLike(1500, universe, 11, oagp_options));
    oagv_ = new datagen::GeneratedDataset(
        datagen::MakeOagvLike(400, universe, 13));
    // The fault-free DEDUP reference every consistency check compares
    // against — computed on an engine that never sees a failpoint.
    auto clean = MakeEngine({dsd_->table});
    auto reference = clean->Execute(kDedupQuery);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    reference_rows_ = new Rows(reference->rows);
  }
  static void TearDownTestSuite() {
    delete dsd_;
    delete oagp_;
    delete oagv_;
    delete reference_rows_;
    dsd_ = nullptr;
    oagp_ = nullptr;
    oagv_ = nullptr;
    reference_rows_ = nullptr;
  }
  void TearDown() override {
    // A test that fails mid-way must not leave chaos armed for the next.
    Failpoints::Global().DisarmAll();
  }

  // Every in-flight count of every registered runtime must be zero once no
  // session is running — the no-stranded-claims invariant.
  static void ExpectNoClaims(QueryEngine* engine,
                             const std::vector<std::string>& tables) {
    for (const std::string& name : tables) {
      auto runtime = engine->GetRuntime(name);
      ASSERT_TRUE(runtime.ok());
      ResolutionCoordinator& coordinator = (*runtime)->coordinator();
      EXPECT_EQ(coordinator.num_entities_in_flight(), 0u) << name;
      EXPECT_EQ(coordinator.num_comparisons_in_flight(), 0u) << name;
      const LinkIndex& li = (*runtime)->link_index();
      EXPECT_LE(li.num_resolved(), (*runtime)->table().num_rows()) << name;
    }
  }

  static constexpr const char* kDedupQuery =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";

  static datagen::GeneratedDataset* dsd_;
  static datagen::GeneratedDataset* oagp_;
  static datagen::GeneratedDataset* oagv_;
  static Rows* reference_rows_;
};

datagen::GeneratedDataset* FaultInjectionTest::dsd_ = nullptr;
datagen::GeneratedDataset* FaultInjectionTest::oagp_ = nullptr;
datagen::GeneratedDataset* FaultInjectionTest::oagv_ = nullptr;
Rows* FaultInjectionTest::reference_rows_ = nullptr;

// An injected comparison-chunk failure aborts the resolution transaction:
// the session fails with a message naming the site and the session, the
// Link Index is untouched, no coordinator claim survives, and — because
// nothing was published — a fault-free retry on the same engine matches the
// clean reference. The single-session engine runs the same transaction as
// a concurrent one, so both widths must behave alike.
TEST_F(FaultInjectionTest, ChunkFailureAbandonsClaimsAndEngineRecovers) {
  for (std::size_t max_concurrent : {1, 2}) {
    SCOPED_TRACE("max_concurrent=" + std::to_string(max_concurrent));
    auto engine = MakeEngine({dsd_->table}, /*batch_size=*/32,
                             /*num_threads=*/1, max_concurrent);
    auto runtime = engine->GetRuntime("dsd");
    ASSERT_TRUE(runtime.ok());
    const std::size_t links_before = (*runtime)->link_index().num_links();
    const std::uint64_t epoch_before = (*runtime)->link_index().epoch();
    {
      ScopedFailpoint armed("er.comparison_chunk", "error");
      auto cursor = engine->ExecuteStream(kDedupQuery);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      RowBatch batch((*cursor)->batch_size());
      auto has = (*cursor)->Next(&batch);
      ASSERT_FALSE(has.ok());
      EXPECT_NE(has.status().message().find("er.comparison_chunk"),
                std::string::npos)
          << has.status().ToString();
      EXPECT_NE(has.status().message().find("session"), std::string::npos)
          << has.status().ToString();
      (*cursor)->Close();
    }
    EXPECT_EQ((*runtime)->link_index().num_links(), links_before);
    EXPECT_EQ((*runtime)->link_index().epoch(), epoch_before);
    ExpectNoClaims(engine.get(), {"dsd"});
    auto retry = engine->Execute(kDedupQuery);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_EQ(retry->rows, *reference_rows_);
  }
}

// li.publish throws BEFORE any mutation (all-or-nothing publish): a failed
// session leaves link count and epoch exactly where they were, and the
// fault-free retry still answers identically to the clean reference — on
// the single-session engine as on a concurrent one.
TEST_F(FaultInjectionTest, PublishFailureLeavesLinkIndexUntouched) {
  for (std::size_t max_concurrent : {1, 2}) {
    SCOPED_TRACE("max_concurrent=" + std::to_string(max_concurrent));
    auto engine = MakeEngine({dsd_->table}, /*batch_size=*/32,
                             /*num_threads=*/1, max_concurrent);
    auto runtime = engine->GetRuntime("dsd");
    ASSERT_TRUE(runtime.ok());
    const std::size_t links_before = (*runtime)->link_index().num_links();
    const std::uint64_t epoch_before = (*runtime)->link_index().epoch();
    {
      ScopedFailpoint armed("li.publish", "throw");
      auto failed = engine->Execute(kDedupQuery);
      ASSERT_FALSE(failed.ok());
      EXPECT_NE(failed.status().message().find("li.publish"),
                std::string::npos)
          << failed.status().ToString();
    }
    EXPECT_EQ((*runtime)->link_index().num_links(), links_before);
    EXPECT_EQ((*runtime)->link_index().epoch(), epoch_before);
    ExpectNoClaims(engine.get(), {"dsd"});
    auto retry = engine->Execute(kDedupQuery);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_EQ(retry->rows, *reference_rows_);
  }
}

// A claim-transaction failure (coordinator.claim_comparisons throws before
// mutating the dedup table) releases the session's entity claims, so an
// immediately following session resolves the same entities to the clean
// answer.
TEST_F(FaultInjectionTest, ClaimFailureReleasesEntityClaims) {
  auto engine = MakeEngine({dsd_->table}, /*batch_size=*/32,
                           /*num_threads=*/1, /*max_concurrent=*/2);
  {
    ScopedFailpoint armed("coordinator.claim_comparisons", "throw");
    auto failed = engine->Execute(kDedupQuery);
    ASSERT_FALSE(failed.ok());
  }
  ExpectNoClaims(engine.get(), {"dsd"});
  auto retry = engine->Execute(kDedupQuery);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->rows, *reference_rows_);
}

// Morsel failures on the parallel scan and join probe paths: the injected
// exception rides the ReorderWindow failure path, first-error-wins reaches
// the consumer, and the session's slot frees for the next query.
TEST_F(FaultInjectionTest, MorselFailuresSurfaceFirstErrorAndFreeTheSlot) {
  struct Case {
    const char* site;
    const char* sql;
  };
  const Case cases[] = {
      {"scan.morsel", "SELECT * FROM oagp"},
      {"join.probe_morsel",
       "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title"},
  };
  for (const Case& c : cases) {
    auto engine = MakeEngine({oagp_->table, oagv_->table}, /*batch_size=*/32,
                             /*num_threads=*/4);
    {
      ScopedFailpoint armed(c.site, "throw");
      auto cursor = engine->ExecuteStream(c.sql);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      RowBatch batch((*cursor)->batch_size());
      Status final_status;
      while (true) {
        auto has = (*cursor)->Next(&batch);
        if (!has.ok()) {
          final_status = has.status();
          break;
        }
        ASSERT_TRUE(*has) << c.site
                          << ": stream ended despite every morsel failing";
      }
      EXPECT_NE(final_status.message().find(c.site), std::string::npos)
          << final_status.ToString();
      (*cursor)->Close();
    }
    auto after = engine->Execute("SELECT id FROM oagp WHERE MOD(id, 100) < 5");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
  }
}

// engine.admission fires after the slot is acquired: the injected failure
// must ride the RAII release, or this 1-wide engine would wedge.
TEST_F(FaultInjectionTest, AdmissionFailureReleasesTheSlot) {
  auto engine = MakeEngine({dsd_->table});
  {
    ScopedFailpoint armed("engine.admission", "error");
    auto cursor = engine->ExecuteStream("SELECT id FROM dsd");
    ASSERT_FALSE(cursor.ok());
    EXPECT_NE(cursor.status().message().find("engine.admission"),
              std::string::npos)
        << cursor.status().ToString();
  }
  auto after = engine->Execute("SELECT id FROM dsd WHERE MOD(id, 100) < 5");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

// cursor.next failures are sticky and terminal: the cursor reports the
// injected error on every subsequent Next, and the session released its
// slot at the first one.
TEST_F(FaultInjectionTest, CursorNextFailureIsStickyAndReleases) {
  auto engine = MakeEngine({dsd_->table}, /*batch_size=*/16);
  auto cursor = engine->ExecuteStream("SELECT id FROM dsd");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  RowBatch batch((*cursor)->batch_size());
  Status final_status;
  int batches = 0;
  {
    ScopedFailpoint armed("cursor.next", "error(every=3)");
    while (true) {
      auto has = (*cursor)->Next(&batch);
      if (!has.ok()) {
        final_status = has.status();
        break;
      }
      ASSERT_TRUE(*has);
      ++batches;
    }
  }
  EXPECT_EQ(batches, 2);  // every=3: the third Next fails.
  EXPECT_NE(final_status.message().find("cursor.next"), std::string::npos);
  // Sticky even now that the site is disarmed: the cursor terminated.
  auto again = (*cursor)->Next(&batch);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().ToString(), final_status.ToString());
  auto after = engine->Execute("SELECT id FROM dsd WHERE MOD(id, 100) < 5");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

// Bounded admission: with every slot held, an arriving session waits only
// admission_timeout and is shed with kResourceExhausted — it held nothing,
// so releasing the blocker admits the next session instantly.
TEST_F(FaultInjectionTest, AdmissionTimeoutShedsInsteadOfQueueing) {
  EngineOptions options;
  options.max_concurrent_queries = 1;
  options.admission_timeout = 0.05;
  auto engine = std::make_unique<QueryEngine>(options);
  ASSERT_TRUE(engine->RegisterTable(dsd_->table).ok());

  auto holder = engine->ExecuteStream("SELECT id FROM dsd");
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();
  auto shed = engine->Execute("SELECT id FROM dsd");
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted()) << shed.status().ToString();
  (*holder)->Close();
  auto admitted = engine->Execute("SELECT id FROM dsd WHERE MOD(id, 100) < 5");
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
}

// ---------------------------------------------------------------------------
// Seeded chaos schedules.
// ---------------------------------------------------------------------------

class ChaosTest : public FaultInjectionTest {};

// One chaos round: arm probabilistic failure schedules on every layer,
// interleave concurrent scan / join / DEDUP sessions with random drains,
// cancels and early closes, then assert the structural invariants.
void RunChaosRound(unsigned seed, datagen::GeneratedDataset* dsd,
                   datagen::GeneratedDataset* oagp,
                   datagen::GeneratedDataset* oagv,
                   const Rows& reference_rows) {
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  EngineOptions options;
  options.batch_size = 32;
  options.num_threads = 4;
  options.max_concurrent_queries = 3;
  auto engine = std::make_unique<QueryEngine>(options);
  ASSERT_TRUE(engine->RegisterTable(dsd->table).ok());
  ASSERT_TRUE(engine->RegisterTable(oagp->table).ok());
  ASSERT_TRUE(engine->RegisterTable(oagv->table).ok());

  const std::string s = std::to_string(seed * 10);
  Failpoints& fps = Failpoints::Global();
  ASSERT_TRUE(fps.Arm("er.comparison_chunk",
                      "error(p=0.08,seed=" + s + "1)").ok());
  ASSERT_TRUE(fps.Arm("li.publish", "throw(p=0.04,seed=" + s + "2)").ok());
  ASSERT_TRUE(fps.Arm("coordinator.claim_comparisons",
                      "throw(p=0.04,seed=" + s + "3)").ok());
  ASSERT_TRUE(fps.Arm("scan.morsel", "throw(p=0.02,seed=" + s + "4)").ok());
  ASSERT_TRUE(
      fps.Arm("join.probe_morsel", "throw(p=0.02,seed=" + s + "5)").ok());
  ASSERT_TRUE(fps.Arm("cursor.next", "error(p=0.02,seed=" + s + "6)").ok());
  ASSERT_TRUE(fps.Arm("cursor.open", "error(p=0.02,seed=" + s + "7)").ok());
  ASSERT_TRUE(
      fps.Arm("threadpool.task", "delay(1,p=0.05,seed=" + s + "8)").ok());
  ASSERT_TRUE(
      fps.Arm("coordinator.release", "delay(1,p=0.1,seed=" + s + "9)").ok());

  const std::string queries[] = {
      "SELECT id, title FROM dsd WHERE MOD(id, 100) < 23",
      "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title",
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10",
      "SELECT DEDUP title FROM dsd WHERE MOD(id, 100) < 20",
  };

  constexpr int kThreads = 3;
  constexpr int kSessionsPerThread = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        std::mt19937 rng(seed * 1000 + t * 100 + i);
        auto cursor = engine->ExecuteStream(queries[(t + i) % 4]);
        if (!cursor.ok()) continue;  // Injected pre-open failure: fine.
        RowBatch batch((*cursor)->batch_size());
        const unsigned action = rng() % 3;
        const unsigned keep_batches = 1 + rng() % 8;
        unsigned drained = 0;
        while (true) {
          if (action == 1 && drained >= keep_batches) break;  // Early close.
          if (action == 2 && drained == keep_batches) (*cursor)->Cancel();
          auto has = (*cursor)->Next(&batch);
          if (!has.ok() || !*has) break;  // Error / cancel / end: all fine.
          ++drained;
        }
        (*cursor)->Close();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  fps.DisarmAll();

  // Invariant 1: no stranded coordinator claims, structurally sane LI.
  FaultInjectionTest::ExpectNoClaims(engine.get(), {"dsd", "oagp", "oagv"});

  // Invariant 2: no leaked admission slots — a fault-free round at full
  // admission width completes (a leaked slot would wedge one of these
  // sessions forever, and the ctest timeout would flag it).
  {
    std::vector<std::thread> drains;
    for (int t = 0; t < kThreads; ++t) {
      drains.emplace_back([&] {
        auto result = engine->Execute(
            "SELECT id FROM dsd WHERE MOD(id, 100) < 5");
        EXPECT_TRUE(result.ok()) << result.status().ToString();
      });
    }
    for (std::thread& drain : drains) drain.join();
  }

  // Invariant 3: every link the chaos round published is genuine — the
  // fault-free rerun on this engine reuses them and still answers
  // bit-identically to an engine that never saw a failpoint.
  auto rerun = engine->Execute(FaultInjectionTest::kDedupQuery);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->rows, reference_rows);
}

TEST_F(ChaosTest, SeededSchedulesHoldEngineInvariants) {
  std::vector<unsigned> seeds = {1, 2, 3, 4};
  if (const char* env = std::getenv("QUERYER_CHAOS_SEED")) {
    seeds = {static_cast<unsigned>(std::strtoul(env, nullptr, 10))};
  }
  for (unsigned seed : seeds) {
    RunChaosRound(seed, dsd_, oagp_, oagv_, *reference_rows_);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace queryer
