// Crash-recovery drills for the durable Link Index and the snapshot tier:
// the WAL round trip (publish/mark/mark-all/reset replayed bit-for-bit),
// compaction folding the log into a snapshot, torn tails from crash-mid-
// append failpoints (truncated on recovery, acked state never lost),
// corrupted logs failing cleanly, and the engine-level invariant the
// ISSUE pins: after ANY failpoint-injected crash (mid-log-append, mid-
// section-write, mid-fsync), every recovered link is genuine and a fault-
// free re-resolution on the recovered engine converges bit-for-bit to the
// clean-engine reference — with only the torn tail re-resolved. Capped by
// seeded write -> crash -> recover chaos loops (QUERYER_CHAOS_SEED narrows
// to one seed, as in the CI chaos matrix).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "matching/link_index.h"
#include "obs/metrics.h"
#include "persist/durable_link_index.h"
#include "persist/snapshot.h"
#include "storage/csv.h"

namespace queryer {
namespace {

using Rows = std::vector<std::vector<std::string>>;

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "recovery_test_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  EXPECT_TRUE(EnsureDir(dir).ok());
  return dir;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

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

// Opens (recovering) a durable index over `dir` attached to `index`.
std::unique_ptr<DurableLinkIndex> OpenDurable(
    const std::string& dir, LinkIndex* index,
    DurableLinkIndex::Options options = {}) {
  auto opened =
      DurableLinkIndex::Open(dir + "/t.li", dir + "/t.lilog", index, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(*opened) : nullptr;
}

// The full observable ER state of a LinkIndex, for bit-for-bit compares.
struct IndexState {
  std::vector<EntityId> representative;
  std::vector<std::vector<EntityId>> cluster;
  std::vector<bool> resolved;
  std::size_t num_links;

  static IndexState Capture(const LinkIndex& index) {
    IndexState state;
    for (EntityId e = 0; e < index.num_entities(); ++e) {
      state.representative.push_back(index.Representative(e));
      state.cluster.push_back(index.Cluster(e));
      state.resolved.push_back(index.IsResolved(e));
    }
    state.num_links = index.num_links();
    return state;
  }

  bool operator==(const IndexState& other) const {
    return representative == other.representative && cluster == other.cluster &&
           resolved == other.resolved && num_links == other.num_links;
  }
};

// ---- Durable Link Index: log round trip ----------------------------------

TEST(DurableLinkIndexTest, LogReplayRestoresLinksAndMarks) {
  const std::string dir = ScratchDir("replay");
  IndexState before;
  {
    LinkIndex index(10);
    auto durable = OpenDurable(dir, &index);
    ASSERT_NE(durable, nullptr);
    EXPECT_EQ(durable->recovery_stats().replayed_records, 0u);
    index.PublishLinks({{0, 1}, {2, 3}, {1, 4}});
    index.MarkResolvedBatch({0, 1, 2});
    index.PublishLinks({{5, 6}});
    index.MarkResolvedBatch({5});
    before = IndexState::Capture(index);
  }
  LinkIndex recovered(10);
  auto durable = OpenDurable(dir, &recovered);
  ASSERT_NE(durable, nullptr);
  EXPECT_EQ(IndexState::Capture(recovered), before);
  EXPECT_EQ(durable->recovery_stats().replayed_records, 4u);
  EXPECT_FALSE(durable->recovery_stats().torn_tail_truncated);
  // Recovered LSNs continue monotonically: new appends after recovery are
  // themselves recoverable.
  recovered.PublishLinks({{7, 8}});
  recovered.MarkResolvedBatch({7, 8});
}

TEST(DurableLinkIndexTest, MarkAllAndResetAreReplayed) {
  const std::string dir = ScratchDir("markall");
  {
    LinkIndex index(6);
    auto durable = OpenDurable(dir, &index);
    index.PublishLinks({{0, 1}});
    index.MarkAllResolved();
  }
  {
    LinkIndex recovered(6);
    auto durable = OpenDurable(dir, &recovered);
    EXPECT_EQ(recovered.num_resolved(), 6u);
    EXPECT_EQ(recovered.Representative(1), recovered.Representative(0));
    // Reset wipes the slate — and must survive recovery too.
    recovered.Reset();
  }
  LinkIndex after_reset(6);
  auto durable = OpenDurable(dir, &after_reset);
  EXPECT_EQ(after_reset.num_links(), 0u);
  EXPECT_EQ(after_reset.num_resolved(), 0u);
  EXPECT_EQ(after_reset.Representative(1), 1u);
}

TEST(DurableLinkIndexTest, CompactionFoldsLogIntoSnapshot) {
  const std::string dir = ScratchDir("compact");
  IndexState before;
  {
    LinkIndex index(12);
    auto durable = OpenDurable(dir, &index);
    index.PublishLinks({{0, 1}, {1, 2}, {4, 5}});
    index.MarkResolvedBatch({0, 1, 2, 4, 5});
    before = IndexState::Capture(index);
    ASSERT_TRUE(durable->Compact().ok());
    // The log is truncated to its header; the state lives in the snapshot.
    EXPECT_EQ(durable->log_bytes(), 16u);
    // Appends after compaction land in the (now tiny) log.
    index.PublishLinks({{6, 7}});
    index.MarkResolvedBatch({6, 7});
    before = IndexState::Capture(index);
  }
  LinkIndex recovered(12);
  auto durable = OpenDurable(dir, &recovered);
  ASSERT_NE(durable, nullptr);
  EXPECT_EQ(IndexState::Capture(recovered), before);
  EXPECT_GT(durable->recovery_stats().snapshot_lsn, 0u);
  // Only the post-compaction records replay.
  EXPECT_EQ(durable->recovery_stats().replayed_records, 2u);
}

TEST(DurableLinkIndexTest, SnapshotEntityCountMismatchIsCorruption) {
  const std::string dir = ScratchDir("size_mismatch");
  {
    LinkIndex index(8);
    auto durable = OpenDurable(dir, &index);
    index.PublishLinks({{0, 1}});
    ASSERT_TRUE(durable->Compact().ok());
  }
  LinkIndex wrong_size(9);
  auto opened = DurableLinkIndex::Open(dir + "/t.li", dir + "/t.lilog",
                                       &wrong_size, {});
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

// ---- Torn tails and log corruption ---------------------------------------

TEST(DurableLinkIndexTest, TornAppendIsTruncatedAndAckedStateSurvives) {
  const std::string dir = ScratchDir("torn");
  IndexState acked;
  {
    LinkIndex index(10);
    auto durable = OpenDurable(dir, &index);
    index.PublishLinks({{0, 1}, {2, 3}});
    index.MarkResolvedBatch({0, 1, 2, 3});
    acked = IndexState::Capture(index);
    // Crash mid-append: the failpoint writes a torn half-record and fails
    // the publish; the in-memory index must stay untouched...
    ScopedFailpoint armed("li.log_append", "error(once)");
    EXPECT_THROW(index.PublishLinks({{4, 5}}), LinkIndexWalError);
    EXPECT_EQ(IndexState::Capture(index), acked);
  }  // ...and the process "dies" with the torn tail on disk.
  const std::uint64_t torn_before =
      GlobalEngineMetrics().recovery_torn_tails->Value();
  LinkIndex recovered(10);
  auto durable = OpenDurable(dir, &recovered);
  ASSERT_NE(durable, nullptr);
  EXPECT_EQ(IndexState::Capture(recovered), acked);
  EXPECT_TRUE(durable->recovery_stats().torn_tail_truncated);
  EXPECT_EQ(GlobalEngineMetrics().recovery_torn_tails->Value(),
            torn_before + 1);
  // The truncated log is clean again: append + a third recovery round-trip.
  recovered.PublishLinks({{4, 5}});
  IndexState final_state = IndexState::Capture(recovered);
  durable.reset();
  LinkIndex again(10);
  auto durable2 = OpenDurable(dir, &again);
  EXPECT_EQ(IndexState::Capture(again), final_state);
  EXPECT_FALSE(durable2->recovery_stats().torn_tail_truncated);
}

TEST(DurableLinkIndexTest, TornAppendOverwrittenByNextSuccessfulAppend) {
  // A FAILED append must not poison a SURVIVING process: the next
  // successful append overwrites the torn half-record in place.
  const std::string dir = ScratchDir("overwrite");
  IndexState expected;
  {
    LinkIndex index(10);
    auto durable = OpenDurable(dir, &index);
    index.PublishLinks({{0, 1}});
    {
      ScopedFailpoint armed("li.log_append", "error(once)");
      EXPECT_THROW(index.PublishLinks({{2, 3}}), LinkIndexWalError);
    }
    index.PublishLinks({{4, 5}});  // Overwrites the torn bytes.
    index.MarkResolvedBatch({0, 1, 4, 5});
    expected = IndexState::Capture(index);
  }
  LinkIndex recovered(10);
  auto durable = OpenDurable(dir, &recovered);
  EXPECT_EQ(IndexState::Capture(recovered), expected);
  // No torn tail: the overwrite left a fully valid log.
  EXPECT_FALSE(durable->recovery_stats().torn_tail_truncated);
}

TEST(DurableLinkIndexTest, MidLogCorruptionTruncatesFromThere) {
  const std::string dir = ScratchDir("midflip");
  IndexState full;
  {
    LinkIndex index(10);
    auto durable = OpenDurable(dir, &index);
    index.PublishLinks({{0, 1}});
    index.PublishLinks({{2, 3}});
    index.PublishLinks({{4, 5}});
    full = IndexState::Capture(index);
  }
  // Flip one byte in the SECOND record's payload region. Standard WAL
  // semantics: replay stops at the first bad checksum; the first record
  // survives, everything from the flip on is gone.
  const std::string log_path = dir + "/t.lilog";
  std::string bytes = SlurpFile(log_path);
  ASSERT_GT(bytes.size(), 60u);
  bytes[55] = static_cast<char>(bytes[55] ^ 0xff);
  DumpFile(log_path, bytes);

  LinkIndex recovered(10);
  auto durable = OpenDurable(dir, &recovered);
  ASSERT_NE(durable, nullptr);
  EXPECT_TRUE(durable->recovery_stats().torn_tail_truncated);
  EXPECT_LT(durable->recovery_stats().replayed_records, 3u);
  // Whatever was recovered is a prefix of the acked state — links are
  // genuine, never invented.
  for (EntityId e = 0; e < 10; ++e) {
    for (EntityId member : recovered.Cluster(e)) {
      if (member == e) continue;
      EXPECT_EQ(full.representative[member], full.representative[e])
          << "recovered link " << e << "-" << member << " was never published";
    }
  }
}

TEST(DurableLinkIndexTest, CorruptLogHeaderFailsCleanly) {
  const std::string dir = ScratchDir("header");
  {
    LinkIndex index(4);
    auto durable = OpenDurable(dir, &index);
    index.PublishLinks({{0, 1}});
  }
  const std::string log_path = dir + "/t.lilog";
  std::string bytes = SlurpFile(log_path);
  bytes[0] = static_cast<char>(bytes[0] ^ 0xff);  // Break the magic.
  DumpFile(log_path, bytes);
  LinkIndex recovered(4);
  auto opened =
      DurableLinkIndex::Open(dir + "/t.li", dir + "/t.lilog", &recovered, {});
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

// ---- Engine-level crash drills -------------------------------------------

class CrashDrillTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dsd_ = new datagen::GeneratedDataset(datagen::MakeDsdLike(1400, 777));
    csv_path_ = new std::string(ScratchDir("drill_csv") + "/dsd.csv");
    ASSERT_TRUE(WriteCsvFile(*dsd_->table, *csv_path_).ok());
    // The clean-engine reference every recovery must converge to.
    QueryEngine reference;
    ASSERT_TRUE(reference.RegisterCsvFile(*csv_path_, "dsd").ok());
    auto result = reference.Execute(kDedupSql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference_rows_ = new Rows(result->rows);
    reference_comparisons_ = result->stats.comparisons_executed;
    ASSERT_FALSE(reference_rows_->empty());
  }
  static void TearDownTestSuite() {
    delete dsd_;
    delete csv_path_;
    delete reference_rows_;
    dsd_ = nullptr;
    csv_path_ = nullptr;
    reference_rows_ = nullptr;
  }

  static constexpr const char* kDedupSql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 25";

  // One write -> crash -> recover drill: run the DEDUP query on a durable
  // engine with `site` armed as `spec` (success or failure both fine —
  // the arming decides), destroy the engine mid-flight state and all,
  // then recover a fresh engine from the same data_dir and assert the
  // fault-free re-resolution answers bit-for-bit like the clean engine.
  void Drill(const std::string& data_dir, const std::string& site,
             const std::string& spec) {
    {
      EngineOptions options;
      options.data_dir = data_dir;
      QueryEngine crashing(options);
      ASSERT_TRUE(crashing.RegisterCsvFile(*csv_path_, "dsd").ok());
      ScopedFailpoint armed(site, spec);
      (void)crashing.Execute(kDedupSql);  // May fail — that is the drill.
      if (site == "persist.write_section" || site == "persist.fsync") {
        (void)crashing.SaveSnapshots();  // Crash inside the snapshot tier.
      }
    }  // "Crash": the engine dies; torn on-disk state stays.
    EngineOptions options;
    options.data_dir = data_dir;
    QueryEngine recovered(options);
    ASSERT_TRUE(recovered.RegisterCsvFile(*csv_path_, "dsd").ok())
        << "recovery must open whatever the crash left behind";
    auto result = recovered.Execute(kDedupSql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows, *reference_rows_)
        << site << " " << spec << ": recovered engine diverged";
    // Only the torn tail is re-resolved: recovery never does MORE
    // comparison work than a fully cold engine.
    EXPECT_LE(result->stats.comparisons_executed, reference_comparisons_);
  }

  static datagen::GeneratedDataset* dsd_;
  static std::string* csv_path_;
  static Rows* reference_rows_;
  static std::size_t reference_comparisons_;
};

datagen::GeneratedDataset* CrashDrillTest::dsd_ = nullptr;
std::string* CrashDrillTest::csv_path_ = nullptr;
Rows* CrashDrillTest::reference_rows_ = nullptr;
std::size_t CrashDrillTest::reference_comparisons_ = 0;

TEST_F(CrashDrillTest, CrashMidLogAppendEveryOtherRecord) {
  Drill(ScratchDir("drill_append"), "li.log_append", "error(every=2)");
}

TEST_F(CrashDrillTest, CrashOnFirstLogAppend) {
  Drill(ScratchDir("drill_first"), "li.log_append", "error");
}

TEST_F(CrashDrillTest, CrashMidSnapshotSectionWrite) {
  Drill(ScratchDir("drill_section"), "persist.write_section", "error(once)");
}

TEST_F(CrashDrillTest, CrashMidSnapshotFsync) {
  Drill(ScratchDir("drill_fsync"), "persist.fsync", "error(once)");
}

TEST_F(CrashDrillTest, RecoveredStateSkipsAlreadyResolvedWork) {
  // The half-successful run's surviving appends must SAVE work on
  // recovery: a crash after some clean publishes leaves a recovered
  // engine that re-resolves strictly less than a cold engine.
  const std::string data_dir = ScratchDir("drill_partial");
  {
    EngineOptions options;
    options.data_dir = data_dir;
    QueryEngine crashing(options);
    ASSERT_TRUE(crashing.RegisterCsvFile(*csv_path_, "dsd").ok());
    // Fault-free full run: everything resolved and logged...
    auto result = crashing.Execute(kDedupSql);
    ASSERT_TRUE(result.ok());
    // ...then a torn append right before "the crash".
    ScopedFailpoint armed("li.log_append", "error");
    auto runtime = crashing.GetRuntime("dsd");
    ASSERT_TRUE(runtime.ok());
    EXPECT_THROW((*runtime)->link_index().PublishLinks({{0, 1}}),
                 LinkIndexWalError);
  }
  EngineOptions options;
  options.data_dir = data_dir;
  QueryEngine recovered(options);
  ASSERT_TRUE(recovered.RegisterCsvFile(*csv_path_, "dsd").ok());
  auto result = recovered.Execute(kDedupSql);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows, *reference_rows_);
  EXPECT_EQ(result->stats.comparisons_executed, 0u)
      << "everything before the torn tail was already resolved";
}

// ---- Seeded chaos: write -> crash -> recover loops -----------------------

TEST_F(CrashDrillTest, SeededChaosLoopsConvergeAfterEveryCrash) {
  const char* seed_env = std::getenv("QUERYER_CHAOS_SEED");
  std::vector<unsigned> seeds = {1, 2, 3, 4};
  if (seed_env != nullptr) seeds = {static_cast<unsigned>(std::atoi(seed_env))};

  for (unsigned seed : seeds) {
    const std::string data_dir =
        ScratchDir("chaos_" + std::to_string(seed));
    // Several crash-recover rounds over the SAME data_dir: each round
    // recovers the previous round's torn state, does some faulty work,
    // and crashes again. Recovery must converge every single time.
    for (int round = 0; round < 3; ++round) {
      EngineOptions options;
      options.data_dir = data_dir;
      // Small compaction threshold: chaos rounds cross the compaction
      // boundary too, so snapshot+log recovery interleaves with pure-log.
      options.link_log_compact_bytes = 1 << 12;
      QueryEngine crashing(options);
      ASSERT_TRUE(crashing.RegisterCsvFile(*csv_path_, "dsd").ok());
      const std::string spec =
          "error(p=0.4,seed=" +
          std::to_string(seed * 100 + static_cast<unsigned>(round)) + ")";
      ScopedFailpoint armed("li.log_append", spec);
      (void)crashing.Execute(kDedupSql);
      (void)crashing.Execute(
          "SELECT DEDUP title FROM dsd WHERE MOD(id, 100) >= 75");
    }
    // Final recovery: fault-free, must match the clean-engine reference.
    EngineOptions options;
    options.data_dir = data_dir;
    QueryEngine recovered(options);
    ASSERT_TRUE(recovered.RegisterCsvFile(*csv_path_, "dsd").ok());
    auto result = recovered.Execute(kDedupSql);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_EQ(result->rows, *reference_rows_) << "seed " << seed;
    EXPECT_LE(result->stats.comparisons_executed, reference_comparisons_)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace queryer
