// The persistence tier's snapshot half: CRC32 and the snapshot container
// (round trip, atomic commit, failpoint-aborted writes), table snapshots
// (mmap-backed loads bit-identical to the builder-built table, including
// empty strings, embedded NUL bytes and arena-spanning dictionaries),
// index snapshots (TBI/ITBI + attribute weights round trip), snapshot-
// reader hardening (truncation, flipped bytes at every offset, wrong
// magic, future version — always a clean Status, never a crash), the
// checked-in golden file that pins format compatibility, and the engine-
// level warm-start contract: a snapshot-loaded engine answers bit-
// identically to the CSV-loaded one across the threads x batch matrix,
// and serves a previously-resolved DEDUP query with ZERO comparisons
// executed.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "datagen/orgs.h"
#include "datagen/people.h"
#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "matching/profile_matcher.h"
#include "persist/crc32.h"
#include "persist/index_snapshot.h"
#include "persist/snapshot.h"
#include "persist/table_snapshot.h"
#include "storage/csv.h"
#include "storage/table.h"
#include "tbi_oracle.h"

namespace queryer {
namespace {

using Rows = std::vector<std::vector<std::string>>;

// Fresh per-test scratch directory under the gtest temp root. Wiped on
// every call: stale durable state from a previous run must never leak
// into a "cold" engine.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "persist_test_" + name;
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

// ---- CRC32 ---------------------------------------------------------------

TEST(Crc32Test, KnownVectorsAndSeedChaining) {
  // The standard CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chaining via the seed equals the one-shot CRC of the concatenation.
  const std::uint32_t first = Crc32("1234", 4);
  EXPECT_EQ(Crc32("56789", 5, first), 0xCBF43926u);
  // A single flipped bit changes the sum.
  EXPECT_NE(Crc32("123456788", 9), 0xCBF43926u);
}

// ---- Snapshot container --------------------------------------------------

TEST(SnapshotContainerTest, RoundTripsSectionsAligned) {
  const std::string dir = ScratchDir("container");
  const std::string path = dir + "/round.snap";
  SnapshotWriter writer(SnapshotKind::kTable);
  writer.AddSection("first section");
  writer.AddSection("");  // Empty sections are legal.
  writer.AddSection(std::string("\x00\x01\x02\xff", 4));
  ASSERT_TRUE(writer.Commit(path, /*fsync=*/false).ok());

  auto reader = SnapshotReader::Open(path, SnapshotKind::kTable);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->num_sections(), 3u);
  EXPECT_EQ(reader->section(0), "first section");
  EXPECT_EQ(reader->section(1), "");
  EXPECT_EQ(reader->section(2), std::string_view("\x00\x01\x02\xff", 4));
  // The mmap-ability contract: every section starts 64-byte aligned.
  for (std::size_t i = 0; i < reader->num_sections(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reader->section(i).data()) % 64,
              0u)
        << "section " << i;
  }
}

TEST(SnapshotContainerTest, WrongKindIsRejected) {
  const std::string dir = ScratchDir("kind");
  const std::string path = dir + "/kind.snap";
  SnapshotWriter writer(SnapshotKind::kIndex);
  writer.AddSection("payload");
  ASSERT_TRUE(writer.Commit(path, false).ok());
  EXPECT_TRUE(
      SnapshotReader::Open(path, SnapshotKind::kTable).status().IsCorruption());
}

TEST(SnapshotContainerTest, FailpointAbortedCommitLeavesNoFile) {
  const std::string dir = ScratchDir("abort");
  const std::string path = dir + "/never.snap";
  ASSERT_TRUE(
      Failpoints::Global().Arm("persist.write_section", "error(once)").ok());
  SnapshotWriter writer(SnapshotKind::kTable);
  writer.AddSection("doomed");
  EXPECT_FALSE(writer.Commit(path, false).ok());
  Failpoints::Global().Disarm("persist.write_section");
  // Neither the target nor the temp file survives an aborted commit.
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(SnapshotContainerTest, AbortedRewriteKeepsThePreviousSnapshot) {
  const std::string dir = ScratchDir("atomic");
  const std::string path = dir + "/table.snap";
  SnapshotWriter first(SnapshotKind::kTable);
  first.AddSection("generation 1");
  ASSERT_TRUE(first.Commit(path, false).ok());

  ASSERT_TRUE(Failpoints::Global().Arm("persist.fsync", "error(once)").ok());
  SnapshotWriter second(SnapshotKind::kTable);
  second.AddSection("generation 2");
  EXPECT_FALSE(second.Commit(path, /*fsync=*/true).ok());
  Failpoints::Global().Disarm("persist.fsync");

  // The crash-mid-rewrite drill: the live file still holds generation 1.
  auto reader = SnapshotReader::Open(path, SnapshotKind::kTable);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->section(0), "generation 1");
}

// ---- Snapshot reader hardening (fuzz / corruption) -----------------------

TEST(SnapshotFuzzTest, TruncationsAtEveryLengthFailCleanly) {
  const std::string dir = ScratchDir("truncate");
  const std::string path = dir + "/full.snap";
  SnapshotWriter writer(SnapshotKind::kTable);
  writer.AddSection("some section payload to truncate");
  writer.AddSection(std::string(100, 'q'));
  ASSERT_TRUE(writer.Commit(path, false).ok());
  const std::string bytes = SlurpFile(path);

  const std::string cut = dir + "/cut.snap";
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    DumpFile(cut, bytes.substr(0, len));
    auto reader = SnapshotReader::Open(cut, SnapshotKind::kTable);
    ASSERT_FALSE(reader.ok()) << "length " << len;
    EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();
  }
  // And the un-truncated control still opens.
  DumpFile(cut, bytes);
  EXPECT_TRUE(SnapshotReader::Open(cut, SnapshotKind::kTable).ok());
}

TEST(SnapshotFuzzTest, EveryFlippedByteIsDetected) {
  const std::string dir = ScratchDir("flip");
  const std::string path = dir + "/full.snap";
  SnapshotWriter writer(SnapshotKind::kTable);
  writer.AddSection("sensitive payload");
  ASSERT_TRUE(writer.Commit(path, false).ok());
  const std::string bytes = SlurpFile(path);

  const std::string flipped = dir + "/flipped.snap";
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    DumpFile(flipped, mutated);
    auto reader = SnapshotReader::Open(flipped, SnapshotKind::kTable);
    // Flips in the zero padding between sections are outside every CRC's
    // coverage and harmless; everywhere else the flip must be caught.
    if (reader.ok()) {
      EXPECT_EQ(reader->section(0), "sensitive payload") << "byte " << i;
    } else {
      EXPECT_TRUE(reader.status().IsCorruption() ||
                  reader.status().IsNotImplemented())
          << "byte " << i << ": " << reader.status().ToString();
    }
  }
}

TEST(SnapshotFuzzTest, WrongMagicAndFutureVersion) {
  const std::string dir = ScratchDir("header");
  const std::string path = dir + "/full.snap";
  SnapshotWriter writer(SnapshotKind::kTable);
  writer.AddSection("x");
  ASSERT_TRUE(writer.Commit(path, false).ok());
  std::string bytes = SlurpFile(path);

  const std::string bad = dir + "/bad.snap";
  {
    std::string mutated = bytes;
    mutated.replace(0, 8, "NOTASNAP");
    DumpFile(bad, mutated);
    EXPECT_TRUE(
        SnapshotReader::Open(bad, SnapshotKind::kTable).status().IsCorruption());
  }
  {
    // Bump the version field (offset 8) past this build's. The header CRC
    // is deliberately not consulted first: a future-version file is
    // reported as kNotImplemented, not corruption.
    std::string mutated = bytes;
    const std::uint32_t future = kSnapshotFormatVersion + 1;
    std::memcpy(&mutated[8], &future, sizeof(future));
    DumpFile(bad, mutated);
    EXPECT_TRUE(SnapshotReader::Open(bad, SnapshotKind::kTable)
                    .status()
                    .IsNotImplemented());
  }
  {
    // Absurd section count with a fixed-up nothing: bounds-checked, clean
    // corruption.
    std::string mutated = bytes;
    const std::uint32_t huge = 0x7fffffff;
    std::memcpy(&mutated[16], &huge, sizeof(huge));
    DumpFile(bad, mutated);
    EXPECT_TRUE(
        SnapshotReader::Open(bad, SnapshotKind::kTable).status().IsCorruption());
  }
  EXPECT_TRUE(SnapshotReader::Open(dir + "/missing.snap", SnapshotKind::kTable)
                  .status()
                  .IsNotFound());
}

// ---- Table snapshots -----------------------------------------------------

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  EXPECT_EQ(a.name(), b.name());
  for (std::size_t attr = 0; attr < a.num_attributes(); ++attr) {
    EXPECT_EQ(a.schema().names()[attr], b.schema().names()[attr]);
    for (EntityId e = 0; e < a.num_rows(); ++e) {
      ASSERT_EQ(a.ValueAt(e, attr), b.ValueAt(e, attr))
          << "row " << e << " attr " << attr;
      // The determinism contract: codes survive, not just values.
      ASSERT_EQ(a.CodeAt(e, attr), b.CodeAt(e, attr))
          << "row " << e << " attr " << attr;
    }
  }
}

TEST(TableSnapshotTest, RoundTripsEmptyStringsAndEmbeddedNuls) {
  TableBuilder builder("weird", Schema({"id", "payload", "note"}));
  ASSERT_TRUE(builder.AddRow({"0", "", "empty payload"}).ok());
  ASSERT_TRUE(builder.AddRow({"1", std::string("a\0b", 3), "embedded nul"}).ok());
  ASSERT_TRUE(builder.AddRow({"2", std::string("\0", 1), "nul only"}).ok());
  ASSERT_TRUE(builder.AddRow({"3", "", "empty again"}).ok());
  ASSERT_TRUE(builder.AddRow({"4", std::string("x\0\0y", 4), "two nuls"}).ok());
  TablePtr original = builder.Build();

  const std::string path = ScratchDir("nuls") + "/weird.tbl";
  ASSERT_TRUE(TableSnapshotIO::Write(*original, path, false).ok());
  auto loaded = TableSnapshotIO::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTablesIdentical(*original, **loaded);
  // The NUL-termination contract ParseNumber relies on holds for mapped
  // dictionaries too: the byte past every value is readable and NUL.
  for (EntityId e = 0; e < (*loaded)->num_rows(); ++e) {
    const std::string_view v = (*loaded)->ValueAt(e, 1);
    EXPECT_EQ(v.data()[v.size()], '\0') << "row " << e;
  }
}

TEST(TableSnapshotTest, RoundTripsArenaSpanningDictionary) {
  // 5000 distinct long-ish values span several 64 KiB arena blocks when
  // built; the snapshot concatenates them and the loader must rebuild
  // every view at the right offset.
  TableBuilder builder("big", Schema({"id", "value"}));
  constexpr std::size_t kDistinct = 5000;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    ASSERT_TRUE(builder
                    .AddRow({std::to_string(i), "entity-" + std::to_string(i) +
                                                    "-" + std::string(40, 'x')})
                    .ok());
  }
  TablePtr original = builder.Build();
  const std::string path = ScratchDir("arena") + "/big.tbl";
  ASSERT_TRUE(TableSnapshotIO::Write(*original, path, false).ok());
  auto loaded = TableSnapshotIO::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTablesIdentical(*original, **loaded);
  EXPECT_EQ((*loaded)->column(1).dictionary().size(), kDistinct);
}

TEST(TableSnapshotTest, RoundTripsGeneratedDataset) {
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(800, 99);
  const std::string path = ScratchDir("dsd") + "/dsd.tbl";
  ASSERT_TRUE(TableSnapshotIO::Write(*dsd.table, path, false).ok());
  auto loaded = TableSnapshotIO::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTablesIdentical(*dsd.table, **loaded);
}

TEST(TableSnapshotTest, FuzzedTableSnapshotsNeverCrashTheLoader) {
  TableBuilder builder("t", Schema({"id", "v"}));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(builder.AddRow({std::to_string(i), "val" + std::to_string(i % 7)})
                    .ok());
  }
  TablePtr original = builder.Build();
  const std::string dir = ScratchDir("tbl_fuzz");
  const std::string path = dir + "/t.tbl";
  ASSERT_TRUE(TableSnapshotIO::Write(*original, path, false).ok());
  const std::string bytes = SlurpFile(path);

  // Deterministic byte-flip fuzz across the whole file. What this pins:
  // no flip, anywhere, crashes the loader or yields a corrupted table —
  // every outcome is either a clean error Status or a bit-identical load
  // (padding flips and identity flips).
  std::mt19937 rng(4242);
  const std::string mutated_path = dir + "/mut.tbl";
  for (int round = 0; round < 200; ++round) {
    std::string mutated = bytes;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(rng());
    DumpFile(mutated_path, mutated);
    auto loaded = TableSnapshotIO::Load(mutated_path);
    if (loaded.ok()) {
      // The flip hit padding or replaced a byte with itself — the table
      // must then be fully intact.
      ExpectTablesIdentical(*original, **loaded);
    }
  }
}

// ---- Index snapshots -----------------------------------------------------

TEST(IndexSnapshotTest, RoundTripsBlockIndexAndWeights) {
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(600, 123);
  BlockingOptions blocking;
  auto built = TableBlockIndex::Build(*dsd.table, blocking);
  AttributeWeights weights = AttributeWeights::Compute(*dsd.table);

  const std::string path = ScratchDir("index") + "/dsd.tbi";
  ASSERT_TRUE(IndexSnapshotIO::Write(*built, weights, path, false).ok());
  auto loaded = IndexSnapshotIO::Load(path, dsd.table->num_rows());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const TableBlockIndex& tbi = *loaded->tbi;
  ASSERT_EQ(tbi.num_blocks(), built->num_blocks());
  for (std::size_t b = 0; b < tbi.num_blocks(); ++b) {
    EXPECT_EQ(tbi.block_key(b), built->block_key(b));
    EXPECT_EQ(tbi.block_entities(b), built->block_entities(b));
    // The restored keys ascend: a binary search finds every block.
    EXPECT_EQ(FindBlock(tbi, tbi.block_key(b)),
              static_cast<std::int64_t>(b));
  }
  for (EntityId e = 0; e < dsd.table->num_rows(); ++e) {
    EXPECT_EQ(tbi.entity_blocks(e), built->entity_blocks(e)) << "entity " << e;
  }
  EXPECT_EQ(tbi.options().min_token_length, blocking.min_token_length);
  ASSERT_EQ(loaded->weights.size(), weights.size());
  for (std::size_t a = 0; a < weights.size(); ++a) {
    EXPECT_EQ(loaded->weights.weight(a), weights.weight(a)) << "attr " << a;
  }
}

TEST(IndexSnapshotTest, RowCountMismatchIsCorruption) {
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(200, 5);
  auto built = TableBlockIndex::Build(*dsd.table, BlockingOptions{});
  const std::string path = ScratchDir("index_rows") + "/dsd.tbi";
  ASSERT_TRUE(IndexSnapshotIO::Write(
                  *built, AttributeWeights::Compute(*dsd.table), path, false)
                  .ok());
  // A snapshot built over different table contents must not mis-index.
  EXPECT_TRUE(IndexSnapshotIO::Load(path, dsd.table->num_rows() - 1)
                  .status()
                  .IsCorruption());
}

// The `.tbi` bytes of the dictionary-code build equal those of the
// string-keyed oracle's index, so the format's content did not move.
TEST(IndexSnapshotTest, BuiltIndexBytesEqualOracleIndexBytes) {
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(900, 124);
  datagen::GeneratedDataset oao = datagen::MakeOrganisations(500, 125);
  datagen::GeneratedDataset ppl =
      datagen::MakePeople(700, datagen::OrganisationNamePool(oao), 126);
  const std::string dir = ScratchDir("index_bytes");
  for (const datagen::GeneratedDataset* dataset : {&dsd, &ppl, &oao}) {
    const Table& table = *dataset->table;
    for (std::size_t min_length : {1u, 2u}) {
      BlockingOptions blocking;
      blocking.min_token_length = min_length;
      blocking.excluded_attributes = {0};
      const std::string where =
          table.name() + " min_token_length " + std::to_string(min_length);
      TbiParts parts = OracleTbi(table, blocking);
      auto oracle = TableBlockIndex::FromParts(
          blocking, std::move(parts.block_keys),
          std::move(parts.block_entities), std::move(parts.entity_blocks));
      auto built = TableBlockIndex::Build(table, blocking);
      const AttributeWeights weights = AttributeWeights::Compute(table);
      ASSERT_TRUE(IndexSnapshotIO::Write(*built, weights, dir + "/built.tbi",
                                         false)
                      .ok());
      ASSERT_TRUE(IndexSnapshotIO::Write(*oracle, weights,
                                         dir + "/oracle.tbi", false)
                      .ok());
      EXPECT_EQ(SlurpFile(dir + "/built.tbi"), SlurpFile(dir + "/oracle.tbi"))
          << where;
      EXPECT_EQ(built->MemoryFootprint(), oracle->MemoryFootprint()) << where;

      ASSERT_GT(built->num_blocks(), 0u) << where;
      for (std::size_t b = 0; b < built->num_blocks(); ++b) {
        ASSERT_EQ(FindBlock(*built, built->block_key(b)),
                  static_cast<std::int64_t>(b))
            << where;
      }
      const std::string& first = built->block_key(0);
      const std::string& last = built->block_key(built->num_blocks() - 1);
      EXPECT_EQ(FindBlock(*built, ""), -1) << where;
      EXPECT_EQ(FindBlock(*built, first.substr(0, first.size() - 1) + '\x01'),
                -1)
          << where;
      EXPECT_EQ(FindBlock(*built, last + "zz"), -1) << where;
      EXPECT_EQ(FindBlock(*built, "\x7f"), -1) << where;
    }
  }
}

TEST(IndexSnapshotTest, UnsortedBlockKeysAreCorruption) {
  // Block ids follow key order, and Block-Join's output order and Block
  // Filtering's (size, block order) tie-break rest on it: a snapshot whose
  // keys are out of order is no index Build produced and must not load.
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(200, 6);
  BlockingOptions blocking;
  TbiParts parts = OracleTbi(*dsd.table, blocking);
  ASSERT_GE(parts.block_keys.size(), 2u);
  std::swap(parts.block_keys[0], parts.block_keys[1]);
  auto swapped = TableBlockIndex::FromParts(
      blocking, std::move(parts.block_keys), std::move(parts.block_entities),
      std::move(parts.entity_blocks));
  const std::string path = ScratchDir("index_unsorted") + "/dsd.tbi";
  ASSERT_TRUE(IndexSnapshotIO::Write(
                  *swapped, AttributeWeights::Compute(*dsd.table), path, false)
                  .ok());
  EXPECT_TRUE(IndexSnapshotIO::Load(path, dsd.table->num_rows())
                  .status()
                  .IsCorruption());
}

// ---- Golden snapshot (format compatibility) ------------------------------

TablePtr GoldenTable() {
  TableBuilder builder("golden", Schema({"id", "title", "venue"}));
  EXPECT_TRUE(builder.AddRow({"0", "QueryER", "EDBT"}).ok());
  EXPECT_TRUE(builder.AddRow({"1", "Query-Driven ER", "EDBT"}).ok());
  EXPECT_TRUE(builder.AddRow({"2", "", "VLDB"}).ok());
  EXPECT_TRUE(builder.AddRow({"3", std::string("a\0b", 3), ""}).ok());
  EXPECT_TRUE(builder.AddRow({"4", "QueryER", "edbt"}).ok());
  return builder.Build();
}

TEST(GoldenSnapshotTest, CheckedInFileStillLoads) {
  // tests/data/golden_table.v1.tbl is a committed format-v1 table
  // snapshot. Every future build must keep loading it bit-identically —
  // this is the CI tripwire against silent format changes. Regenerate
  // (and commit, bumping the name's version) only on a deliberate format
  // bump: QUERYER_REGEN_GOLDEN=1 ./persist_test.
  const std::string path =
      std::string(QUERYER_SOURCE_DIR) + "/tests/data/golden_table.v1.tbl";
  if (std::getenv("QUERYER_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(TableSnapshotIO::Write(*GoldenTable(), path, false).ok());
  }
  ASSERT_TRUE(FileExists(path)) << path;
  auto loaded = TableSnapshotIO::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTablesIdentical(*GoldenTable(), **loaded);
}

TEST(GoldenSnapshotTest, WriterOutputIsByteStableForTheGoldenTable) {
  // The writer is deterministic (no timestamps, no map iteration), so the
  // golden file also pins the WRITE side of the format: a fresh write of
  // the same logical table is byte-identical to the committed file.
  const std::string golden =
      std::string(QUERYER_SOURCE_DIR) + "/tests/data/golden_table.v1.tbl";
  if (!FileExists(golden)) GTEST_SKIP() << "golden not yet generated";
  const std::string fresh = ScratchDir("golden") + "/fresh.tbl";
  ASSERT_TRUE(TableSnapshotIO::Write(*GoldenTable(), fresh, false).ok());
  EXPECT_EQ(SlurpFile(fresh), SlurpFile(golden));
}

// ---- Engine-level warm start ---------------------------------------------

class WarmStartTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dsd_ = new datagen::GeneratedDataset(datagen::MakeDsdLike(2600, 4242));
    csv_path_ = new std::string(ScratchDir("warm_csv") + "/dsd.csv");
    ASSERT_TRUE(WriteCsvFile(*dsd_->table, *csv_path_).ok());
  }
  static void TearDownTestSuite() {
    delete dsd_;
    delete csv_path_;
    dsd_ = nullptr;
    csv_path_ = nullptr;
  }

  static datagen::GeneratedDataset* dsd_;
  static std::string* csv_path_;
};

datagen::GeneratedDataset* WarmStartTest::dsd_ = nullptr;
std::string* WarmStartTest::csv_path_ = nullptr;

TEST_F(WarmStartTest, SnapshotLoadedEngineMatchesCsvAcrossMatrix) {
  const std::string data_dir = ScratchDir("warm_matrix");
  // Cold engine: CSV-loaded, snapshots saved (indices warmed first).
  {
    EngineOptions options;
    options.data_dir = data_dir;
    QueryEngine cold(options);
    ASSERT_TRUE(cold.RegisterCsvFile(*csv_path_, "dsd").ok());
    ASSERT_TRUE(cold.SaveSnapshots().ok());
  }

  const std::vector<std::string> queries = {
      "SELECT * FROM dsd WHERE MOD(id, 100) < 30",
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10",
  };
  for (const std::string& sql : queries) {
    Rows reference;
    {
      QueryEngine csv_engine;
      ASSERT_TRUE(csv_engine.RegisterCsvFile(*csv_path_, "dsd").ok());
      auto result = csv_engine.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      reference = result->rows;
      ASSERT_FALSE(reference.empty());
    }
    for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
      EngineOptions options;
      options.data_dir = data_dir;
      options.num_threads = num_threads;
      QueryEngine warm(options);
      ASSERT_TRUE(warm.RegisterTableFromSnapshots("dsd").ok());
      auto result = warm.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->rows, reference)
          << sql << " threads=" << num_threads;
    }
  }
}

TEST_F(WarmStartTest, WarmRestartServesResolvedDedupWithZeroComparisons) {
  const std::string data_dir = ScratchDir("warm_zero");
  const std::string sql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";
  Rows first_answer;
  std::size_t cold_comparisons = 0;
  {
    EngineOptions options;
    options.data_dir = data_dir;
    QueryEngine cold(options);
    ASSERT_TRUE(cold.RegisterCsvFile(*csv_path_, "dsd").ok());
    auto result = cold.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    first_answer = result->rows;
    cold_comparisons = result->stats.comparisons_executed;
    EXPECT_GT(cold_comparisons, 0u);  // The cold run really resolved.
    ASSERT_TRUE(cold.SaveSnapshots().ok());
  }
  // Warm restart: a brand-new process image (new engine), snapshots only.
  {
    EngineOptions options;
    options.data_dir = data_dir;
    QueryEngine warm(options);
    ASSERT_TRUE(warm.RegisterTableFromSnapshots("dsd").ok());
    auto result = warm.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows, first_answer);
    // The acceptance pin: previously-resolved entities are served from the
    // recovered Link Index without a single comparison.
    EXPECT_EQ(result->stats.comparisons_executed, 0u);
    EXPECT_EQ(result->stats.entities_already_resolved,
              result->stats.query_entities);
  }
}

TEST_F(WarmStartTest, DurableEngineAnswersMatchEphemeralEngine) {
  // The durable Link Index must be a pure observer: with a data_dir, every
  // answer (and the comparison count) matches the in-memory engine's.
  const std::string data_dir = ScratchDir("warm_observer");
  const std::string sql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 20";
  QueryEngine plain;
  ASSERT_TRUE(plain.RegisterTable(dsd_->table).ok());
  auto expected = plain.Execute(sql);
  ASSERT_TRUE(expected.ok());

  EngineOptions options;
  options.data_dir = data_dir;
  QueryEngine durable(options);
  ASSERT_TRUE(durable.RegisterTable(dsd_->table).ok());
  auto actual = durable.Execute(sql);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(actual->rows, expected->rows);
  EXPECT_EQ(actual->stats.comparisons_executed,
            expected->stats.comparisons_executed);
}

TEST(PersistApiTest, SnapshotCallsWithoutDataDirFailCleanly) {
  QueryEngine engine;
  EXPECT_TRUE(engine.SaveSnapshots().ok());  // No tables: trivially OK.
  EXPECT_TRUE(engine.RegisterTableFromSnapshots("nope").IsInvalidArgument());
  TableBuilder builder("t", Schema({"id", "v"}));
  ASSERT_TRUE(builder.AddRow({"0", "x"}).ok());
  ASSERT_TRUE(engine.RegisterTable(builder.Build()).ok());
  EXPECT_TRUE(engine.SaveSnapshot("t").IsInvalidArgument());
}

}  // namespace
}  // namespace queryer
