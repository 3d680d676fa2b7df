// Golden DSD link set: a fixed dirty bibliography table, a fixed sequence
// of cold `SELECT DEDUP` slices, and the Link Index partition they leave
// behind, checked against tests/data/golden_dsd_links.v1.txt.
//
// The file pins what the matcher decides, end to end, on generated dirty
// data: any change to tokenization, the similarity kernel or its numeric
// details that moves a single link shows up here as a diff of clusters.
// The partition must be the same at 1 and 4 engine threads (the parallel
// comparison path publishes the same clustering as the sequential one).
//
// Regenerate only when a change to the matcher's decisions is intended:
// QUERYER_REGEN_GOLDEN=1 ./golden_links_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "matching/link_index.h"

namespace queryer {
namespace {

constexpr std::size_t kDsdRows = 3344;
constexpr std::uint64_t kDsdSeed = 20251015;
constexpr int kModulus = 200;
constexpr int kSlices = 24;

std::string GoldenPath() {
  return std::string(QUERYER_SOURCE_DIR) +
         "/tests/data/golden_dsd_links.v1.txt";
}

// Resolves the fixed slice sequence on a fresh engine and renders the
// resulting partition: one line per non-singleton cluster, members
// ascending, clusters ordered by their smallest member.
std::string ResolveAndRender(const TablePtr& table, std::size_t num_threads) {
  EngineOptions options;
  options.num_threads = num_threads;
  QueryEngine engine(options);
  EXPECT_TRUE(engine.RegisterTable(table).ok());
  for (int i = 0; i < kSlices; ++i) {
    // A scrambled but fixed order, so later slices meet clusters that
    // earlier ones already grew.
    const int slice = (37 * i + 11) % kModulus;
    const std::string sql =
        "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, " +
        std::to_string(kModulus) + ") = " + std::to_string(slice);
    auto result = engine.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  }
  auto runtime = engine.GetRuntime("dsd");
  EXPECT_TRUE(runtime.ok());
  const LinkIndex& li = (*runtime)->link_index();
  std::map<EntityId, std::vector<EntityId>> clusters;
  for (EntityId e = 0; e < table->num_rows(); ++e) {
    clusters[li.Representative(e)].push_back(e);
  }
  std::vector<std::vector<EntityId>> groups;
  for (auto& [rep, members] : clusters) {
    if (members.size() > 1) groups.push_back(std::move(members));
  }
  std::sort(groups.begin(), groups.end());
  std::ostringstream out;
  for (const std::vector<EntityId>& group : groups) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      out << (i == 0 ? "" : " ") << group[i];
    }
    out << "\n";
  }
  return out.str();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(GoldenLinksTest, DsdPartitionMatchesCheckedInFile) {
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(kDsdRows, kDsdSeed);
  const std::string serial = ResolveAndRender(dsd.table, 1);
  if (std::getenv("QUERYER_REGEN_GOLDEN") != nullptr) {
    std::ofstream(GoldenPath(), std::ios::binary) << serial;
  }
  const std::string golden = Slurp(GoldenPath());
  ASSERT_FALSE(golden.empty()) << GoldenPath();
  EXPECT_EQ(serial, golden);
  EXPECT_EQ(ResolveAndRender(dsd.table, 4), golden);
}

}  // namespace
}  // namespace queryer
