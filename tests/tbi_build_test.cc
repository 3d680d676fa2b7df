// TableBlockIndex::Build against the string-keyed oracle of tbi_oracle.h.
//
// Build works on dictionary codes: it tokenizes each distinct value once,
// interns the tokens into ids, and buckets rows by id. The oracle tokenizes
// every row into a std::set<std::string> and buckets keys in a std::map.
// Both must give the same block keys in the same order, the same ascending
// entity lists, and the same (size, id)-sorted ITBI, for every generated
// table and blocking option, and on the edge cases of the tokenizer.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "blocking/token_blocking.h"
#include "datagen/orgs.h"
#include "datagen/people.h"
#include "datagen/scholarly.h"
#include "storage/table.h"
#include "tbi_oracle.h"

namespace queryer {
namespace {

// Compares every part of Build(table, options) with the oracle's; returns
// the number of blocks.
std::size_t ExpectMatchesOracle(const Table& table,
                                const BlockingOptions& options,
                                const std::string& where) {
  SCOPED_TRACE(where);
  auto tbi = TableBlockIndex::Build(table, options);
  const TbiParts want = OracleTbi(table, options);
  EXPECT_EQ(tbi->num_blocks(), want.block_keys.size());
  if (tbi->num_blocks() != want.block_keys.size()) return 0;
  for (std::size_t b = 0; b < want.block_keys.size(); ++b) {
    EXPECT_EQ(tbi->block_key(b), want.block_keys[b]) << "block " << b;
    EXPECT_EQ(tbi->block_entities(b), want.block_entities[b]) << "block " << b;
  }
  EXPECT_EQ(tbi->num_entities(), table.num_rows());
  for (EntityId e = 0; e < table.num_rows() && e < tbi->num_entities(); ++e) {
    EXPECT_EQ(tbi->entity_blocks(e), want.entity_blocks[e]) << "entity " << e;
  }
  return want.block_keys.size();
}

TablePtr MakeTable(const std::vector<std::string>& attributes,
                   const std::vector<std::vector<std::string>>& rows) {
  TableBuilder builder("t", Schema(attributes));
  for (const auto& row : rows) EXPECT_TRUE(builder.AddRow(row).ok());
  return builder.Build();
}

std::vector<datagen::GeneratedDataset> GeneratedTables() {
  std::vector<datagen::GeneratedDataset> tables;
  tables.push_back(datagen::MakeDsdLike(1200, 31));
  datagen::GeneratedDataset oao = datagen::MakeOrganisations(900, 32);
  tables.push_back(
      datagen::MakePeople(1400, datagen::OrganisationNamePool(oao), 33));
  tables.push_back(std::move(oao));
  tables.push_back(
      datagen::MakeOagpLike(800, datagen::MakeVenueUniverse(300, 34), 35));
  return tables;
}

TEST(TbiBuildTest, GeneratedTablesMatchOracle) {
  for (const datagen::GeneratedDataset& dataset : GeneratedTables()) {
    const Table& table = *dataset.table;
    for (std::size_t min_length : {1u, 2u, 3u}) {
      for (bool exclude_id : {false, true}) {
        BlockingOptions options;
        options.min_token_length = min_length;
        if (exclude_id) options.excluded_attributes = {0};
        const std::string where = table.name() + " min_token_length " +
                                  std::to_string(min_length) +
                                  (exclude_id ? " id excluded" : "");
        EXPECT_GT(ExpectMatchesOracle(table, options, where), 100u) << where;
      }
    }
  }
}

TEST(TbiBuildTest, SeveralExcludedAttributes) {
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(600, 36);
  BlockingOptions options;
  options.excluded_attributes = {3, 0};  // venue and id.
  EXPECT_GT(ExpectMatchesOracle(*dsd.table, options, "dsd minus id, venue"),
            0u);
  options.excluded_attributes = {0, 1, 2, 3, 4};  // Every attribute.
  EXPECT_EQ(ExpectMatchesOracle(*dsd.table, options, "dsd, all excluded"),
            0u);
}

TEST(TbiBuildTest, EmptyTable) {
  TablePtr table = MakeTable({"id", "title"}, {});
  EXPECT_EQ(ExpectMatchesOracle(*table, BlockingOptions{}, "empty"), 0u);
}

TEST(TbiBuildTest, AllEmptyValues) {
  TablePtr table = MakeTable({"a", "b"}, {{"", ""}, {"", ""}, {"", ""}});
  EXPECT_EQ(ExpectMatchesOracle(*table, BlockingOptions{}, "all empty"), 0u);
  auto tbi = TableBlockIndex::Build(*table, BlockingOptions{});
  for (EntityId e = 0; e < 3; ++e) EXPECT_TRUE(tbi->entity_blocks(e).empty());
}

TEST(TbiBuildTest, TokenInTwoAttributesOfOneRowCountsOnce) {
  // Row 0 holds "edbt" in both attributes and twice in one value; row 1
  // holds it once. The block lists row 0 once; "solo" has one holder only.
  TablePtr table = MakeTable({"title", "venue"}, {{"EDBT solo edbt", "EDBT"},
                                                  {"x", "edbt"},
                                                  {"", ""}});
  EXPECT_EQ(ExpectMatchesOracle(*table, BlockingOptions{}, "shared token"), 1u);
  auto tbi = TableBlockIndex::Build(*table, BlockingOptions{});
  ASSERT_EQ(FindBlock(*tbi, "edbt"), 0);
  EXPECT_EQ(tbi->block_entities(0), (std::vector<EntityId>{0, 1}));
  EXPECT_EQ(FindBlock(*tbi, "solo"), -1);
}

TEST(TbiBuildTest, CaseVariantsAreOneKey) {
  // "EDBT" and "edbt" are distinct dictionary codes of one column but
  // lower-case to one key.
  TablePtr table = MakeTable({"venue"}, {{"EDBT"}, {"edbt"}, {"Edbt 2025"}});
  ASSERT_EQ(table->dictionary(0).size(), 3u);
  EXPECT_EQ(ExpectMatchesOracle(*table, BlockingOptions{}, "case"), 1u);
  auto tbi = TableBlockIndex::Build(*table, BlockingOptions{});
  EXPECT_EQ(tbi->block_entities(0), (std::vector<EntityId>{0, 1, 2}));
}

TEST(TbiBuildTest, OnlyShortTokens) {
  TablePtr table = MakeTable(
      {"a", "b"}, {{"a b", "c"}, {"a-b", "c.d"}, {"ab", "cd e"}, {"ab", "cd"}});
  EXPECT_EQ(ExpectMatchesOracle(*table, BlockingOptions{}, "short, min 2"),
            2u);  // "ab" and "cd".
  BlockingOptions options;
  options.min_token_length = 3;
  EXPECT_EQ(ExpectMatchesOracle(*table, options, "short, min 3"), 0u);
  options.min_token_length = 1;
  EXPECT_EQ(ExpectMatchesOracle(*table, options, "short, min 1"), 5u);
}

TEST(TbiBuildTest, NonAsciiBytes) {
  // Bytes outside ASCII separate tokens; keys compare as unsigned bytes.
  TablePtr table = MakeTable(
      {"name", "city"},
      {{"M\xC3\xBCller caf\xC3\xA9", "Z\xC3\xBCrich"},
       {"Muller cafe", "Zurich"},
       {"m\xC3\xBCLLER CAF\xC3\xA9", "z\xC3\xBCrich \xFF\x80"},
       {std::string("nul\0byte", 8), "nul"}});
  for (std::size_t min_length : {1u, 2u}) {
    BlockingOptions options;
    options.min_token_length = min_length;
    EXPECT_GT(ExpectMatchesOracle(*table, options,
                                  "non-ASCII, min " +
                                      std::to_string(min_length)),
              0u);
  }
}

TEST(TbiBuildTest, FindBlockBinarySearch) {
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(400, 37);
  BlockingOptions options;
  options.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(*dsd.table, options);
  ASSERT_GT(tbi->num_blocks(), 2u);
  for (std::size_t b = 0; b < tbi->num_blocks(); ++b) {
    EXPECT_EQ(FindBlock(*tbi, tbi->block_key(b)), static_cast<std::int64_t>(b));
    // A key one byte longer sorts right after block b's and is absent.
    EXPECT_EQ(FindBlock(*tbi, tbi->block_key(b) + '\x01'), -1);
  }
  // Before the first key, after the last, and empty.
  EXPECT_EQ(FindBlock(*tbi, ""), -1);
  EXPECT_EQ(FindBlock(*tbi, std::string(1, '\x01')), -1);
  EXPECT_EQ(FindBlock(*tbi, "\xFF\xFF"), -1);
}

}  // namespace
}  // namespace queryer
