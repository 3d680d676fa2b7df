// Unit tests for storage: schema, table, CSV round-trips, catalog.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace queryer {
namespace {

TEST(SchemaTest, MakeValidatesNames) {
  EXPECT_TRUE(Schema::Make({"id", "title"}).ok());
  EXPECT_FALSE(Schema::Make({}).ok());
  EXPECT_FALSE(Schema::Make({"id", "ID"}).ok());  // Case-insensitive dup.
}

TEST(SchemaTest, CaseInsensitiveLookup) {
  Schema schema({"Id", "Title", "Venue"});
  EXPECT_EQ(schema.IndexOf("title"), 1u);
  EXPECT_EQ(schema.IndexOf("VENUE"), 2u);
  EXPECT_FALSE(schema.IndexOf("missing").has_value());
}

TEST(SchemaTest, Equals) {
  Schema a({"id", "x"});
  Schema b({"ID", "X"});
  Schema c({"id", "y"});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
}

TEST(TableTest, BuilderChecksArity) {
  TableBuilder builder("t", Schema({"a", "b"}));
  EXPECT_TRUE(builder.AddRow({"1", "2"}).ok());
  EXPECT_FALSE(builder.AddRow({"1"}).ok());
  EXPECT_FALSE(builder.AddRow({"1", "2", "3"}).ok());
  TablePtr table = builder.Build();
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->ValueAt(0, 1), "2");
}

TEST(CsvTest, ParsesHeaderAndRows) {
  auto result = ReadCsvString("id,title\n1,Entity Resolution\n2,Blocking\n", "t");
  ASSERT_TRUE(result.ok());
  TablePtr table = *result;
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->schema().name(1), "title");
  EXPECT_EQ(table->ValueAt(1, 1), "Blocking");
}

TEST(CsvTest, QuotedFields) {
  auto result = ReadCsvString(
      "id,title\n1,\"Resolution, collective\"\n2,\"say \"\"hi\"\"\"\n", "t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->ValueAt(0, 1), "Resolution, collective");
  EXPECT_EQ((*result)->ValueAt(1, 1), "say \"hi\"");
}

TEST(CsvTest, EmbeddedNewlineInQuotes) {
  auto result = ReadCsvString("a,b\n\"line1\nline2\",x\n", "t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->ValueAt(0, 0), "line1\nline2");
}

TEST(CsvTest, CrLfAndTrailingBlankLines) {
  auto result = ReadCsvString("a,b\r\n1,2\r\n\r\n", "t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 1u);
  EXPECT_EQ((*result)->ValueAt(0, 1), "2");
}

TEST(CsvTest, NoHeaderGeneratesColumnNames) {
  CsvOptions options;
  options.has_header = false;
  auto result = ReadCsvString("1,2\n3,4\n", "t", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->schema().name(0), "c0");
  EXPECT_EQ((*result)->num_rows(), 2u);
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ReadCsvString("", "t").ok());                 // Empty input.
  EXPECT_FALSE(ReadCsvString("a,b\n\"unterminated\n", "t").ok());
  EXPECT_FALSE(ReadCsvString("a,b\nx\"y,2\n", "t").ok());    // Stray quote.
}

TEST(CsvTest, RoundTrip) {
  TableBuilder builder("t", Schema({"a", "b"}));
  ASSERT_TRUE(builder.AddRow({"plain", "with, comma"}).ok());
  ASSERT_TRUE(builder.AddRow({"quote\"inside", ""}).ok());
  TablePtr table = builder.Build();
  std::string csv = WriteCsvString(*table);
  auto parsed = ReadCsvString(csv, "t2");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ((*parsed)->num_rows(), table->num_rows());
  for (EntityId e = 0; e < table->num_rows(); ++e) {
    for (std::size_t a = 0; a < table->num_attributes(); ++a) {
      EXPECT_EQ((*parsed)->ValueAt(e, a), table->ValueAt(e, a));
    }
  }
}

TEST(CsvTest, FileRoundTrip) {
  TableBuilder builder("t", Schema({"x"}));
  ASSERT_TRUE(builder.AddRow({"value"}).ok());
  TablePtr table = builder.Build();
  std::string path =
      (std::filesystem::temp_directory_path() / "queryer_csv_test.csv").string();
  ASSERT_TRUE(WriteCsvFile(*table, path).ok());
  auto parsed = ReadCsvFile(path, "t");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->ValueAt(0, 0), "value");
  std::remove(path.c_str());
  EXPECT_FALSE(ReadCsvFile(path, "t").ok());  // Now missing.
}

// A directory opens as an ifstream on Linux but cannot be read: that is an
// I/O failure, not an empty CSV.
TEST(CsvTest, DirectoryPathIsIoError) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  auto result = ReadCsvFile(dir, "t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError)
      << result.status().ToString();
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  TablePtr table = TableBuilder("Pubs", Schema({"id"})).Build();
  ASSERT_TRUE(catalog.Register(table).ok());
  EXPECT_TRUE(catalog.Contains("pubs"));
  auto fetched = catalog.Get("PUBS");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)->name(), "Pubs");
  EXPECT_FALSE(catalog.Get("other").ok());
}

TEST(CatalogTest, DuplicateRejectedReplaceAllowed) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(TableBuilder("t", Schema({"a"})).Build()).ok());
  EXPECT_EQ(catalog.Register(TableBuilder("T", Schema({"a"})).Build()).code(),
            StatusCode::kAlreadyExists);
  catalog.RegisterOrReplace(TableBuilder("T", Schema({"b"})).Build());
  auto fetched = catalog.Get("t");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)->schema().name(0), "b");
  EXPECT_EQ(catalog.size(), 1u);
}

}  // namespace
}  // namespace queryer
