// The comparison kernel against a deliberately simple oracle.
//
// The oracle below is the string-based profile similarity the kernel
// replaced: every comparison tokenizes both profiles into sorted
// std::string vectors, matches tokens greedily with Jaro-Winkler, and
// sums the cosine over a sorted (token, weight) list. The kernel must
// return the very same doubles (compared with memcmp, not a tolerance) on
// generated funnel pairs, random pairs and hand-picked edge cases, however
// the pairs are batched and chunked.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "blocking/block_join.h"
#include "blocking/token_blocking.h"
#include "common/string_util.h"
#include "datagen/orgs.h"
#include "datagen/people.h"
#include "datagen/scholarly.h"
#include "matching/comparison_execution.h"
#include "matching/comparison_kernel.h"
#include "matching/link_index.h"
#include "matching/similarity.h"
#include "metablocking/meta_blocking.h"
#include "parallel/thread_pool.h"

namespace queryer {
namespace {

// ---- The oracle ----------------------------------------------------------

bool OracleExcluded(const MatchingConfig& config, std::size_t attribute) {
  return std::find(config.excluded_attributes.begin(),
                   config.excluded_attributes.end(),
                   attribute) != config.excluded_attributes.end();
}

bool OracleTokensMatch(const std::string& a, const std::string& b) {
  if (a == b) return true;
  if (a.size() == 1 || b.size() == 1) return a[0] == b[0];
  return JaroWinklerSimilarity(a, b) >= kTokenMatchThreshold;
}

std::vector<std::string> OracleValueTokens(std::string_view value) {
  std::vector<std::string> tokens = TokenizeAlnum(value, 1);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

std::optional<double> OracleFiniteNumber(std::string_view value) {
  std::optional<double> number = ParseNumber(value);
  if (number.has_value() && !std::isfinite(*number)) return std::nullopt;
  return number;
}

double OracleValueSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::optional<double> na = OracleFiniteNumber(a);
  std::optional<double> nb = OracleFiniteNumber(b);
  if (na.has_value() && nb.has_value()) return *na == *nb ? 1.0 : 0.0;
  std::vector<std::string> tokens_a = OracleValueTokens(a);
  std::vector<std::string> tokens_b = OracleValueTokens(b);
  if (tokens_a.empty() || tokens_b.empty()) {
    return tokens_a.empty() == tokens_b.empty() ? 1.0 : 0.0;
  }
  const std::vector<std::string>& small =
      tokens_a.size() <= tokens_b.size() ? tokens_a : tokens_b;
  const std::vector<std::string>& large =
      tokens_a.size() <= tokens_b.size() ? tokens_b : tokens_a;
  std::vector<bool> used(large.size(), false);
  std::size_t shared = 0;
  for (const std::string& token : small) {
    for (std::size_t j = 0; j < large.size(); ++j) {
      if (used[j] || !OracleTokensMatch(token, large[j])) continue;
      used[j] = true;
      ++shared;
      break;
    }
  }
  return static_cast<double>(shared) /
         static_cast<double>(tokens_a.size() + tokens_b.size() - shared);
}

double OracleProfileSimilarity(const Table& table, EntityId a, EntityId b,
                               const MatchingConfig& config,
                               const AttributeWeights* weights) {
  auto weight_of = [&](std::size_t attribute) {
    return weights == nullptr ? 1.0 : weights->weight(attribute);
  };
  double aligned_total = 0;
  double aligned_weight = 0;
  double total_weight = 0;
  for (std::size_t i = 0; i < table.num_attributes(); ++i) {
    if (OracleExcluded(config, i)) continue;
    total_weight += weight_of(i);
    const std::string_view va = table.ValueAt(a, i);
    const std::string_view vb = table.ValueAt(b, i);
    if (va.empty() || vb.empty()) continue;
    double w = weight_of(i);
    aligned_total += w * (table.CodeAt(a, i) == table.CodeAt(b, i)
                              ? 1.0
                              : OracleValueSimilarity(va, vb));
    aligned_weight += w;
  }
  double aligned = aligned_weight == 0 ? 0.0 : aligned_total / aligned_weight;
  if (total_weight > 0 && aligned_weight < 0.5 * total_weight) {
    aligned *= aligned_weight / (0.5 * total_weight);
  }
  if (aligned >= kMatchThreshold) return aligned;

  auto gather = [&](EntityId e) {
    std::vector<std::pair<std::string, double>> tokens;
    for (std::size_t i = 0; i < table.num_attributes(); ++i) {
      if (OracleExcluded(config, i)) continue;
      double w = weight_of(i);
      for (auto& token : TokenizeAlnum(table.ValueAt(e, i), 1)) {
        tokens.emplace_back(std::move(token), w);
      }
    }
    std::sort(tokens.begin(), tokens.end());
    std::size_t out = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (out > 0 && tokens[out - 1].first == tokens[i].first) {
        tokens[out - 1].second =
            std::max(tokens[out - 1].second, tokens[i].second);
      } else {
        if (out != i) tokens[out] = std::move(tokens[i]);
        ++out;
      }
    }
    tokens.resize(out);
    return tokens;
  };
  std::vector<std::pair<std::string, double>> tokens_a = gather(a);
  std::vector<std::pair<std::string, double>> tokens_b = gather(b);
  double cosine = 0;
  if (!tokens_a.empty() && !tokens_b.empty()) {
    double dot = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < tokens_a.size() && j < tokens_b.size()) {
      int cmp = tokens_a[i].first.compare(tokens_b[j].first);
      if (cmp == 0) {
        dot += tokens_a[i].second * tokens_b[j].second;
        ++i;
        ++j;
      } else if (cmp < 0) {
        ++i;
      } else {
        ++j;
      }
    }
    double norm_a = 0;
    for (const auto& [token, w] : tokens_a) norm_a += w * w;
    double norm_b = 0;
    for (const auto& [token, w] : tokens_b) norm_b += w * w;
    if (norm_a > 0 && norm_b > 0 && dot > 0) {
      cosine = dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
    }
  }
  return std::max(aligned, cosine * kMatchThreshold / kCosineThreshold);
}

// ---- Helpers -------------------------------------------------------------

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

MatchingConfig IdExcluded() {
  MatchingConfig config;
  config.excluded_attributes = {0};
  return config;
}

// Builds one kernel over `pairs` and counts the pairs whose kernel score
// differs in any bit from the oracle's.
std::size_t CountMismatches(const Table& table,
                            const std::vector<Comparison>& pairs,
                            const MatchingConfig& config,
                            const AttributeWeights* weights) {
  ComparisonKernel kernel(table, pairs.data(), pairs.data() + pairs.size(),
                          config, weights);
  std::size_t mismatches = 0;
  for (const auto& [a, b] : pairs) {
    const double got = kernel.Similarity(a, b);
    const double want = OracleProfileSimilarity(table, a, b, config, weights);
    if (!SameBits(got, want)) {
      ++mismatches;
      ADD_FAILURE() << table.name() << " pair (" << a << ", " << b
                    << "): kernel " << got << " oracle " << want;
      if (mismatches > 5) break;
    }
  }
  return mismatches;
}

// The meta-blocking funnel of one query slice (MOD(row, modulus) = slice),
// as the engine runs it on a cold Link Index.
std::vector<Comparison> FunnelPairs(const Table& table,
                                    const TableBlockIndex& tbi,
                                    const BlockingOptions& options,
                                    std::size_t modulus, std::size_t slice) {
  std::vector<EntityId> selection;
  for (std::size_t e = slice; e < table.num_rows(); e += modulus) {
    selection.push_back(static_cast<EntityId>(e));
  }
  QueryBlockIndex qbi = QueryBlockIndex::Build(table, selection, options);
  return RunMetaBlocking(BlockJoin(qbi, tbi), MetaBlockingConfig::All())
      .comparisons;
}

std::vector<Comparison> RandomPairs(const Table& table, std::size_t count,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<EntityId> pick(
      0, static_cast<EntityId>(table.num_rows() - 1));
  std::vector<Comparison> pairs;
  while (pairs.size() < count) {
    EntityId a = pick(rng);
    EntityId b = pick(rng);
    if (a == b) continue;
    pairs.emplace_back(std::min(a, b), std::max(a, b));
  }
  return pairs;
}

// The generated tables of the benchmark's shapes (scaled down): DSD, and
// PPL with the OAO organisations it references.
std::vector<datagen::GeneratedDataset> GeneratedTables(std::uint64_t seed) {
  std::vector<datagen::GeneratedDataset> tables;
  tables.push_back(datagen::MakeDsdLike(1600, seed));
  datagen::GeneratedDataset oao = datagen::MakeOrganisations(1200, seed + 1);
  tables.push_back(datagen::MakePeople(
      2000, datagen::OrganisationNamePool(oao), seed + 2));
  tables.push_back(std::move(oao));
  return tables;
}

// ---- Generated data ------------------------------------------------------

TEST(ComparisonKernelTest, FunnelAndRandomPairsMatchOracleBitForBit) {
  const MatchingConfig config = IdExcluded();
  BlockingOptions options;
  options.excluded_attributes = {0};
  std::size_t total_pairs = 0;
  for (std::uint64_t seed : {11u, 29u}) {
    for (const datagen::GeneratedDataset& dataset : GeneratedTables(seed)) {
      const Table& table = *dataset.table;
      const AttributeWeights weights = AttributeWeights::Compute(table);
      auto tbi = TableBlockIndex::Build(table, options);
      for (std::size_t slice = 0; slice < 24; ++slice) {
        std::vector<Comparison> pairs =
            FunnelPairs(table, *tbi, options, 200, (7 * slice + 3) % 200);
        total_pairs += pairs.size();
        ASSERT_EQ(CountMismatches(table, pairs, config, &weights), 0u)
            << table.name() << " seed " << seed << " slice " << slice;
      }
      std::vector<Comparison> random = RandomPairs(table, 1500, seed);
      total_pairs += random.size();
      ASSERT_EQ(CountMismatches(table, random, config, &weights), 0u);
      ASSERT_EQ(CountMismatches(table, random, config, nullptr), 0u);
    }
  }
  EXPECT_GT(total_pairs, 50000u) << total_pairs;
}

TEST(ComparisonKernelTest, BoundedMemoEvictsAndStaysExact) {
  // Random PPL pairs touch tens of thousands of distinct token pairs, far
  // beyond one kernel's memo: entries are overwritten, answers are not.
  datagen::GeneratedDataset oao = datagen::MakeOrganisations(600, 3);
  datagen::GeneratedDataset ppl =
      datagen::MakePeople(3000, datagen::OrganisationNamePool(oao), 4);
  const Table& table = *ppl.table;
  const MatchingConfig config = IdExcluded();
  const AttributeWeights weights = AttributeWeights::Compute(table);
  std::vector<Comparison> pairs = RandomPairs(table, 6000, 17);
  ComparisonKernel kernel(table, pairs.data(), pairs.data() + pairs.size(),
                          config, &weights);
  std::size_t mismatches = 0;
  for (const auto& [a, b] : pairs) {
    if (!SameBits(kernel.Similarity(a, b),
                  OracleProfileSimilarity(table, a, b, config, &weights))) {
      ++mismatches;
    }
  }
  EXPECT_GT(kernel.memo_evictions(), 0u);
  EXPECT_EQ(mismatches, 0u);
  // A second pass hits the memo in a different state; still exact.
  for (const auto& [a, b] : pairs) {
    if (!SameBits(kernel.Similarity(a, b),
                  OracleProfileSimilarity(table, a, b, config, &weights))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ComparisonKernelTest, ChunkingDoesNotChangeScoresOrMatches) {
  datagen::GeneratedDataset dsd = datagen::MakeDsdLike(1600, 41);
  const Table& table = *dsd.table;
  const MatchingConfig config = IdExcluded();
  const AttributeWeights weights = AttributeWeights::Compute(table);
  BlockingOptions options;
  options.excluded_attributes = {0};
  auto tbi = TableBlockIndex::Build(table, options);
  std::vector<Comparison> pairs = FunnelPairs(table, *tbi, options, 20, 3);
  ASSERT_GE(pairs.size(), kParallelComparisonThreshold);

  // One kernel over everything vs one kernel per chunk of four.
  ComparisonKernel whole(table, pairs.data(), pairs.data() + pairs.size(),
                         config, &weights);
  std::vector<double> scores;
  for (const auto& [a, b] : pairs) scores.push_back(whole.Similarity(a, b));
  std::size_t mismatches = 0;
  for (const ChunkRange& chunk : SplitRange(pairs.size(), 4)) {
    ComparisonKernel part(table, pairs.data() + chunk.begin,
                          pairs.data() + chunk.end, config, &weights);
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      if (!SameBits(part.Similarity(pairs[i].first, pairs[i].second),
                    scores[i])) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // The staged evaluation: one chunk vs four chunks on four workers, each
  // worker with its own kernel.
  LinkIndex li(table.num_rows());
  auto serial = EvaluateComparisons(table, pairs, config, li, &weights);
  ThreadPool pool(4);
  auto parallel =
      EvaluateComparisons(table, pairs, config, li, &weights, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->executed, pairs.size());
  EXPECT_EQ(parallel->executed, pairs.size());
  EXPECT_EQ(parallel->matched, serial->matched);
  std::vector<Comparison> expected;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (scores[i] >= kMatchThreshold) expected.push_back(pairs[i]);
  }
  EXPECT_EQ(serial->matched, expected);
  EXPECT_FALSE(expected.empty());
}

// ---- Hand-picked edge cases ----------------------------------------------

std::string ManyTokens(std::size_t count, const std::string& prefix) {
  std::string value;
  for (std::size_t i = 0; i < count; ++i) {
    value += prefix + std::to_string(i * 7919 % 1000) + "x ";
  }
  return value;
}

const std::vector<std::string>& EdgeValues() {
  static const std::vector<std::string> values = {
      "",
      "7",
      "7.0",
      "2008",
      "Nan",
      "nan",
      "NaN",
      "inf",
      "-inf",
      "1e3",
      "collective e.r.",
      "collective entity resolution",
      "j. davids",
      "jane davids",
      "J",
      "entity resolution",
      "enitty resolution",
      "data data data",
      "data",
      "big big data data",
      "...",
      "-- / --",
      "caf\xc3\xa9 m\xc3\xbcnchen",
      "cafe munchen",
      "\xff\xfe",
      ManyTokens(70, "tok"),
      ManyTokens(65, "tok") + " extra",
      ManyTokens(80, "kot"),
      "Davidson, Lisa",
      "lisa davidson",
  };
  return values;
}

TEST(ComparisonKernelTest, ValueSimilarityEdgeCasesMatchOracle) {
  const std::vector<std::string>& values = EdgeValues();
  for (const std::string& a : values) {
    for (const std::string& b : values) {
      const double got = ValueSimilarity(a, b);
      const double want = OracleValueSimilarity(a, b);
      EXPECT_TRUE(SameBits(got, want))
          << "'" << a << "' vs '" << b << "': " << got << " vs " << want;
    }
    EXPECT_DOUBLE_EQ(ValueSimilarity(a, a), 1.0) << "'" << a << "'";
  }
}

TEST(ComparisonKernelTest, ProfileEdgeCasesMatchOracle) {
  // Rows cycle the edge values through four descriptive attributes, so
  // pairs meet every combination: both empty, one empty, numeric vs
  // non-numeric, long values, repeated tokens, punctuation only, high
  // bytes. Row i's column c holds value (i * (c + 1) + c) mod |values|.
  const std::vector<std::string>& values = EdgeValues();
  TableBuilder builder("edges", Schema({"id", "a", "b", "c", "d"}));
  const std::size_t rows = 2 * values.size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row = {std::to_string(i)};
    for (std::size_t c = 0; c < 4; ++c) {
      row.push_back(values[(i * (c + 1) + c) % values.size()]);
    }
    ASSERT_TRUE(builder.AddRow(row).ok());
  }
  TablePtr table = builder.Build();
  std::vector<Comparison> pairs;
  for (EntityId a = 0; a < rows; ++a) {
    for (EntityId b = a + 1; b < rows; ++b) pairs.emplace_back(a, b);
  }
  const AttributeWeights weights = AttributeWeights::Compute(*table);
  MatchingConfig excluded = IdExcluded();
  excluded.excluded_attributes.push_back(2);
  MatchingConfig nothing_excluded;
  for (const MatchingConfig& config :
       {IdExcluded(), excluded, nothing_excluded}) {
    EXPECT_EQ(CountMismatches(*table, pairs, config, &weights), 0u);
    EXPECT_EQ(CountMismatches(*table, pairs, config, nullptr), 0u);
  }
  // The one-pair entry point agrees too.
  for (std::size_t i = 0; i < pairs.size(); i += 17) {
    const auto [a, b] = pairs[i];
    EXPECT_TRUE(SameBits(
        ProfileSimilarity(*table, a, b, IdExcluded(), &weights),
        OracleProfileSimilarity(*table, a, b, IdExcluded(), &weights)));
  }
}

}  // namespace
}  // namespace queryer
