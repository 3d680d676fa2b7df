// Quickstart: the paper's motivating example (Sec. 2), end to end.
//
// Loads the publications table P and venues table V of Tables 1-2, runs the
// plain SQL query (which misses the duplicates) and then the same query with
// the DEDUP keyword, printing the paper's Table 3 result.
//
//   ./quickstart

#include <cstdio>
#include <string>
#include <string_view>

#include "datagen/scholarly.h"
#include "engine/query_engine.h"

namespace {

void PrintResult(const queryer::QueryResult& result) {
  for (const std::string& column : result.columns) {
    std::printf("%-62s", column.c_str());
  }
  std::printf("\n");
  for (std::size_t r = 0; r < result.num_rows(); ++r) {
    for (std::size_t c = 0; c < result.columns.size(); ++c) {
      const std::string_view value = result.ValueAt(r, c);
      std::printf("%-62.*s", static_cast<int>(value.empty() ? 6 : value.size()),
                  value.empty() ? "(null)" : value.data());
    }
    std::printf("\n");
  }
  std::printf("(%zu rows, %zu comparisons executed)\n\n", result.num_rows(),
              result.stats.comparisons_executed);
}

}  // namespace

int main() {
  queryer::EngineOptions options;
  // The 14-row example is too small for Edge Pruning statistics; BP+BF is
  // the right configuration at this scale.
  options.meta_blocking = queryer::MetaBlockingConfig::BpBf();
  queryer::QueryEngine engine(options);

  // Register the dirty tables. In a real deployment these would come from
  // engine.RegisterCsvFile("publications.csv", "p").
  auto status = engine.RegisterTable(
      queryer::datagen::MakeMotivatingPublications().table);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  status = engine.RegisterTable(queryer::datagen::MakeMotivatingVenues().table);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("== Plain SQL (misses P2, P7 and V4's rank) ==\n");
  auto plain = engine.Execute(
      "SELECT P.Title, P.Year, V.Rank FROM P "
      "INNER JOIN V ON P.venue = V.title WHERE P.venue = 'EDBT'");
  if (!plain.ok()) {
    std::fprintf(stderr, "%s\n", plain.status().ToString().c_str());
    return 1;
  }
  PrintResult(*plain);

  std::printf("== SELECT DEDUP (the paper's Table 3) ==\n");
  auto dedup = engine.Execute(
      "SELECT DEDUP P.Title, P.Year, V.Rank FROM P "
      "INNER JOIN V ON P.venue = V.title WHERE P.venue = 'EDBT'");
  if (!dedup.ok()) {
    std::fprintf(stderr, "%s\n", dedup.status().ToString().c_str());
    return 1;
  }
  PrintResult(*dedup);

  std::printf("== Plan chosen by the cost-based planner ==\n%s\n",
              dedup->plan_text.c_str());

  // Prepare once, run many times: the statement is parsed and planned a
  // single time (the plan is inspectable without executing), and every
  // Open() is a fresh streaming session over the captured plan. The second
  // run is served from the Link Index — zero comparisons.
  std::printf("== Prepare + re-execute (streaming cursor) ==\n");
  auto prepared = engine.Prepare(
      "SELECT DEDUP P.Title, V.Rank FROM P "
      "INNER JOIN V ON P.venue = V.title WHERE P.venue = 'EDBT'");
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  for (int run = 1; run <= 2; ++run) {
    auto cursor = prepared->Open();
    if (!cursor.ok()) {
      std::fprintf(stderr, "%s\n", cursor.status().ToString().c_str());
      return 1;
    }
    std::size_t rows = 0;
    queryer::RowBatch batch((*cursor)->batch_size());
    while (true) {
      auto has = (*cursor)->Next(&batch);
      if (!has.ok()) {
        std::fprintf(stderr, "%s\n", has.status().ToString().c_str());
        return 1;
      }
      if (!*has) break;
      rows += batch.size();
    }
    std::printf("run %d: %zu rows, %zu comparisons executed, %zu entities "
                "served from the Link Index\n",
                run, rows, (*cursor)->stats().comparisons_executed,
                (*cursor)->stats().entities_already_resolved);
  }
  return 0;
}
