// Paper Table 8: effect of the Meta-Blocking configuration (ALL vs BP+BF vs
// BP+EP) on time and Pair Completeness, for the lowest- and highest-
// selectivity SP queries (Q1 ~5%, Q5 ~80%) on PPL1M and OAGP1M (scaled).
//
// Expected shape: ALL is fastest; BP+BF has the best PC (it never prunes a
// co-occurring pair); BP+EP is the slowest (Edge Pruning over an unfiltered
// graph).
//
// Exits 1 unless, for every dataset and query, that shape holds in counts:
// comparisons order ALL <= BP+EP <= BP+BF, and PC(BP+BF) >= PC(ALL).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/string_util.h"

namespace {

struct Config {
  const char* name;
  queryer::MetaBlockingConfig config;
};

/// Runs Q1 and Q5 under every configuration; returns false when a query
/// breaks the comparison or PC order in the header.
bool RunDataset(const std::string& name,
                const queryer::datagen::GeneratedDataset& ds) {
  using namespace queryer::bench;
  const Config configs[] = {
      {"ALL", queryer::MetaBlockingConfig::All()},
      {"BP+BF", queryer::MetaBlockingConfig::BpBf()},
      {"BP+EP", queryer::MetaBlockingConfig::BpEp()},
  };
  bool shape_holds = true;
  for (int percent : {5, 80}) {
    const char* query_name = percent == 5 ? "Q1" : "Q5";
    std::size_t comparisons[3];
    double pcs[3];
    for (int c = 0; c < 3; ++c) {
      const Config& config = configs[c];
      queryer::QueryEngine engine =
          MakeEngine({ds.table}, queryer::ExecutionMode::kAdvanced,
                     config.config, /*collect_comparisons=*/true);
      queryer::QueryResult result = MustExecute(
          &engine,
          SelectivityQuery(ds.table->name(), percent,
                           ds.table->schema().name(1)));
      double pc = ds.ground_truth.PairCompleteness(
          result.stats.collected_comparisons,
          SelectedIds(*ds.table, percent));
      std::printf("%-8s %-4s %-7s %10ss %12zu  PC=%s\n", name.c_str(),
                  query_name, config.name,
                  queryer::FormatDouble(result.stats.total_seconds, 3).c_str(),
                  result.stats.comparisons_executed,
                  queryer::FormatDouble(pc, 3).c_str());
      CsvLine("table8",
              {name, query_name, config.name,
               queryer::FormatDouble(result.stats.total_seconds, 4),
               std::to_string(result.stats.comparisons_executed),
               queryer::FormatDouble(pc, 4)});
      comparisons[c] = result.stats.comparisons_executed;
      pcs[c] = pc;
    }
    if (!(comparisons[0] <= comparisons[2] &&
          comparisons[2] <= comparisons[1] && pcs[1] >= pcs[0])) {
      std::fprintf(stderr,
                   "%s %s breaks Table 8's shape: comparisons ALL=%zu "
                   "BP+EP=%zu BP+BF=%zu (want ALL <= BP+EP <= BP+BF), "
                   "PC ALL=%s BP+BF=%s (want BP+BF >= ALL)\n",
                   name.c_str(), query_name, comparisons[0], comparisons[2],
                   comparisons[1], queryer::FormatDouble(pcs[0], 4).c_str(),
                   queryer::FormatDouble(pcs[1], 4).c_str());
      shape_holds = false;
    }
  }
  return shape_holds;
}

}  // namespace

int main() {
  using namespace queryer::bench;
  Banner("Table 8: Meta-Blocking configurations (time and PC)");
  std::printf("(datasets at 1/5 of the usual bench scale: the BP+EP cell is the\n configuration the paper aborted after 30 minutes)\n");
  std::printf("%-8s %-4s %-7s %11s %12s\n", "E", "Q", "config", "TT", "comp.");

  auto ppl = Ppl(Scaled(kSize1M) / 5, {});
  bool shape_holds = RunDataset("PPL1M", ppl);
  auto oagp = Oagp(Scaled(kSize1M) / 5);
  shape_holds = RunDataset("OAGP1M", oagp) && shape_holds;

  std::printf(
      "\nPaper (Table 8): ALL fastest (PC 0.82-0.92), BP+BF best PC "
      "(0.987-0.996) but 6-9x slower, BP+EP did not finish in 30 min.\n");
  return shape_holds ? 0 : 1;
}
