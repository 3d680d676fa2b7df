// Paper Fig. 11: effect of the Link Index on consecutive overlapping
// queries. Four range queries Q10..Q13 over OAGP2M, each containing the
// previous query's selection plus ~30% more entities, run (a) with the LI
// persisting across queries, (b) with the LI reset before each query
// (TableRuntime::ResetLinkIndex, then the query plans and runs; TT counts
// the reset), and (c) against the Batch Approach.
//
// Expected shape: the two arms diverge query by query — with the LI the
// time falls toward zero (only the new entities are resolved), without it
// the time grows toward the BA line.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

int main() {
  using namespace queryer::bench;
  Banner("Fig. 11: consecutive overlapping queries with / without the LI");

  auto oagp = Oagp(Scaled(kSize2M) / 4);
  // Paper: Q10 selects 38% of the table, each following query +30%.
  const int percents[] = {38, 49, 64, 83};

  // Batch Approach reference (cleans everything once).
  queryer::QueryEngine ba =
      MakeEngine({oagp.table}, queryer::ExecutionMode::kBatch);
  queryer::QueryResult warmup =
      MustExecute(&ba, SelectivityQuery("oagp", 0, "title"));
  double ba_seconds = warmup.stats.total_seconds;
  std::printf("BA (clean everything once): %ss\n\n",
              queryer::FormatDouble(ba_seconds, 3).c_str());

  for (bool use_li : {true, false}) {
    queryer::QueryEngine engine =
        MakeEngine({oagp.table}, queryer::ExecutionMode::kAdvanced);
    auto runtime = engine.GetRuntime("oagp");
    if (!runtime.ok()) {
      std::fprintf(stderr, "%s\n", runtime.status().ToString().c_str());
      return 1;
    }
    std::printf("== %s LI ==\n", use_li ? "With" : "Without");
    std::printf("%-5s %6s %12s %12s %12s %10s\n", "query", "sel%", "|QE|",
                "from-LI", "comparisons", "TT(s)");
    for (int i = 0; i < 4; ++i) {
      queryer::Stopwatch reset;
      if (!use_li) (*runtime)->ResetLinkIndex();
      const double reset_seconds = use_li ? 0 : reset.ElapsedSeconds();
      queryer::QueryResult result = MustExecute(
          &engine, SelectivityQuery("oagp", percents[i], "title"));
      const double tt = reset_seconds + result.stats.total_seconds;
      std::printf("Q%-4d %6d %12zu %12zu %12zu %10s\n", 10 + i, percents[i],
                  result.stats.query_entities,
                  result.stats.entities_already_resolved,
                  result.stats.comparisons_executed,
                  queryer::FormatDouble(tt, 3).c_str());
      CsvLine("fig11",
              {use_li ? "with-li" : "without-li", "Q" + std::to_string(10 + i),
               std::to_string(percents[i]),
               std::to_string(result.stats.entities_already_resolved),
               std::to_string(result.stats.comparisons_executed),
               queryer::FormatDouble(tt, 4)});
    }
    std::printf("\n");
  }
  CsvLine("fig11", {"ba", "-", "-", "-", "-",
                    queryer::FormatDouble(ba_seconds, 4)});
  std::printf(
      "Shape to verify: with the LI the per-query TT decreases (approaching "
      "0); without it the TT increases toward the BA line (paper Fig. 11).\n");
  return 0;
}
