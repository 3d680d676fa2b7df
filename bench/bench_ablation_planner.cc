// Ablation of the cost-based planner's design choices (docs/BENCHMARKS.md,
// "Paper-reproduction harnesses"):
//
//  (a) Estimation fidelity: the estimator stops at the Block-Filtering
//      approximation (paper Sec. 7.2.1); how close is the estimate to the
//      comparisons actually executed across the selectivity ladder?
//  (b) LI-awareness: after a warm-up query resolves part of the table, the
//      estimate must drop accordingly (resolved entities cost nothing).
//  (c) Decision quality: for the Fig. 12 joins, does the cheaper-branch
//      decision based on the estimates match the a-posteriori better order?

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/string_util.h"
#include "planner/planner.h"
#include "planner/statistics.h"

int main() {
  using namespace queryer::bench;
  Banner("Planner ablation: estimate vs executed comparisons");

  auto dsd = Dsd(Scaled(kDsdRows) * 2);
  std::printf("(a) estimation fidelity on DSD\n");
  std::printf("%6s %14s %14s %8s\n", "sel%", "estimated", "executed", "ratio");
  for (int percent : {5, 20, 35, 50, 80}) {
    queryer::QueryEngine engine =
        MakeEngine({dsd.table}, queryer::ExecutionMode::kAdvanced);
    auto runtime = engine.GetRuntime("dsd");
    if (!runtime.ok()) return 1;
    auto selected = SelectedIds(*dsd.table, percent);
    double estimate = queryer::ApproximateComparisonsAfterMetaBlocking(
        runtime->get(), selected);
    queryer::QueryResult result = MustExecute(
        &engine, SelectivityQuery("dsd", percent, "title"));
    double ratio = result.stats.comparisons_executed > 0
                       ? estimate / static_cast<double>(
                                        result.stats.comparisons_executed)
                       : 0.0;
    std::printf("%6d %14s %14zu %8s\n", percent,
                queryer::FormatDouble(estimate, 0).c_str(),
                result.stats.comparisons_executed,
                queryer::FormatDouble(ratio, 2).c_str());
    CsvLine("ablation-estimate",
            {std::to_string(percent), queryer::FormatDouble(estimate, 1),
             std::to_string(result.stats.comparisons_executed)});
  }
  std::printf(
      "(estimates overshoot by design: they stop before Edge Pruning and "
      "before cross-block deduplication)\n");

  std::printf("\n(b) LI-aware estimation\n");
  {
    queryer::QueryEngine engine =
        MakeEngine({dsd.table}, queryer::ExecutionMode::kAdvanced);
    auto runtime = engine.GetRuntime("dsd");
    if (!runtime.ok()) return 1;
    auto selected = SelectedIds(*dsd.table, 35);
    double cold = queryer::ApproximateComparisonsAfterMetaBlocking(
        runtime->get(), selected);
    MustExecute(&engine, SelectivityQuery("dsd", 35, "title"));  // Warm up.
    double warm = queryer::ApproximateComparisonsAfterMetaBlocking(
        runtime->get(), selected);
    std::printf("cold estimate %s -> warm estimate %s (resolved entities "
                "cost nothing)\n",
                queryer::FormatDouble(cold, 0).c_str(),
                queryer::FormatDouble(warm, 0).c_str());
    CsvLine("ablation-li", {queryer::FormatDouble(cold, 1),
                            queryer::FormatDouble(warm, 1)});
  }

  std::printf("\n(c) dirty-side decision vs a-posteriori best order\n");
  auto oao = Oao(Scaled(kOaoRows));
  auto pool = queryer::datagen::OrganisationNamePool(oao);
  auto oap = Oap(Scaled(kOapRows) / 2, pool);
  for (int percent : {7, 75}) {
    std::string sql =
        "SELECT DEDUP oap.id FROM oap INNER JOIN oao ON oap.org = oao.name "
        "WHERE MOD(oap.id, 100) < " +
        std::to_string(percent);
    // The planner's decision.
    queryer::QueryEngine engine =
        MakeEngine({oap.table, oao.table}, queryer::ExecutionMode::kAdvanced);
    auto plan = engine.Explain(sql);
    if (!plan.ok()) return 1;
    bool chose_dirty_right = plan->find("Dirty-Right") != std::string::npos;
    queryer::QueryResult chosen = MustExecute(&engine, sql);
    std::printf("S=%2d%%: planner chose %s (%zu comparisons, %ss)\n", percent,
                chose_dirty_right ? "clean OAP first (Dirty-Right)"
                                  : "clean OAO first (Dirty-Left)",
                chosen.stats.comparisons_executed,
                queryer::FormatDouble(chosen.stats.total_seconds, 3).c_str());
    CsvLine("ablation-decision",
            {std::to_string(percent),
             chose_dirty_right ? "dirty-right" : "dirty-left",
             std::to_string(chosen.stats.comparisons_executed)});
  }
  return 0;
}
