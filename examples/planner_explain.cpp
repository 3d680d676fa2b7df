// Planner walkthrough: shows the plans each execution mode produces for the
// same Dedupe Query and the comparison estimates behind the Advanced ER
// Solution's Dirty-Left / Dirty-Right decision (paper Sec. 7).
//
//   ./planner_explain

#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "datagen/orgs.h"
#include "datagen/people.h"
#include "engine/query_engine.h"
#include "planner/planner.h"

int main() {
  auto oao = queryer::datagen::MakeOrganisations(3000, 21);
  auto pool = queryer::datagen::OrganisationNamePool(oao);
  auto ppl = queryer::datagen::MakePeople(12000, pool, 23);

  queryer::QueryEngine engine;
  if (!engine.RegisterTable(ppl.table).ok() ||
      !engine.RegisterTable(oao.table).ok()) {
    return 1;
  }

  const std::string sql =
      "SELECT DEDUP ppl.surname, oao.name FROM ppl "
      "INNER JOIN oao ON ppl.org = oao.name WHERE MOD(ppl.id, 25) < 1";

  for (queryer::ExecutionMode mode :
       {queryer::ExecutionMode::kNaive, queryer::ExecutionMode::kNaive2,
        queryer::ExecutionMode::kAdvanced}) {
    engine.set_mode(mode);
    auto plan = engine.Explain(sql);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
      return 1;
    }
    std::printf("== %s ==\n%s\n",
                std::string(queryer::ExecutionModeToString(mode)).c_str(),
                plan->c_str());
  }

  // The estimates the AES decision is based on.
  auto stmt = queryer::ParseSelect(sql);
  auto ppl_runtime = engine.GetRuntime("ppl");
  auto oao_runtime = engine.GetRuntime("oao");
  if (stmt.ok() && ppl_runtime.ok() && oao_runtime.ok()) {
    queryer::StatisticsCache& stats = engine.statistics();
    std::printf("== Planner statistics ==\n");
    std::printf("join fraction ppl.org -> oao.name: %s\n",
                queryer::FormatDouble(
                    stats.JoinFraction(ppl_runtime->get(), "org",
                                       oao_runtime->get(), "name"),
                    3)
                    .c_str());
  }

  engine.set_mode(queryer::ExecutionMode::kAdvanced);
  auto result = engine.Execute(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nAES executed the query in %ss with %zu comparisons "
              "(%zu grouped rows).\n",
              queryer::FormatDouble(result->stats.total_seconds, 3).c_str(),
              result->stats.comparisons_executed, result->num_rows());
  return 0;
}
