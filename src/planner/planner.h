// QueryER's planner (paper Sec. 7): turns a parsed statement into a logical
// plan under one of three strategies.
//
//  * kNaive  (NES, Fig. 5): Deduplicate directly above each Table Scan; the
//    WHERE predicate becomes a duplicate-group-aware filter above it.
//  * kNaive2 (Fig. 6): Deduplicate above the Filter of each branch, so only
//    the selected entities feed the ER pipeline.
//  * kAdvanced (AES, Figs. 7/8): cost-based — for each join, the branch with
//    the *lower* estimated comparison count is deduplicated first, and the
//    other side is resolved inside a Dirty-Left/Dirty-Right Deduplicate-Join
//    restricted to the entities that actually join.
//
// Non-DEDUP statements compile to plain relational plans regardless of mode.

#ifndef QUERYER_PLANNER_PLANNER_H_
#define QUERYER_PLANNER_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/table_runtime.h"
#include "plan/logical_plan.h"
#include "planner/statistics.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace queryer {

enum class PlannerMode { kNaive, kNaive2, kAdvanced };

std::string_view PlannerModeToString(PlannerMode mode);

/// \brief Logical planner over a catalog + runtime registry.
class Planner {
 public:
  Planner(const Catalog* catalog, RuntimeRegistry* runtimes,
          StatisticsCache* statistics)
      : catalog_(catalog), runtimes_(runtimes), statistics_(statistics) {}

  /// Builds the logical plan for a parsed statement.
  Result<PlanPtr> BuildPlan(const SelectStatement& stmt, PlannerMode mode);

 private:
  struct BoundTable {
    TableRef ref;
    std::shared_ptr<TableRuntime> runtime;
    ExprPtr predicate;  // Conjunction of this table's WHERE conjuncts.
  };

  Result<std::vector<BoundTable>> BindTables(const SelectStatement& stmt);
  /// Splits WHERE conjuncts into the per-table predicates of `tables` and
  /// appends WHERE-style equijoins to `extra_joins`.
  Status SplitWhere(const Expr* where, std::vector<BoundTable>* tables,
                    std::vector<JoinSpec>* extra_joins);
  /// Alias owning a column ref (resolving bare names through the schemas).
  Result<std::string> ResolveAlias(const Expr& column,
                                   const std::vector<BoundTable>& tables);

  Result<PlanPtr> BuildPlainPlan(const SelectStatement& stmt,
                                 std::vector<BoundTable> tables,
                                 std::vector<JoinSpec> joins);
  Result<PlanPtr> BuildDedupPlan(const SelectStatement& stmt,
                                 std::vector<BoundTable> tables,
                                 std::vector<JoinSpec> joins, PlannerMode mode);

  /// Scan [+ Filter] [+ Deduplicate / GroupFilter] for one branch.
  PlanPtr BuildBranch(const BoundTable& table, PlannerMode mode,
                      bool deduplicate);

  Result<PlanPtr> ApplyProjection(const SelectStatement& stmt, PlanPtr plan);

  const Catalog* catalog_;
  RuntimeRegistry* runtimes_;
  StatisticsCache* statistics_;
};

}  // namespace queryer

#endif  // QUERYER_PLANNER_PLANNER_H_
