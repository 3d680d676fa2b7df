// ER-specific statistics of the cost-based planner (paper Sec. 7.2.1):
//
//  * Estimated comparisons of deduplicating a query selection: the selected
//    entities come from an exact scan with the compiled WHERE predicate
//    (`TablePredicate`, as a fused scan evaluates it), or are the whole
//    table without one. Their blocks are gathered from the ITBI, Block
//    Purging and Block Filtering are *approximated* on those blocks in one
//    pass over per-block counters, and the comparison formula is summed.
//    Estimation deliberately stops before Edge Pruning, whose output is too
//    expensive to predict — the paper terminates at the BF step for the
//    same reason.
//
//  * Join fraction: percentage of one table's entities whose join key
//    appears in another table, used to predict DR sizes after a join.

#ifndef QUERYER_PLANNER_STATISTICS_H_
#define QUERYER_PLANNER_STATISTICS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "exec/table_runtime.h"
#include "plan/expr.h"

namespace queryer {

/// \brief Cached statistics over the registered table runtimes.
///
/// Thread-safe: concurrent query sessions plan simultaneously. The
/// memoized join fractions sit behind a mutex; the estimation entry point
/// only reads the runtime's once-built indices and the internally
/// synchronized Link Index.
class StatisticsCache {
 public:
  /// \brief Estimated comparisons for resolving the entities of `runtime`
  /// selected by `predicate` (nullptr = whole table). `alias` is the
  /// qualifier under which the predicate's column refs address this table.
  Result<double> EstimateComparisons(TableRuntime* runtime,
                                     const Expr* predicate,
                                     const std::string& alias);

  /// \brief Fraction of `left` entities whose `left_column` join key occurs
  /// in `right`'s `right_column` (in [0, 1]).
  double JoinFraction(TableRuntime* left, const std::string& left_column,
                      TableRuntime* right, const std::string& right_column);

 private:
  std::mutex mutex_;
  std::map<std::string, double> join_fraction_;
};

/// \brief The comparison approximation core, exposed for tests and the
/// ablation bench: applies approximate BP + BF over the ITBI blocks of
/// `selected` and evaluates Σ |qb|·(|Sb| − (|qb|+1)/2).
double ApproximateComparisonsAfterMetaBlocking(
    TableRuntime* runtime, const std::vector<EntityId>& selected);

}  // namespace queryer

#endif  // QUERYER_PLANNER_STATISTICS_H_
