// PreparedQuery: one SELECT statement, parsed and planned once against a
// QueryEngine, re-executable any number of times.
//
//   auto prepared = engine.Prepare(sql);              // Parse + plan once.
//   std::puts((*prepared).plan_text().c_str());       // Inspectable plan.
//   auto cursor = (*prepared).Open();                 // One streaming run.
//   ... drain *cursor ...
//   auto again = (*prepared).Open();                  // Plan reused as-is.
//
// The execution mode and the engine options (batch size, deadline,
// tracing, ...) are captured at Prepare time: later setter calls on the
// engine do not retroactively change a prepared query. Each Open() lowers
// the captured logical plan into a fresh physical tree (a new session with
// its own admission slot, session id and ExecStats), so concurrent opens
// of the same PreparedQuery from different threads are independent
// sessions. A PreparedQuery must not outlive its engine.

#ifndef QUERYER_ENGINE_PREPARED_QUERY_H_
#define QUERYER_ENGINE_PREPARED_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/engine_options.h"
#include "engine/query_cursor.h"
#include "exec/table_runtime.h"
#include "plan/logical_plan.h"
#include "sql/parser.h"

namespace queryer {

class QueryEngine;

/// \brief A parsed + planned SELECT, bound to its engine. Movable; cheap
/// to keep around for re-execution.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) noexcept = default;
  PreparedQuery& operator=(PreparedQuery&&) noexcept = default;
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  /// The SQL this query was prepared from.
  const std::string& sql() const { return sql_; }
  /// The logical plan the captured mode chose, printable form.
  const std::string& plan_text() const { return plan_text_; }
  /// True for SELECT DEDUP statements.
  bool dedup() const { return statement_.dedup; }
  /// True when the statement was prefixed with EXPLAIN [ANALYZE]. The
  /// prepared plan is the same either way — the flags only change how
  /// QueryEngine::Execute presents the answer.
  bool explain() const { return statement_.explain; }
  /// True for EXPLAIN ANALYZE: execute, then present the annotated plan.
  bool analyze() const { return statement_.analyze; }

  /// Opens one streaming session over the prepared plan: acquires an
  /// admission slot (blocking while the engine is at
  /// max_concurrent_queries), runs the mode's per-query ER prologue
  /// (Batch-Approach cleaning), lowers the plan and opens the operator
  /// tree. The returned cursor owns the slot and the session state until
  /// it is closed or destroyed.
  Result<CursorPtr> Open() const;

 private:
  friend class QueryEngine;

  PreparedQuery(QueryEngine* engine, std::string sql,
                SelectStatement statement, PlanPtr plan,
                EngineOptions options,
                std::vector<std::shared_ptr<TableRuntime>> involved);

  QueryEngine* engine_;
  std::string sql_;
  SelectStatement statement_;
  PlanPtr plan_;
  std::string plan_text_;
  /// Options snapshot from Prepare time; Open executes under these.
  EngineOptions options_;
  /// Runtimes of the tables the statement touches (resolved at Prepare),
  /// pinned so re-execution does not re-look them up.
  std::vector<std::shared_ptr<TableRuntime>> involved_;
};

}  // namespace queryer

#endif  // QUERYER_ENGINE_PREPARED_QUERY_H_
