// QueryEngine: the public facade of QueryER.
//
//   QueryEngine engine;
//   engine.RegisterTable(my_table);                  // or RegisterCsvFile
//
//   // One-shot materialized answer:
//   auto result = engine.Execute(
//       "SELECT DEDUP p.title, v.rank FROM p "
//       "INNER JOIN v ON p.venue = v.title WHERE p.venue = 'EDBT'");
//
//   // Streaming: batches arrive as soon as the relevant entities are
//   // resolved; abandon early and pay only for what you consumed.
//   auto prepared = engine.Prepare(sql);             // Parse + plan once.
//   auto cursor = prepared->Open();                  // Or ExecuteStream(sql).
//   RowBatch batch((*cursor)->batch_size());
//   while (true) {
//     auto has = (*cursor)->Next(&batch);            // Result<bool>.
//     if (!has.ok() || !*has) break;                 // Error / end of stream.
//     ...use batch...
//   }
//
// The engine owns the catalog, the per-table ER runtimes (Table Block Index
// + Link Index, built once-off), the statistics cache of the cost-based
// planner, and the execution-mode switch that selects between the Batch
// Approach baseline and the Naive/Advanced ER solutions of the paper.
// Execute is a thin wrapper that opens a cursor and materializes it, so
// every query — one-shot or streaming — takes the same path.

#ifndef QUERYER_ENGINE_QUERY_ENGINE_H_
#define QUERYER_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine_options.h"
#include "engine/prepared_query.h"
#include "engine/query_cursor.h"
#include "exec/exec_stats.h"
#include "exec/executor.h"
#include "exec/row_batch.h"
#include "exec/table_runtime.h"
#include "parallel/thread_pool.h"
#include "planner/planner.h"
#include "planner/statistics.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "storage/csv.h"

namespace queryer {

class DurableLinkIndex;

/// \brief The QueryER engine.
///
/// Thread-safety: Prepare, Execute, ExecuteStream and Explain may be called
/// from any number of client threads once every table is registered.
/// Admission is bounded by EngineOptions::max_concurrent_queries — an open
/// QueryCursor counts as one admitted session for its whole lifetime, so at
/// max_concurrent_queries == 1 a second session (including one opened by
/// the same thread) blocks until the first cursor closes. Admitted sessions
/// share the Link Index through its reader/writer protocol and split
/// resolution work via the per-table ResolutionCoordinator: every entity is
/// resolved exactly once (in claim order) and no comparison runs twice in
/// flight, so the execution is equivalent to a serial interleaving of the
/// same queries — each answer is one that some serial schedule produces,
/// and the final link set matches that schedule's. Queries whose answers
/// depend on the serial ORDER (overlapping selections whose meta-blocking
/// prunes differently per order) are order-sensitive serially and stay so
/// concurrently.
/// Registration (RegisterTable/RegisterCsvFile) and the setters are NOT
/// safe against in-flight queries — finish setup first.
class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options = {});

  /// Registers an in-memory table. Fails on duplicate names.
  Status RegisterTable(TablePtr table);

  /// Loads a CSV file as a table named `table_name`.
  Status RegisterCsvFile(const std::string& path, std::string table_name);

  /// Registers a table from its snapshots under EngineOptions::data_dir
  /// (written by an earlier SaveSnapshot): the mmap-backed table from
  /// `<name>.tbl`, the block index + attribute weights from `<name>.tbi`
  /// when present (WarmIndices then rebuilds nothing), and the durable
  /// Link Index from `<name>.li`/`<name>.lilog` like every registration.
  /// Fails with kNotFound when the table snapshot is missing, kCorruption
  /// when any file is damaged.
  Status RegisterTableFromSnapshots(const std::string& table_name);

  /// Writes `<name>.tbl` + `<name>.tbi` under data_dir (warming the
  /// indices first if needed) and compacts the durable link log. Requires
  /// EngineOptions::data_dir. No query may be in flight (snapshotting
  /// reads the runtime's configuration like the setters do).
  Status SaveSnapshot(const std::string& table_name);

  /// SaveSnapshot for every registered table.
  Status SaveSnapshots();

  /// Parses and plans one SELECT statement, capturing the current mode and
  /// options. The returned query can be inspected (plan_text) and opened
  /// any number of times; it must not outlive the engine. Does not take an
  /// admission slot — planning is thread-safe — so preparing while one of
  /// your own cursors is open never blocks.
  Result<PreparedQuery> Prepare(const std::string& sql);

  /// Prepare + PreparedQuery::Open in one call: a streaming cursor over
  /// the statement's answer. Blocks while the engine is at
  /// max_concurrent_queries (an open cursor holds its slot until closed).
  Result<CursorPtr> ExecuteStream(const std::string& sql);

  /// Parses, plans and executes one SELECT statement, materializing the
  /// whole answer. A thin wrapper over ExecuteStream — the streaming
  /// cursor is the only drain path. Safe to call concurrently (see the
  /// class comment).
  ///
  /// `EXPLAIN SELECT ...` statements execute nothing and return the static
  /// plan as rows (one line per row, single "QUERY PLAN" column).
  /// `EXPLAIN ANALYZE SELECT ...` statements execute the query in full,
  /// discard its answer, and return the plan annotated with per-operator
  /// cardinalities and self-times plus the ExecStats ER-stage breakdown.
  Result<QueryResult> Execute(const std::string& sql);

  /// Returns the logical plan the current mode would execute. When `sql`
  /// is prefixed with `EXPLAIN ANALYZE`, the statement is executed (one
  /// admitted session, answer discarded) and the annotated plan comes
  /// back instead — per-operator rows/batches/self-time plus the stats
  /// summary.
  Result<std::string> Explain(const std::string& sql);

  /// Eagerly builds the once-off indices of a table (otherwise they are
  /// built on first use).
  Status WarmIndices(const std::string& table_name);

  Result<std::shared_ptr<TableRuntime>> GetRuntime(
      const std::string& table_name);

  const Catalog& catalog() const { return catalog_; }
  StatisticsCache& statistics() { return *statistics_; }

  /// The options this engine was constructed with, as changed by the
  /// setters below. The query server reads its tenant quota and admission
  /// settings here.
  const EngineOptions& options() const { return options_; }

  /// Effective worker count (1 when running sequentially).
  std::size_t num_threads() const {
    return pool_ == nullptr ? 1 : pool_->num_threads();
  }
  /// The engine's pool; null when running sequentially.
  ThreadPool* thread_pool() { return pool_.get(); }

  ExecutionMode mode() const { return options_.mode; }
  void set_mode(ExecutionMode mode) { options_.mode = mode; }
  /// Setters are registration-time only (no query may be in flight), and
  /// do not affect already-prepared queries (options are captured at
  /// Prepare time).
  void set_collect_comparisons(bool collect) {
    options_.collect_comparisons = collect;
  }
  /// Per-session deadline (seconds; 0 = none) for queries prepared from
  /// now on. Same between-queries-only contract as the other setters.
  void set_default_query_deadline(double seconds) {
    options_.default_query_deadline = seconds;
  }
  /// Bounded-admission timeout (seconds; 0 = wait indefinitely) for
  /// queries prepared from now on; see EngineOptions::admission_timeout.
  void set_admission_timeout(double seconds) {
    options_.admission_timeout = seconds;
  }

 private:
  friend class PreparedQuery;

  Result<SelectStatement> Parse(const std::string& sql) const;
  Result<std::vector<std::shared_ptr<TableRuntime>>> InvolvedRuntimes(
      const SelectStatement& stmt);
  PlannerMode PlannerModeFor(ExecutionMode mode) const;

  /// The session factory behind PreparedQuery::Open / ExecuteStream:
  /// acquires an admission slot, runs the captured mode's ER prologue
  /// (BA cleaning), lowers the prepared plan and opens the tree. On
  /// failure the slot is released before returning.
  Result<CursorPtr> OpenPrepared(const PreparedQuery& prepared);

  /// Recovers/creates the durable Link Index files for a freshly built
  /// runtime and attaches the sidecar. Only called when data_dir is set.
  Status AttachDurableLinkIndex(const std::string& table_name,
                                TableRuntime* runtime);

  /// `<data_dir>/<lowercased table name><suffix>`.
  std::string PersistPath(const std::string& table_name,
                          std::string_view suffix) const;

  EngineOptions options_;
  // Handle on the process-wide shared pool (ThreadPool::Shared); also given
  // to every TableRuntime, which may outlive the engine via GetRuntime
  // handles.
  std::shared_ptr<ThreadPool> pool_;
  Catalog catalog_;
  RuntimeRegistry runtimes_;
  // Behind unique_ptrs: both hold synchronization primitives, and the
  // engine itself must stay movable (move it only while no query is in
  // flight and no PreparedQuery or QueryCursor is alive — both hold
  // pointers into this engine).
  std::unique_ptr<StatisticsCache> statistics_;
  // Admission control for concurrent query sessions.
  std::unique_ptr<Semaphore> admission_;
  // Typed handles on the durability sidecars (ownership shared with the
  // runtimes, which hold them type-erased), so SaveSnapshot can compact
  // explicitly. Keyed like runtimes_.
  std::map<std::string, std::shared_ptr<DurableLinkIndex>> durable_links_;
};

}  // namespace queryer

#endif  // QUERYER_ENGINE_QUERY_ENGINE_H_
