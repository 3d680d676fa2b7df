// Engine-wide configuration and the materialized query answer type, split
// out of query_engine.h so the streaming-session headers (prepared_query.h,
// query_cursor.h) can use them without pulling in the whole facade.

#ifndef QUERYER_ENGINE_ENGINE_OPTIONS_H_
#define QUERYER_ENGINE_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blocking/token_blocking.h"
#include "common/string_util.h"
#include "exec/exec_stats.h"
#include "exec/row_batch.h"
#include "matching/profile_matcher.h"
#include "metablocking/meta_blocking.h"
#include "obs/trace.h"

namespace queryer {

/// \brief How DEDUP queries are evaluated.
enum class ExecutionMode {
  /// Batch Approach (BA): fully deduplicate every involved table first,
  /// then answer the query. The paper's baseline.
  kBatch,
  /// Naive ER Solution (NES): Deduplicate directly above each Table Scan.
  kNaive,
  /// Naive ER plan 2: Deduplicate above each Filter.
  kNaive2,
  /// Advanced ER Solution (AES): cost-based operator placement.
  kAdvanced,
};

std::string_view ExecutionModeToString(ExecutionMode mode);

/// \brief Physical layout of a materialized QueryResult.
enum class ResultLayout {
  /// `rows[i]` holds row i — one value vector per row (the classic shape).
  kRowMajor,
  /// `column_data[j]` holds column j, one value per row in emission order.
  /// Cheaper to materialize (per-column vectors grow without per-row
  /// allocations) and the natural shape for export to columnar consumers.
  kColumnMajor,
};

/// \brief Engine-wide configuration. Blocking/meta-blocking/matching apply
/// to tables registered afterwards.
struct EngineOptions {
  BlockingOptions blocking;
  MetaBlockingConfig meta_blocking;
  MatchingConfig matching;
  ExecutionMode mode = ExecutionMode::kAdvanced;
  /// When false, resolved links are forgotten before every DEDUP query —
  /// the "Without LI" arm of the paper's Fig. 11.
  bool use_link_index = true;
  /// When true, every ER operator appends its surviving comparisons to the
  /// result stats (for Pair Completeness measurement).
  bool collect_comparisons = false;
  /// Worker threads for comparison execution, the one data-parallel phase;
  /// every other operator, and index construction, runs sequentially.
  /// 0 = hardware concurrency; 1 = fully sequential execution (no pool).
  /// Query answers and LinkIndex::num_links() are identical across thread
  /// counts; only the executed/skipped comparison split may vary. Engines
  /// with num_threads > 1 draw their workers from the process-wide shared
  /// pool (ThreadPool::Shared), not a private one.
  std::size_t num_threads = 1;
  /// Maximum number of query sessions admitted simultaneously — an open
  /// QueryCursor holds one admission slot for its whole lifetime, and
  /// Execute/Explain count as one session for their duration.
  /// 1 (default) serializes queries — exactly the single-client engine,
  /// merely made safe to call from any thread. Values > 1 admit that many
  /// concurrent query sessions. Either way every session resolves through
  /// the Link Index's reader/writer protocol and the per-table resolution
  /// coordinator (entity claims + comparison-dedup table). 0 = unlimited.
  std::size_t max_concurrent_queries = 1;
  /// Bounded admission: how long (seconds) an arriving session may wait
  /// for an admission slot before the engine sheds it with
  /// Status::kResourceExhausted instead of queueing forever. 0 (default)
  /// = wait indefinitely, the pre-existing behavior. A shed session never
  /// held a slot, ran no prologue and claimed nothing; it is counted in
  /// queryer_sessions_shed_total.
  double admission_timeout = 0;
  /// Per-tenant admission quota, enforced by the query server front end
  /// (src/server, docs/SERVER.md): how many sessions one authenticated
  /// tenant may hold concurrently — open wire cursors plus in-flight
  /// EXECUTEs each count as one. Over-quota requests are shed with
  /// kResourceExhausted BEFORE they touch engine admission, so a single
  /// tenant can never occupy every max_concurrent_queries slot and starve
  /// the others. 0 (default) = unlimited; the in-process API ignores this
  /// field entirely (it has no tenant notion).
  std::size_t max_concurrent_per_tenant = 0;
  /// RowBatch capacity of the batch execution pipeline: how many rows flow
  /// through one Next(RowBatch*) call. Query answers are identical for
  /// every value; tiny values only add per-batch overhead. Clamped to at
  /// least 1.
  std::size_t batch_size = kDefaultBatchSize;
  /// Per-session deadline in seconds, measured from cursor open (which is
  /// where a DEDUP query's resolution work happens) and checked at batch
  /// boundaries — a session never aborts mid-batch. A cursor that runs
  /// past it surfaces Status::DeadlineExceeded from Next() and releases
  /// its resources on Close. 0 (default) = no deadline. Captured at
  /// Prepare time like the rest of the options.
  double default_query_deadline = 0;
  /// When set, every session records Chrome trace-event JSON into this sink
  /// (plan/open/emit spans, per-operator spans, ER-stage spans). Null
  /// (default) = tracing off, with strictly zero overhead — no clock
  /// reads, no allocations. Sinks may be shared across sessions; events
  /// carry the session id in their args.
  /// Captured at Prepare time like the rest of the options.
  std::shared_ptr<TraceSink> trace_sink;
  /// Physical layout of QueryResult answers materialized by Execute().
  /// Streaming cursors are unaffected (they deliver RowBatches). Both
  /// layouts hold the same answer; only the storage shape differs.
  ResultLayout result_layout = ResultLayout::kRowMajor;
  /// Persistence root. Empty (default) = persistence off: the engine is
  /// purely in-memory, exactly the pre-persistence behavior. When set,
  /// every registered table gets a durable Link Index under
  /// `<data_dir>/<table>.li` + `<table>.lilog` (opened at registration —
  /// prior ER work is recovered before the first query), and
  /// SaveSnapshots() / RegisterTableFromSnapshots() read and write
  /// `<table>.tbl` / `<table>.tbi` there.
  std::string data_dir;
  /// fsync link-log appends and snapshot files before commit. Off by
  /// default: tests and benches value speed; durability against OS crash
  /// (not just process crash) requires it.
  bool persist_fsync = false;
  /// Link-log size that triggers automatic compaction (snapshot + log
  /// truncate) at the end of a resolution. 0 disables auto-compaction;
  /// SaveSnapshots() still compacts explicitly.
  std::uint64_t link_log_compact_bytes = 4u << 20;
};

/// \brief A materialized query answer plus its execution statistics.
///
/// Exactly one of `rows` / `column_data` is populated, per `layout`.
/// Position-independent consumers should use the accessors — ColumnIndex()
/// to find a column by name (case-insensitive, like the engine's schema
/// lookup) and ValueAt() to read a cell regardless of layout.
struct QueryResult {
  std::vector<std::string> columns;
  /// Which of `rows` / `column_data` holds the answer.
  ResultLayout layout = ResultLayout::kRowMajor;
  /// Row-major storage: rows[i][j] is row i, column j.
  std::vector<std::vector<std::string>> rows;
  /// Column-major storage: column_data[j][i] is row i, column j.
  std::vector<std::vector<std::string>> column_data;
  ExecStats stats;
  std::string plan_text;

  /// Position of the named output column (case-insensitive), or nullopt.
  std::optional<std::size_t> ColumnIndex(std::string_view name) const {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (EqualsIgnoreCase(columns[i], name)) return i;
    }
    return std::nullopt;
  }

  /// Number of answer rows, independent of layout.
  std::size_t num_rows() const {
    return layout == ResultLayout::kColumnMajor
               ? (column_data.empty() ? 0 : column_data.front().size())
               : rows.size();
  }

  /// Cell (row, col), independent of layout. No bounds checking beyond the
  /// underlying vectors'.
  std::string_view ValueAt(std::size_t row, std::size_t col) const {
    return layout == ResultLayout::kColumnMajor
               ? std::string_view(column_data[col][row])
               : std::string_view(rows[row][col]);
  }
};

}  // namespace queryer

#endif  // QUERYER_ENGINE_ENGINE_OPTIONS_H_
