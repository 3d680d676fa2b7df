#include "engine/query_engine.h"

#include <chrono>
#include <mutex>
#include <utility>

#include "baseline/batch_er.h"
#include "common/cancel_context.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "persist/durable_link_index.h"
#include "persist/index_snapshot.h"
#include "persist/snapshot.h"
#include "persist/table_snapshot.h"

namespace queryer {

std::string_view ExecutionModeToString(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kBatch: return "BA";
    case ExecutionMode::kNaive: return "NES";
    case ExecutionMode::kNaive2: return "NES2";
    case ExecutionMode::kAdvanced: return "AES";
  }
  return "?";
}

QueryEngine::QueryEngine(EngineOptions options)
    : options_(std::move(options)),
      statistics_(std::make_unique<StatisticsCache>()) {
  // The without-LI experiment arm resets the Link Index per query; letting
  // sessions overlap would race those resets against in-flight
  // resolutions, so that configuration is forcibly serialized.
  if (!options_.use_link_index) options_.max_concurrent_queries = 1;
  admission_ = std::make_unique<Semaphore>(options_.max_concurrent_queries);
  // Sessions blocked on admission show up in the process-wide wait
  // histogram (bench_concurrent_queries reports its quantiles).
  admission_->set_wait_histogram(GlobalEngineMetrics().admission_wait);
  std::size_t threads = options_.num_threads == 0
                            ? ThreadPool::HardwareConcurrency()
                            : options_.num_threads;
  // A single worker would only re-run the sequential path with queue
  // overhead; stay pool-less so every phase takes its exact seed-code
  // route. Multi-threaded engines draw from the process-wide shared pool
  // (grown to at least the requested width) through a capped view, so
  // num_threads stays this engine's parallelism CAP even after another
  // engine grows the shared pool wider.
  if (threads > 1) {
    pool_ = std::make_shared<CappedThreadPool>(ThreadPool::Shared(threads),
                                               threads);
  }
}

Status QueryEngine::RegisterTable(TablePtr table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  // Duplicate check before the durable open below: a second registration
  // of the same name must not touch (and recover) the log files the first
  // one's sidecar has open.
  if (catalog_.Contains(table->name())) {
    return Status::AlreadyExists("table already registered: " +
                                 table->name());
  }
  // The e_id attribute names the row; it carries no descriptive content, so
  // it takes part in neither blocking nor matching.
  BlockingOptions blocking = options_.blocking;
  MatchingConfig matching = options_.matching;
  if (auto id_column = table->schema().IndexOf("id"); id_column.has_value()) {
    blocking.excluded_attributes.push_back(*id_column);
    matching.excluded_attributes.push_back(*id_column);
  }
  auto runtime = std::make_shared<TableRuntime>(
      table, std::move(blocking), options_.meta_blocking, matching);
  runtime->set_thread_pool(pool_);
  // With a data_dir, every table — CSV-loaded or snapshot-loaded — gets a
  // durable Link Index: prior ER work is recovered into the fresh index
  // here, before the table serves any query.
  if (!options_.data_dir.empty()) {
    QUERYER_RETURN_NOT_OK(
        AttachDurableLinkIndex(table->name(), runtime.get()));
  }
  QUERYER_RETURN_NOT_OK(catalog_.Register(table));
  runtimes_[ToLower(table->name())] = std::move(runtime);
  // After the registration is fully visible: a plan cached under the new
  // version can rely on the runtime being in place.
  catalog_version_->fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

std::string QueryEngine::PersistPath(const std::string& table_name,
                                     std::string_view suffix) const {
  return options_.data_dir + "/" + ToLower(table_name) + std::string(suffix);
}

Status QueryEngine::AttachDurableLinkIndex(const std::string& table_name,
                                           TableRuntime* runtime) {
  QUERYER_RETURN_NOT_OK(EnsureDir(options_.data_dir));
  DurableLinkIndex::Options li_options;
  li_options.fsync = options_.persist_fsync;
  li_options.compact_bytes = options_.link_log_compact_bytes;
  QUERYER_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableLinkIndex> durable,
      DurableLinkIndex::Open(PersistPath(table_name, ".li"),
                             PersistPath(table_name, ".lilog"),
                             &runtime->link_index(), li_options));
  std::shared_ptr<DurableLinkIndex> shared = std::move(durable);
  runtime->set_link_index_durability(
      shared, [durable = shared.get()] { return durable->MaybeCompact(); });
  durable_links_[ToLower(table_name)] = std::move(shared);
  return Status::OK();
}

Status QueryEngine::RegisterTableFromSnapshots(const std::string& table_name) {
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument(
        "RegisterTableFromSnapshots requires EngineOptions::data_dir");
  }
  QUERYER_ASSIGN_OR_RETURN(
      TablePtr table, TableSnapshotIO::Load(PersistPath(table_name, ".tbl")));
  QUERYER_RETURN_NOT_OK(RegisterTable(table));
  // The index snapshot is an optional accelerator: present and valid, it
  // replaces the WarmIndices rebuild; absent, the lazy build covers it. A
  // present-but-corrupt one fails loudly — silently rebuilding would mask
  // the damage until the next save.
  const std::string tbi_path = PersistPath(table_name, ".tbi");
  if (FileExists(tbi_path)) {
    QUERYER_ASSIGN_OR_RETURN(LoadedIndexes indexes,
                             IndexSnapshotIO::Load(tbi_path, table->num_rows()));
    QUERYER_ASSIGN_OR_RETURN(std::shared_ptr<TableRuntime> runtime,
                             FindRuntime(runtimes_, table_name));
    runtime->InstallBlockIndex(std::move(indexes.tbi));
    runtime->InstallAttributeWeights(std::move(indexes.weights));
  }
  return Status::OK();
}

Status QueryEngine::SaveSnapshot(const std::string& table_name) {
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument(
        "SaveSnapshot requires EngineOptions::data_dir");
  }
  QUERYER_ASSIGN_OR_RETURN(std::shared_ptr<TableRuntime> runtime,
                           FindRuntime(runtimes_, table_name));
  QUERYER_RETURN_NOT_OK(EnsureDir(options_.data_dir));
  QUERYER_RETURN_NOT_OK(runtime->WarmIndices());
  QUERYER_RETURN_NOT_OK(TableSnapshotIO::Write(
      runtime->table(), PersistPath(table_name, ".tbl"),
      options_.persist_fsync));
  QUERYER_RETURN_NOT_OK(IndexSnapshotIO::Write(
      runtime->tbi(), runtime->attribute_weights(),
      PersistPath(table_name, ".tbi"), options_.persist_fsync));
  // Fold the link log into its snapshot too, so a warm start replays
  // nothing.
  if (auto it = durable_links_.find(ToLower(table_name));
      it != durable_links_.end()) {
    QUERYER_RETURN_NOT_OK(it->second->Compact());
  }
  return Status::OK();
}

Status QueryEngine::SaveSnapshots() {
  for (const std::string& name : catalog_.table_names()) {
    QUERYER_RETURN_NOT_OK(SaveSnapshot(name));
  }
  return Status::OK();
}

Status QueryEngine::RegisterCsvFile(const std::string& path,
                                    std::string table_name) {
  QUERYER_ASSIGN_OR_RETURN(TablePtr table,
                           ReadCsvFile(path, std::move(table_name)));
  return RegisterTable(std::move(table));
}

Status QueryEngine::WarmIndices(const std::string& table_name) {
  QUERYER_ASSIGN_OR_RETURN(std::shared_ptr<TableRuntime> runtime,
                           FindRuntime(runtimes_, table_name));
  return runtime->WarmIndices();
}

Result<std::shared_ptr<TableRuntime>> QueryEngine::GetRuntime(
    const std::string& table_name) {
  return FindRuntime(runtimes_, table_name);
}

Result<SelectStatement> QueryEngine::Parse(const std::string& sql) const {
  return ParseSelect(sql);
}

Result<std::vector<std::shared_ptr<TableRuntime>>>
QueryEngine::InvolvedRuntimes(const SelectStatement& stmt) {
  std::vector<std::shared_ptr<TableRuntime>> involved;
  QUERYER_ASSIGN_OR_RETURN(std::shared_ptr<TableRuntime> from,
                           FindRuntime(runtimes_, stmt.from.name));
  involved.push_back(std::move(from));
  for (const JoinSpec& join : stmt.joins) {
    QUERYER_ASSIGN_OR_RETURN(std::shared_ptr<TableRuntime> runtime,
                             FindRuntime(runtimes_, join.table.name));
    involved.push_back(std::move(runtime));
  }
  return involved;
}

PlannerMode QueryEngine::PlannerModeFor(ExecutionMode mode) const {
  switch (mode) {
    case ExecutionMode::kNaive:
      return PlannerMode::kNaive;
    case ExecutionMode::kNaive2:
      return PlannerMode::kNaive2;
    case ExecutionMode::kBatch:
      // Everything is resolved up front, so the plan shape is immaterial;
      // NES2 keeps the dedup operators cheap (they find all links in LI).
      return PlannerMode::kNaive2;
    case ExecutionMode::kAdvanced:
      return PlannerMode::kAdvanced;
  }
  return PlannerMode::kAdvanced;
}

Result<PreparedQuery> QueryEngine::Prepare(const std::string& sql) {
  QUERYER_ASSIGN_OR_RETURN(SelectStatement stmt, Parse(sql));
  // Resolve the involved runtimes now: a DEDUP statement over an
  // unregistered table must fail at Prepare, not at the first Open, and
  // Open's ER prologue reuses the handles without a registry lookup.
  std::vector<std::shared_ptr<TableRuntime>> involved;
  if (stmt.dedup) {
    QUERYER_ASSIGN_OR_RETURN(involved, InvolvedRuntimes(stmt));
  }
  // Planning is thread-safe (the statistics cache is mutex-guarded, the
  // runtimes' lazy indices are call_once-guarded), so Prepare takes no
  // admission slot — preparing while one of your own cursors holds the
  // engine's only slot must not deadlock.
  //
  // The without-LI arm is the one statement shape Prepare cannot plan: it
  // resets the Link Index at every Open and must plan AFTER that reset
  // (the cost estimates consult the index's resolved state), so planning
  // here would only produce a plan Open discards. Defer it entirely —
  // plan_text() says so until the first Open.
  PlanPtr plan;
  if (!(stmt.dedup && !options_.use_link_index)) {
    TraceSpan plan_span(options_.trace_sink.get(), "plan", "session");
    Planner planner(&catalog_, &runtimes_, statistics_.get());
    QUERYER_ASSIGN_OR_RETURN(
        plan, planner.BuildPlan(stmt, PlannerModeFor(options_.mode)));
  }
  return PreparedQuery(this, sql, std::move(stmt), std::move(plan), options_,
                       std::move(involved));
}

Result<CursorPtr> QueryEngine::OpenPrepared(const PreparedQuery& prepared) {
  const EngineOptions& options = prepared.options_;
  // Admission: at most max_concurrent_queries sessions past this point.
  // With admission_timeout set, an arriving session waits boundedly and is
  // shed with kResourceExhausted when the engine stays saturated — it held
  // nothing and ran nothing. The RAII slot covers every failure path
  // (including exceptions) of the fallible prologue below; on success it
  // is disarmed and the slot is held for the whole cursor lifetime,
  // released by QueryCursor::Close (or its destructor).
  if (options.admission_timeout > 0) {
    if (!admission_->TryAcquireFor(options.admission_timeout)) {
      GlobalEngineMetrics().sessions_shed->Increment();
      return Status::ResourceExhausted(
          "no admission slot freed within " +
          std::to_string(options.admission_timeout) +
          "s (max_concurrent_queries = " +
          std::to_string(options.max_concurrent_queries) + ")");
    }
  } else {
    admission_->Acquire();
  }
  Semaphore::Slot slot(admission_.get(), Semaphore::Slot::Adopt{});
  // After the acquire, so an injected admission failure exercises the RAII
  // release (a leaked slot here would wedge the engine at saturation).
  QUERYER_FAILPOINT("engine.admission");
  const auto opened_at = std::chrono::steady_clock::now();
  GlobalEngineMetrics().queries_opened->Increment();

  auto stats = std::make_unique<ExecStats>();
  stats->collect_comparisons = options.collect_comparisons;

  if (prepared.statement_.dedup) {
    if (options.mode == ExecutionMode::kBatch) {
      // BA: clean every involved table in full before answering. The
      // per-runtime mutex serializes concurrent sessions racing the same
      // cold table: the first cleans, the rest wait here and reuse.
      for (const auto& runtime : prepared.involved_) {
        std::lock_guard<std::mutex> batch_lock(runtime->batch_er_mutex());
        if (runtime->link_index().num_resolved() <
            runtime->table().num_rows()) {
          QUERYER_RETURN_NOT_OK(
              BatchDeduplicate(runtime.get(), stats.get()).status());
        }
      }
    } else if (!options.use_link_index) {
      // "Without LI": no reuse of links across queries. (An experiment
      // arm; concurrent sessions would race each other's resets, so run
      // this arm with max_concurrent_queries == 1.)
      for (const auto& runtime : prepared.involved_) {
        runtime->ResetLinkIndex();
      }
    }
  }

  // The without-LI arm just reset the Link Index this query plans
  // against, so Prepare deferred planning to here: plan under the
  // post-reset state, exactly the order the facade always had (reset,
  // then plan). Normal prepared queries reuse the captured plan.
  const LogicalPlan* plan = prepared.plan_.get();
  PlanPtr deferred;
  std::string plan_text = prepared.plan_text_;
  if (plan == nullptr) {
    TraceSpan plan_span(options.trace_sink.get(), "plan", "session");
    Planner planner(&catalog_, &runtimes_, statistics_.get());
    Result<PlanPtr> fresh = planner.BuildPlan(prepared.statement_,
                                              PlannerModeFor(options.mode));
    if (!fresh.ok()) return fresh.status();
    deferred = fresh.MoveValueUnsafe();
    plan = deferred.get();
    plan_text = plan->ToString();
  }

  // The session-level cancellation flag: QueryCursor::Cancel raises it.
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  // The same flag plus the session deadline, packaged for the ER operators'
  // cooperative polling: the Deduplicator's comparison loops check it so
  // Cancel() and the deadline pre-empt a long resolution, not just the
  // batch boundaries. The deadline mirrors the cursor's (both measure from
  // admission).
  auto cancel_ctx = std::make_shared<CancelContext>();
  cancel_ctx->cancel = cancel;
  if (options.default_query_deadline > 0) {
    cancel_ctx->has_deadline = true;
    cancel_ctx->deadline =
        opened_at +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options.default_query_deadline));
  }
  // Every session carries a profile tree (EXPLAIN ANALYZE and the
  // scan/filter/join/project stats breakdown read from it); the overhead
  // is one steady_clock read pair per operator call.
  auto profile = std::make_unique<PlanProfile>();
  Executor executor(&catalog_, &runtimes_, stats.get(), pool_.get(),
                    options.batch_size, profile.get(),
                    options.trace_sink, std::move(cancel_ctx));
  Result<OperatorPtr> root = executor.Lower(*plan);
  if (!root.ok()) return root.status();
  // The tree is handed over UN-opened: the cursor opens it lazily at the
  // first Next. Open is where the materializing operators do their heavy
  // lifting — for a DEDUP plan, the resolution transaction (claim /
  // evaluate / publish / release) runs and completes inside that first
  // Next — so open-time failures, cancellation and deadline pre-emption
  // all surface through the cursor's one status channel, and a cursor
  // cancelled before its first Next never starts resolution at all.
  // Per-table ResolutionCoordinator claims still never outlive the tree's
  // Open, so an abandoned cursor leaves no claim behind.
  CursorPtr cursor(new QueryCursor(
      admission_.get(), prepared.involved_, pool_, std::move(cancel),
      std::move(stats), std::move(profile), options.trace_sink,
      root.MoveValueUnsafe(), std::move(plan_text), options.batch_size,
      executor.session_id(), options.default_query_deadline, opened_at));
  slot.Disarm();  // The cursor owns the slot now.
  return cursor;
}

Result<CursorPtr> QueryEngine::ExecuteStream(const std::string& sql) {
  QUERYER_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(sql));
  return prepared.Open();
}

namespace {

// The EXPLAIN presentation: one plan line per result row, PostgreSQL-style,
// shaped to the configured result layout so consumers keep one code path.
void FillPlanTextResult(QueryResult* result, const std::string& text,
                        ResultLayout layout) {
  result->columns = {"QUERY PLAN"};
  result->layout = layout;
  result->rows.clear();
  result->column_data.clear();
  if (layout == ResultLayout::kColumnMajor) {
    result->column_data.push_back(Split(text, '\n'));
    return;
  }
  for (std::string& line : Split(text, '\n')) {
    result->rows.push_back({std::move(line)});
  }
}

}  // namespace

Result<QueryResult> QueryEngine::Execute(const std::string& sql) {
  Stopwatch total;
  QUERYER_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(sql));

  if (prepared.explain() && !prepared.analyze()) {
    // Plain EXPLAIN: present the static plan, execute nothing (no
    // admission slot, no session, no ER work).
    QUERYER_ASSIGN_OR_RETURN(std::string text, StaticPlanText(prepared));
    QueryResult result;
    FillPlanTextResult(&result, text, options_.result_layout);
    result.plan_text = text;
    result.stats.total_seconds = total.ElapsedSeconds();
    return result;
  }

  QUERYER_ASSIGN_OR_RETURN(CursorPtr cursor, prepared.Open());

  QueryResult result;
  result.columns = cursor->columns();
  // From the cursor, not the PreparedQuery: the without-LI arm replans at
  // Open, and the result must report the plan that actually executed.
  result.plan_text = cursor->plan_text();

  // Materialize from the cursor. This is the late-materialization boundary:
  // reference batches (scan/DEDUP output) turn into owned strings only
  // here. Row-major answers take each row's values in one move (owned
  // batches move, reference batches materialize); column-major answers
  // append straight into per-column vectors — no per-row vector<string>
  // allocation at all. Each drained batch reserves ahead by its row count
  // (vector growth stays geometric — the larger of the two wins). EXPLAIN
  // ANALYZE takes the same drain loop — the full execution is the point —
  // but discards the answer.
  const bool analyze = prepared.analyze();
  const ResultLayout layout = options_.result_layout;
  result.layout = layout;
  if (layout == ResultLayout::kColumnMajor) {
    result.column_data.resize(result.columns.size());
  }
  RowBatch batch(cursor->batch_size());
  std::vector<EntityId> ref_ids;  // Scratch for the reference-batch gather.
  while (true) {
    QUERYER_ASSIGN_OR_RETURN(bool has, cursor->Next(&batch));
    if (!has) break;
    const std::size_t n = batch.size();
    if (n == 0 || analyze) continue;
    if (layout == ResultLayout::kColumnMajor) {
      for (std::size_t col = 0; col < result.column_data.size(); ++col) {
        std::vector<std::string>& out = result.column_data[col];
        if (out.capacity() - out.size() < n) {
          out.reserve(std::max(out.size() + n, 2 * out.capacity()));
        }
        for (std::size_t i = 0; i < n; ++i) {
          out.emplace_back(batch.value(i, col));
        }
      }
    } else if (batch.reference_mode()) {
      // Column-at-a-time gather: size the new rows once, then fill one
      // column across the whole batch — each column's dictionary (codes +
      // arena) stays cache-resident instead of being re-touched row by row.
      const Table& table = *batch.reference_table();
      const std::size_t width = table.num_attributes();
      const std::size_t base = result.rows.size();
      if (result.rows.capacity() - base < n) {
        result.rows.reserve(std::max(base + n, 2 * result.rows.capacity()));
      }
      result.rows.resize(base + n);
      for (std::size_t i = 0; i < n; ++i) {
        result.rows[base + i].resize(width);
      }
      ref_ids.clear();
      for (std::size_t i = 0; i < n; ++i) {
        ref_ids.push_back(batch.entity_id(i));
      }
      for (std::size_t col = 0; col < width; ++col) {
        const ColumnView cv = table.column(col);
        for (std::size_t i = 0; i < n; ++i) {
          const std::string_view v = cv.value(ref_ids[i]);
          result.rows[base + i][col].assign(v.data(), v.size());
        }
      }
    } else {
      if (result.rows.capacity() - result.rows.size() < n) {
        result.rows.reserve(
            std::max(result.rows.size() + n, 2 * result.rows.capacity()));
      }
      for (std::size_t i = 0; i < n; ++i) {
        result.rows.push_back(batch.TakeValues(i));
      }
    }
  }
  cursor->Close();
  if (analyze) {
    // After Close: the profile tree is final (Close times folded in).
    FillPlanTextResult(&result, cursor->AnnotatedPlan(), layout);
  }
  // Moved, not copied: collected_comparisons can be huge under
  // collect_comparisons, and the closed cursor is about to die.
  result.stats = std::move(*cursor->stats_);
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

Result<std::string> QueryEngine::Explain(const std::string& sql) {
  // Explain IS Prepare minus the handle: one parse+plan entry path (and,
  // like Prepare, no admission slot — a client inspecting a plan while
  // its own cursor holds the engine's only slot must not deadlock).
  QUERYER_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(sql));
  if (prepared.analyze()) {
    // EXPLAIN ANALYZE: execute the statement in full (this one DOES take
    // an admission slot for its duration), discard the answer, return the
    // plan annotated with the run's per-operator stats.
    QUERYER_ASSIGN_OR_RETURN(CursorPtr cursor, prepared.Open());
    RowBatch batch(cursor->batch_size());
    while (true) {
      QUERYER_ASSIGN_OR_RETURN(bool has, cursor->Next(&batch));
      if (!has) break;
    }
    cursor->Close();
    return cursor->AnnotatedPlan();
  }
  return StaticPlanText(prepared);
}

Result<std::string> QueryEngine::StaticPlanText(
    const PreparedQuery& prepared) {
  if (prepared.plan_ != nullptr) return prepared.plan_text();
  // The without-LI arm defers planning to Open (which resets the index
  // first). Explain must stay side-effect free AND still show a plan, so
  // it plans under the current index state — the plan this mode would
  // execute right now, exactly Explain's pre-streaming contract.
  Planner planner(&catalog_, &runtimes_, statistics_.get());
  QUERYER_ASSIGN_OR_RETURN(
      PlanPtr plan,
      planner.BuildPlan(prepared.statement_, PlannerModeFor(options_.mode)));
  return plan->ToString();
}

}  // namespace queryer
