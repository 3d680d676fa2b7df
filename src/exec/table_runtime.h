// Per-table ER runtime: the once-off indices (TBI/ITBI via TableBlockIndex,
// Link Index) plus the blocking / meta-blocking / matching configuration a
// table was registered with. Owned by the engine, shared by the operators.
//
// Concurrency: the lazy once-off indices are built under a once-flag, so
// any number of query sessions may race the cold start — one builds, the
// rest block and share the result. The Link Index is internally
// synchronized, and the ResolutionCoordinator arbitrates which session
// resolves which entity. The configuration setters are registration-time
// only: call them before the first concurrent Execute.

#ifndef QUERYER_EXEC_TABLE_RUNTIME_H_
#define QUERYER_EXEC_TABLE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "blocking/token_blocking.h"
#include "common/status.h"
#include "matching/comparison_execution.h"
#include "matching/link_index.h"
#include "matching/resolution_coordinator.h"
#include "metablocking/meta_blocking.h"
#include "parallel/thread_pool.h"
#include "storage/table.h"

namespace queryer {

/// \brief ER state of one registered table.
class TableRuntime {
 public:
  TableRuntime(TablePtr table, BlockingOptions blocking,
               MetaBlockingConfig meta_blocking, MatchingConfig matching);

  const Table& table() const { return *table_; }
  TablePtr table_ptr() const { return table_; }
  const BlockingOptions& blocking_options() const { return blocking_; }
  const MetaBlockingConfig& meta_blocking_config() const {
    return meta_blocking_;
  }
  void set_meta_blocking_config(const MetaBlockingConfig& config) {
    meta_blocking_ = config;
  }
  const MatchingConfig& matching_config() const { return matching_; }
  void set_matching_config(const MatchingConfig& config) { matching_ = config; }

  /// Pool for the table's data-parallel phases (meta-blocking,
  /// comparison execution). Null means sequential; the engine wires its
  /// pool in at registration time. Shared ownership, because runtime
  /// handles obtained from QueryEngine::GetRuntime may outlive the engine.
  void set_thread_pool(std::shared_ptr<ThreadPool> pool) {
    pool_ = std::move(pool);
  }
  ThreadPool* thread_pool() const { return pool_.get(); }

  /// Builds the TBI on first access (once-off initialization, paper Sec. 3).
  /// Safe to race from many sessions: the first builds, the rest block on
  /// the once-flag.
  const TableBlockIndex& tbi();
  bool tbi_built() const { return tbi_built_.load(std::memory_order_acquire); }

  /// Eagerly builds every once-off index (TBI/ITBI and the attribute
  /// weights).
  Status WarmIndices();

  /// Attribute-distinctiveness weights for matching (computed once; safe to
  /// race like tbi()).
  const AttributeWeights& attribute_weights();

  /// Installs a pre-built block index (loaded from a snapshot) through the
  /// same once-flag as the lazy build, so later tbi() calls share it and
  /// WarmIndices becomes a no-op for the TBI. Returns false when the lazy
  /// build already ran (the loaded index is discarded — the built one is
  /// just as correct).
  bool InstallBlockIndex(std::shared_ptr<TableBlockIndex> index);

  /// Same for the attribute weights.
  bool InstallAttributeWeights(AttributeWeights weights);

  /// Durability sidecar of this table's Link Index (see persist/
  /// durable_link_index.h). The runtime owns it so teardown ordering is
  /// right: the holder detaches from the Link Index before either dies.
  /// `sidecar` must already be attached to link_index(); registration-time
  /// only, like the configuration setters.
  void set_link_index_durability(std::shared_ptr<void> sidecar,
                                 std::function<Status()> maybe_compact) {
    li_durability_ = std::move(sidecar);
    li_maybe_compact_ = std::move(maybe_compact);
  }

  /// Compacts the durable link log iff it outgrew the configured
  /// threshold. Called by the deduplicator at the end of a resolution,
  /// OUTSIDE the Link Index lock. No-op without a durability sidecar.
  Status MaybeCompactLinkLog() {
    return li_maybe_compact_ ? li_maybe_compact_() : Status::OK();
  }

  LinkIndex& link_index() { return link_index_; }
  const LinkIndex& link_index() const { return link_index_; }

  /// Claim tables arbitrating concurrent resolution transactions on this
  /// table (see ResolutionCoordinator).
  ResolutionCoordinator& coordinator() { return coordinator_; }

  /// Serializes whole-table batch cleaning (ExecutionMode::kBatch) across
  /// concurrent sessions: the first cleans, the rest wait and reuse.
  std::mutex& batch_er_mutex() { return batch_er_mutex_; }

  /// Forgets all resolved links: the without-LI arm of the paper's Fig. 11
  /// (bench_fig11_link_index) calls it before each query, and benchmarks
  /// call it to reset state between runs.
  void ResetLinkIndex() { link_index_.Reset(); }

 private:
  TablePtr table_;
  BlockingOptions blocking_;
  MetaBlockingConfig meta_blocking_;
  MatchingConfig matching_;
  std::shared_ptr<ThreadPool> pool_;
  std::once_flag tbi_once_;
  std::shared_ptr<TableBlockIndex> tbi_;
  std::atomic<bool> tbi_built_{false};
  std::once_flag weights_once_;
  std::unique_ptr<AttributeWeights> attribute_weights_;
  LinkIndex link_index_;
  ResolutionCoordinator coordinator_;
  std::mutex batch_er_mutex_;
  // Type-erased DurableLinkIndex (keeps exec/ independent of persist/).
  // Destroyed before link_index_ by member order — the sidecar's dtor
  // detaches itself from the index first.
  std::shared_ptr<void> li_durability_;
  std::function<Status()> li_maybe_compact_;
};

/// \brief name -> runtime registry handed to the executor.
using RuntimeRegistry = std::map<std::string, std::shared_ptr<TableRuntime>>;

/// \brief Case-insensitive lookup helper.
Result<std::shared_ptr<TableRuntime>> FindRuntime(
    const RuntimeRegistry& registry, const std::string& table_name);

}  // namespace queryer

#endif  // QUERYER_EXEC_TABLE_RUNTIME_H_
