// The Link Index LI_E (paper Sec. 3 / 6.1): persistent, per-table store of
// resolved links.
//
// LI_E starts empty and is amended with the links each query resolves, so
// consecutive queries over the same dirty table get progressively cheaper
// (Fig. 11): an entity whose link-set is already known skips the whole
// blocking/matching pipeline.
//
// Internally a union-find forest with per-cluster circular lists, so both
// merging and cluster enumeration are cheap, and the match relation exposed
// to query evaluation is automatically transitively closed.
//
// Concurrency: the index follows an epoch/snapshot reader-writer protocol
// so many query sessions can consult it while others publish links.
//
//  * Every read accessor (AreLinked, Cluster, Representative, IsResolved,
//    ...) takes a shared lock and walks the forest without path halving, so
//    any number of reader threads run concurrently and never rewire parents.
//  * Writers (the batch publishers, MarkAllResolved and Reset) take the
//    exclusive lock; path compression happens only there.
//  * A query session stages the links it resolves in a private buffer and
//    applies them with PublishLinks/MarkResolvedBatch — one short exclusive
//    section per resolution instead of one lock per link.
//  * ReadView pins the shared lock across several reads (a consistent
//    snapshot: no publish can interleave while it is held).
//  * epoch() counts exclusive publications; readers use it as a cheap
//    staleness check.
//
// The final clustering is independent of publish interleaving: clusters are
// the transitive closure of all published links, and re-publishing a link
// whose endpoints were meanwhile connected elsewhere is a no-op merge.

#ifndef QUERYER_MATCHING_LINK_INDEX_H_
#define QUERYER_MATCHING_LINK_INDEX_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace queryer {

/// \brief Write-ahead sink for Link Index mutations (implemented by the
/// persist tier's DurableLinkIndex). Each Append* is called INSIDE the
/// index's exclusive section, BEFORE the in-memory apply, so the log is
/// always a superset of memory-visible state: a crash can lose an applied
/// batch from memory never, a logged-but-unapplied batch at most (replay
/// re-applies it; merges are idempotent). A non-OK return aborts the
/// mutation (thrown as LinkIndexWalError), leaving the index untouched.
class LinkIndexWal {
 public:
  virtual ~LinkIndexWal() = default;
  virtual Status AppendLinks(
      const std::vector<std::pair<EntityId, EntityId>>& links) = 0;
  virtual Status AppendMarks(const std::vector<EntityId>& entities) = 0;
  virtual Status AppendMarkAll() = 0;
  virtual Status AppendReset() = 0;
};

/// \brief Thrown by a Link Index mutator whose WAL append failed. The
/// in-memory index is unchanged; the deduplicator's publish failure path
/// (claim abandonment, orphan adoption) handles it like any other publish
/// fault.
class LinkIndexWalError : public std::runtime_error {
 public:
  explicit LinkIndexWalError(const std::string& what)
      : std::runtime_error(what) {}
};

/// \brief Union-find over the entities of one table, plus "resolved" marks.
/// Thread-safe: reads share, writes exclude (see the file comment).
class LinkIndex {
 public:
  using Link = std::pair<EntityId, EntityId>;

  explicit LinkIndex(std::size_t num_entities);

  std::size_t num_entities() const { return parent_.size(); }

  /// True when a and b are in the same (transitively closed) cluster.
  bool AreLinked(EntityId a, EntityId b) const;

  /// Canonical cluster id of an entity; equal for all cluster members.
  EntityId Representative(EntityId e) const;

  /// All members of e's cluster, including e itself, in ascending id order.
  std::vector<EntityId> Cluster(EntityId e) const;

  /// e's duplicates: cluster members excluding e.
  std::vector<EntityId> Duplicates(EntityId e) const;

  /// True when e is fully resolved: its link-set is complete and future
  /// queries may reuse it without re-running the ER pipeline.
  bool IsResolved(EntityId e) const;

  std::size_t num_resolved() const;

  /// Number of recorded duplicate links, counted as Σ (|cluster| - 1) over
  /// clusters — the number of entities that have at least one duplicate
  /// beyond their cluster representative.
  std::size_t num_links() const;

  /// Applies one query's staged link buffer under a single exclusive
  /// section. Returns the number of clusters actually merged (links whose
  /// endpoints were already connected — by this batch or a concurrent
  /// query — are no-op merges), which is what the resolution counts as
  /// matches.
  std::size_t PublishLinks(const std::vector<Link>& links);

  /// Marks a batch of entities resolved under one exclusive section.
  void MarkResolvedBatch(const std::vector<EntityId>& entities);

  /// Marks every entity resolved (whole-table batch cleaning) under one
  /// exclusive section.
  void MarkAllResolved();

  /// Publication counter: incremented once by every exclusive mutation
  /// (each published batch, MarkAllResolved, Reset and each restore).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Drops all links and marks (fresh index for BA/no-LI experiment arms).
  void Reset();

  /// Attaches (or detaches, with nullptr) the write-ahead sink. Takes the
  /// exclusive lock; attach before serving traffic, detach before the WAL
  /// is destroyed.
  void set_wal(LinkIndexWal* wal);

  /// Recovery-path mutators: apply state replayed from a snapshot or log
  /// WITHOUT notifying the WAL (the records are already durable) and
  /// without failpoints. Entity ids must be < num_entities() — the caller
  /// (DurableLinkIndex::Open) validates against the on-disk record before
  /// applying.
  void RestoreLinks(const std::vector<Link>& links);
  void RestoreMarks(const std::vector<EntityId>& entities);
  void RestoreMarkAll();

  /// Approximate heap footprint in bytes.
  std::size_t MemoryFootprint() const;

  /// \brief Consistent read snapshot: holds the shared lock for its
  /// lifetime, so no publish can interleave between its reads. Keep it
  /// short-lived — writers wait while any view is alive.
  class ReadView {
   public:
    explicit ReadView(const LinkIndex& index)
        : index_(&index), lock_(index.mutex_) {}

    bool AreLinked(EntityId a, EntityId b) const {
      return index_->FindShared(a) == index_->FindShared(b);
    }
    EntityId Representative(EntityId e) const { return index_->FindShared(e); }
    std::vector<EntityId> Cluster(EntityId e) const {
      return index_->ClusterLocked(e);
    }
    bool IsResolved(EntityId e) const { return index_->resolved_[e]; }
    std::size_t num_links() const { return index_->num_links_; }
    std::uint64_t epoch() const { return index_->epoch(); }

   private:
    const LinkIndex* index_;
    std::shared_lock<std::shared_mutex> lock_;
  };

  /// Takes the shared snapshot (cheap: one shared-lock acquisition).
  ReadView SharedSnapshot() const { return ReadView(*this); }

 private:
  friend class ReadView;

  // Writer-side find with path halving; call only under the exclusive lock.
  EntityId Find(EntityId e);
  // Reader-side find without halving; call under the shared lock.
  EntityId FindShared(EntityId e) const;

  // Lock-free internals shared by the public methods and ReadView; callers
  // hold the appropriate lock.
  bool AddLinkLocked(EntityId a, EntityId b);
  void MarkResolvedLocked(EntityId e);
  std::vector<EntityId> ClusterLocked(EntityId e) const;

  // Appends the mutation to the attached WAL (if any); throws
  // LinkIndexWalError on failure. Call under the exclusive lock, before
  // applying the mutation.
  void WalAppendLinks(const std::vector<Link>& links);
  void WalAppendMarks(const std::vector<EntityId>& entities);

  mutable std::shared_mutex mutex_;
  LinkIndexWal* wal_ = nullptr;  // Guarded by mutex_ (exclusive).
  // Union-find parents with union by size; path compression is applied
  // only inside exclusive sections.
  std::vector<EntityId> parent_;
  std::vector<std::uint32_t> cluster_size_;
  // Circular linked list per cluster for O(|cluster|) enumeration.
  std::vector<EntityId> next_in_cluster_;
  std::vector<bool> resolved_;
  std::size_t num_resolved_count_ = 0;
  std::size_t num_links_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace queryer

#endif  // QUERYER_MATCHING_LINK_INDEX_H_
