#include "matching/link_index.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "common/failpoint.h"
#include "common/logging.h"

namespace queryer {

LinkIndex::LinkIndex(std::size_t num_entities)
    : parent_(num_entities),
      cluster_size_(num_entities, 1),
      next_in_cluster_(num_entities),
      resolved_(num_entities, false) {
  std::iota(parent_.begin(), parent_.end(), 0);
  std::iota(next_in_cluster_.begin(), next_in_cluster_.end(), 0);
}

EntityId LinkIndex::Find(EntityId e) {
  QUERYER_DCHECK(e < parent_.size());
  // Path halving: only rewires parents within the same set; exclusive
  // sections only, so concurrent readers never observe the rewiring.
  while (parent_[e] != e) {
    parent_[e] = parent_[parent_[e]];
    e = parent_[e];
  }
  return e;
}

EntityId LinkIndex::FindShared(EntityId e) const {
  QUERYER_DCHECK(e < parent_.size());
  // No path halving: pure reads. Union by size keeps the forest depth
  // logarithmic, so forgoing compression on reads costs little.
  while (parent_[e] != e) e = parent_[e];
  return e;
}

bool LinkIndex::AddLinkLocked(EntityId a, EntityId b) {
  EntityId ra = Find(a);
  EntityId rb = Find(b);
  if (ra == rb) return false;
  if (cluster_size_[ra] < cluster_size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  cluster_size_[ra] += cluster_size_[rb];
  // Splice the two circular lists.
  std::swap(next_in_cluster_[ra], next_in_cluster_[rb]);
  ++num_links_;
  return true;
}

void LinkIndex::WalAppendLinks(const std::vector<Link>& links) {
  if (wal_ == nullptr) return;
  const Status status = wal_->AppendLinks(links);
  if (!status.ok()) throw LinkIndexWalError(status.ToString());
}

void LinkIndex::WalAppendMarks(const std::vector<EntityId>& entities) {
  if (wal_ == nullptr) return;
  const Status status = wal_->AppendMarks(entities);
  if (!status.ok()) throw LinkIndexWalError(status.ToString());
}

std::size_t LinkIndex::PublishLinks(const std::vector<Link>& links) {
  // Before the exclusive section: an injected publish failure must leave
  // the index untouched (all-or-nothing), so the owner's abandonment hands
  // waiters pairs whose links genuinely were not applied.
  QUERYER_FAILPOINT_THROW("li.publish");
  if (links.empty()) return 0;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // Log before apply: a WAL failure throws out of here with the in-memory
  // index untouched, and the log never lags memory-visible links.
  WalAppendLinks(links);
  std::size_t merged = 0;
  for (const auto& [a, b] : links) {
    if (AddLinkLocked(a, b)) ++merged;
  }
  epoch_.fetch_add(1, std::memory_order_release);
  return merged;
}

void LinkIndex::MarkResolvedBatch(const std::vector<EntityId>& entities) {
  if (entities.empty()) return;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  WalAppendMarks(entities);
  for (EntityId e : entities) MarkResolvedLocked(e);
  epoch_.fetch_add(1, std::memory_order_release);
}

void LinkIndex::MarkAllResolved() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (wal_ != nullptr) {
    const Status status = wal_->AppendMarkAll();
    if (!status.ok()) throw LinkIndexWalError(status.ToString());
  }
  for (EntityId e = 0; e < resolved_.size(); ++e) MarkResolvedLocked(e);
  epoch_.fetch_add(1, std::memory_order_release);
}

bool LinkIndex::AreLinked(EntityId a, EntityId b) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return FindShared(a) == FindShared(b);
}

EntityId LinkIndex::Representative(EntityId e) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return FindShared(e);
}

std::vector<EntityId> LinkIndex::ClusterLocked(EntityId e) const {
  std::vector<EntityId> members;
  EntityId current = e;
  do {
    members.push_back(current);
    current = next_in_cluster_[current];
  } while (current != e);
  std::sort(members.begin(), members.end());
  return members;
}

std::vector<EntityId> LinkIndex::Cluster(EntityId e) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return ClusterLocked(e);
}

std::vector<EntityId> LinkIndex::Duplicates(EntityId e) const {
  std::vector<EntityId> members = Cluster(e);
  members.erase(std::remove(members.begin(), members.end(), e), members.end());
  return members;
}

void LinkIndex::MarkResolvedLocked(EntityId e) {
  if (!resolved_[e]) {
    resolved_[e] = true;
    ++num_resolved_count_;
  }
}

bool LinkIndex::IsResolved(EntityId e) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return resolved_[e];
}

std::size_t LinkIndex::num_resolved() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return num_resolved_count_;
}

std::size_t LinkIndex::num_links() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return num_links_;
}

void LinkIndex::set_wal(LinkIndexWal* wal) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  wal_ = wal;
}

void LinkIndex::RestoreLinks(const std::vector<Link>& links) {
  if (links.empty()) return;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (const auto& [a, b] : links) AddLinkLocked(a, b);
  epoch_.fetch_add(1, std::memory_order_release);
}

void LinkIndex::RestoreMarks(const std::vector<EntityId>& entities) {
  if (entities.empty()) return;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (EntityId e : entities) MarkResolvedLocked(e);
  epoch_.fetch_add(1, std::memory_order_release);
}

void LinkIndex::RestoreMarkAll() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (EntityId e = 0; e < resolved_.size(); ++e) MarkResolvedLocked(e);
  epoch_.fetch_add(1, std::memory_order_release);
}

void LinkIndex::Reset() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (wal_ != nullptr) {
    const Status status = wal_->AppendReset();
    if (!status.ok()) throw LinkIndexWalError(status.ToString());
  }
  std::iota(parent_.begin(), parent_.end(), 0);
  std::fill(cluster_size_.begin(), cluster_size_.end(), 1);
  std::iota(next_in_cluster_.begin(), next_in_cluster_.end(), 0);
  std::fill(resolved_.begin(), resolved_.end(), false);
  num_resolved_count_ = 0;
  num_links_ = 0;
  epoch_.fetch_add(1, std::memory_order_release);
}

std::size_t LinkIndex::MemoryFootprint() const {
  return parent_.size() * (sizeof(EntityId) * 2 + sizeof(std::uint32_t)) +
         resolved_.size() / 8;
}

}  // namespace queryer
