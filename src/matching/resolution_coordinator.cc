#include "matching/resolution_coordinator.h"

#include <algorithm>
#include <iterator>

#include "common/failpoint.h"

namespace queryer {

std::uint64_t ResolutionCoordinator::KeyOf(const Link& link) {
  EntityId lo = std::min(link.first, link.second);
  EntityId hi = std::max(link.first, link.second);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

ResolutionCoordinator::EntityClaim ResolutionCoordinator::ClaimEntities(
    const std::vector<EntityId>& query_entities, const LinkIndex& index) {
  EntityClaim claim;
  // The resolved reads and the claim must be one atomic step: between a
  // separate "is resolved?" check and a later claim, a concurrent session
  // could finish (mark resolved + release), and the stale check would make
  // this session re-resolve the entity — re-running comparisons no serial
  // schedule executes. Lock order is coordinator mutex, then the index's
  // shared lock; nothing locks in the opposite order.
  std::lock_guard<std::mutex> lock(mutex_);
  LinkIndex::ReadView view = index.SharedSnapshot();
  for (EntityId e : query_entities) {
    if (view.IsResolved(e)) {
      ++claim.already_resolved;
    } else if (entities_in_flight_.insert(e).second) {
      claim.claimed.push_back(e);
    } else {
      claim.foreign.push_back(e);
    }
  }
  return claim;
}

void ResolutionCoordinator::ReleaseEntities(
    const std::vector<EntityId>& claimed) {
  if (claimed.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (EntityId e : claimed) entities_in_flight_.erase(e);
  }
  released_.notify_all();
}

void ResolutionCoordinator::AwaitEntities(
    const std::vector<EntityId>& foreign) {
  if (foreign.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  released_.wait(lock, [&] {
    for (EntityId e : foreign) {
      if (entities_in_flight_.count(e) > 0) return false;
    }
    return true;
  });
}

std::vector<std::uint64_t> ResolutionCoordinator::SortedKeys(
    const std::vector<Link>& links) {
  std::vector<std::uint64_t> keys;
  keys.reserve(links.size());
  for (const Link& link : links) keys.push_back(KeyOf(link));
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool ResolutionCoordinator::InFlight(std::uint64_t key) const {
  return std::binary_search(comparisons_in_flight_.begin(),
                            comparisons_in_flight_.end(), key);
}

void ResolutionCoordinator::RemoveInFlight(const std::vector<Link>& owned) {
  // The owner's pairs are all in flight, so when the counts agree nothing
  // else is: the common single-session case clears without sorting.
  if (owned.size() == comparisons_in_flight_.size()) {
    comparisons_in_flight_.clear();
    return;
  }
  const std::vector<std::uint64_t> keys = SortedKeys(owned);
  std::vector<std::uint64_t> rest;
  rest.reserve(comparisons_in_flight_.size() - owned.size());
  std::set_difference(comparisons_in_flight_.begin(),
                      comparisons_in_flight_.end(), keys.begin(), keys.end(),
                      std::back_inserter(rest));
  comparisons_in_flight_.swap(rest);
}

ResolutionCoordinator::ComparisonClaim
ResolutionCoordinator::ClaimComparisons(const std::vector<Link>& comparisons) {
  // Before any claim-table mutation: an injected failure here must leave
  // nothing to clean up (the session fails with zero pairs claimed).
  QUERYER_FAILPOINT_THROW("coordinator.claim_comparisons");
  // Sorted outside the lock; merged into the sorted in-flight table below.
  std::vector<std::uint64_t> keys = SortedKeys(comparisons);
  ComparisonClaim claim;
  claim.owned.reserve(comparisons.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Link& pair : comparisons) {
    (InFlight(KeyOf(pair)) ? claim.foreign : claim.owned).push_back(pair);
  }
  if (comparisons_in_flight_.empty()) {
    comparisons_in_flight_ = std::move(keys);
  } else {
    // In flight ∪ ours: the foreign keys are already in the table.
    std::vector<std::uint64_t> merged;
    merged.reserve(comparisons_in_flight_.size() + claim.owned.size());
    std::set_union(comparisons_in_flight_.begin(),
                   comparisons_in_flight_.end(), keys.begin(), keys.end(),
                   std::back_inserter(merged));
    comparisons_in_flight_.swap(merged);
  }
  // A fresh claim also adopts a pair a failed session abandoned: the new
  // owner evaluates it, so it leaves the adoption pool — only once it is in
  // flight, so a failed merge never leaves a pair neither in flight nor
  // abandoned.
  if (!comparisons_abandoned_.empty()) {
    for (const Link& pair : claim.owned) {
      comparisons_abandoned_.erase(KeyOf(pair));
    }
  }
  return claim;
}

void ResolutionCoordinator::ReleaseComparisons(const std::vector<Link>& owned) {
  // Inert (release must not fail — the claims would be stranded forever);
  // a delay here widens the publish -> release window chaos tests probe.
  QUERYER_FAILPOINT_INERT("coordinator.release");
  if (owned.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RemoveInFlight(owned);
  }
  released_.notify_all();
}

void ResolutionCoordinator::AbandonComparisons(const std::vector<Link>& owned) {
  if (owned.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RemoveInFlight(owned);
    for (const Link& pair : owned) comparisons_abandoned_.insert(KeyOf(pair));
  }
  released_.notify_all();
}

std::vector<ResolutionCoordinator::Link> ResolutionCoordinator::AwaitComparisons(
    const std::vector<Link>& foreign) {
  std::vector<Link> adopted;
  if (foreign.empty()) return adopted;
  std::unordered_set<std::uint64_t> adopted_keys;
  std::unique_lock<std::mutex> lock(mutex_);
  // The predicate adopts abandoned pairs as a side effect: the check and
  // the re-claim must be one atomic step, or two waiters could both judge
  // a pair adoptable and race for it outside the wait.
  released_.wait(lock, [&] {
    bool settled = true;
    for (const Link& pair : foreign) {
      std::uint64_t key = KeyOf(pair);
      if (adopted_keys.count(key) > 0) continue;  // Already ours.
      if (comparisons_abandoned_.count(key) > 0) {
        // Local bookkeeping first, global claim state last: if an insert
        // throws (bad_alloc), the pair must still be abandoned and
        // unclaimed, not in flight under nobody.
        adopted.push_back(pair);
        adopted_keys.insert(key);
        comparisons_in_flight_.insert(
            std::lower_bound(comparisons_in_flight_.begin(),
                             comparisons_in_flight_.end(), key),
            key);
        comparisons_abandoned_.erase(key);
        continue;
      }
      if (InFlight(key)) settled = false;
    }
    return settled;
  });
  return adopted;
}

std::size_t ResolutionCoordinator::num_entities_in_flight() {
  std::lock_guard<std::mutex> lock(mutex_);
  return entities_in_flight_.size();
}

std::size_t ResolutionCoordinator::num_comparisons_in_flight() {
  std::lock_guard<std::mutex> lock(mutex_);
  return comparisons_in_flight_.size();
}

std::size_t ResolutionCoordinator::num_comparisons_abandoned() {
  std::lock_guard<std::mutex> lock(mutex_);
  return comparisons_abandoned_.size();
}

}  // namespace queryer
