// Coordination of concurrent resolution transactions over one table.
//
// When several query sessions call QueryEngine::Execute at once, each
// session that meets unresolved entities runs its own Deduplicate pipeline.
// Two sessions with overlapping selections would resolve the same entities
// and execute the same comparisons twice — wasted work, and worse, the
// entity-level interleaving could produce link sets no serial execution of
// the same queries can produce. The coordinator prevents both with two
// claim tables:
//
//  * Entity claims: a session atomically claims the unresolved entities it
//    will resolve. Entities claimed by another in-flight session are left
//    to that session; the claimer later waits for them to be resolved
//    instead of resolving them again. Every entity is therefore resolved by
//    exactly one session, and the resolution order is the claim order — a
//    valid serial schedule.
//
//  * Comparison claims (the comparison-dedup table): sessions resolving
//    different entities can still derive the same comparison pair (each
//    endpoint pulls the pair into its own blocks). A session claims the
//    pairs it will evaluate; pairs already in flight elsewhere are skipped
//    and awaited before the session declares its entities resolved, so a
//    "resolved" mark never precedes the completion of a comparison that
//    could still link the entity.
//
// Deadlock freedom: a session releases all its comparison claims before it
// waits for foreign comparisons, and releases its entity claims before it
// waits for foreign entities. Waits therefore only ever depend on sections
// that complete unconditionally.

#ifndef QUERYER_MATCHING_RESOLUTION_COORDINATOR_H_
#define QUERYER_MATCHING_RESOLUTION_COORDINATOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "matching/link_index.h"

namespace queryer {

/// \brief Claim tables for concurrent resolution transactions on one table.
class ResolutionCoordinator {
 public:
  using Link = LinkIndex::Link;

  /// Outcome of an entity claim.
  struct EntityClaim {
    /// Unresolved entities this session now owns and must resolve.
    std::vector<EntityId> claimed;
    /// Unresolved entities another in-flight session owns; wait for them
    /// with AwaitEntities before reading their clusters.
    std::vector<EntityId> foreign;
    /// Entities whose link-set was already complete at claim time.
    std::size_t already_resolved = 0;
  };

  /// Atomically partitions `query_entities`: entities resolved in `index`
  /// are counted, unclaimed unresolved entities become this session's
  /// (registered in-flight), the rest are foreign. The resolved check and
  /// the claim happen under one lock so a session can never re-resolve an
  /// entity that a concurrent session is completing.
  EntityClaim ClaimEntities(const std::vector<EntityId>& query_entities,
                            const LinkIndex& index);

  /// Removes this session's entity claims and wakes waiters. Call after
  /// the entities were marked resolved in the Link Index, so a subsequent
  /// claimer sees them as resolved rather than unclaimed. On the failure
  /// path (resolution threw), release WITHOUT marking resolved: unlike
  /// comparisons, entity state is re-checkable, so a waiter re-claims the
  /// still-unresolved leftovers by looping ClaimEntities after
  /// AwaitEntities (see Deduplicator::Resolve).
  void ReleaseEntities(const std::vector<EntityId>& claimed);

  /// Blocks until none of `foreign` is claimed by any in-flight session.
  /// Callers must then re-claim: a released entity is not necessarily a
  /// resolved one (its owner may have failed).
  void AwaitEntities(const std::vector<EntityId>& foreign);

  /// Outcome of a comparison claim.
  struct ComparisonClaim {
    /// Pairs this session now owns and must evaluate + publish.
    std::vector<Link> owned;
    /// Pairs another in-flight session is evaluating; wait for them with
    /// AwaitComparisons before marking entities resolved.
    std::vector<Link> foreign;
  };

  /// Atomically partitions `comparisons` into owned and foreign pairs.
  ComparisonClaim ClaimComparisons(const std::vector<Link>& comparisons);

  /// Removes this session's comparison claims and wakes waiters. Call
  /// after the pairs' outcomes were published to the Link Index.
  void ReleaseComparisons(const std::vector<Link>& owned);

  /// The failure-path counterpart of ReleaseComparisons: the owner could
  /// not publish the pairs' outcomes (its evaluation threw). The pairs are
  /// parked in the abandoned set, where a session that was awaiting them
  /// adopts and evaluates them itself — a waiter must never declare its
  /// entities resolved on the strength of a comparison nobody ran.
  void AbandonComparisons(const std::vector<Link>& owned);

  /// Blocks until every pair of `foreign` is either published (released by
  /// its owner) or abandoned. Abandoned pairs are atomically re-claimed by
  /// this caller and returned: the caller owns them now and must evaluate,
  /// publish and release (or abandon) them like its own claims. The common
  /// case — no owner failed — returns an empty vector.
  std::vector<Link> AwaitComparisons(const std::vector<Link>& foreign);

  /// Inspection for tests and invariant checks: with no resolution in
  /// flight, all three must be zero — a non-zero count after every session
  /// ended means a claim was stranded by a failure path.
  std::size_t num_entities_in_flight();
  std::size_t num_comparisons_in_flight();
  std::size_t num_comparisons_abandoned();

 private:
  static std::uint64_t KeyOf(const Link& link);
  static std::vector<std::uint64_t> SortedKeys(const std::vector<Link>& links);
  // Both under mutex_.
  bool InFlight(std::uint64_t key) const;
  void RemoveInFlight(const std::vector<Link>& owned);

  std::mutex mutex_;
  std::condition_variable released_;
  std::unordered_set<EntityId> entities_in_flight_;
  // Sorted pair keys: a claim costs one sort of the session's pairs and a
  // merge, with no per-pair allocation (a query claims thousands).
  std::vector<std::uint64_t> comparisons_in_flight_;
  // Pairs whose owner failed before publishing; adopted by the next
  // session that waits on them.
  std::unordered_set<std::uint64_t> comparisons_abandoned_;
};

}  // namespace queryer

#endif  // QUERYER_MATCHING_RESOLUTION_COORDINATOR_H_
