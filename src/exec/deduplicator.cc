#include "exec/deduplicator.h"

#include <algorithm>

#include "blocking/block_join.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace queryer {

std::vector<Comparison> Deduplicator::BuildComparisons(
    const std::vector<EntityId>& unresolved) {
  // (i) Query Blocking: build the QBI with the table's blocking function.
  Stopwatch watch;
  QueryBlockIndex qbi;
  {
    TraceSpan span(trace_, "blocking", "er");
    qbi = QueryBlockIndex::Build(runtime_->table(), unresolved,
                                 runtime_->blocking_options());
  }
  stats_->blocking_seconds += watch.ElapsedSeconds();

  // (ii) Block-Join against the TBI (built once per table).
  const TableBlockIndex& tbi = runtime_->tbi();
  watch.Restart();
  BlockCollection enriched;
  {
    TraceSpan span(trace_, "block-join", "er");
    enriched = BlockJoin(qbi, tbi);
  }
  stats_->block_join_seconds += watch.ElapsedSeconds();
  stats_->blocks_after_join += enriched.size();

  // (iii) Meta-Blocking: BP -> BF -> EP per the table's configuration.
  MetaBlockingResult refined = RunMetaBlocking(
      std::move(enriched), runtime_->meta_blocking_config(), pool_, trace_);
  stats_->purging_seconds += refined.purging_seconds;
  stats_->filtering_seconds += refined.filtering_seconds;
  stats_->edge_pruning_seconds += refined.edge_pruning_seconds;
  stats_->blocks_after_purging += refined.blocks_after_purging;
  stats_->blocks_after_filtering += refined.blocks_after_filtering;
  stats_->comparisons_before_pruning += refined.comparisons_before_pruning;
  std::vector<Comparison> comparisons = std::move(refined.comparisons);
  stats_->comparisons_after_metablocking += comparisons.size();
  if (stats_->collect_comparisons) {
    stats_->collected_comparisons.insert(stats_->collected_comparisons.end(),
                                         comparisons.begin(),
                                         comparisons.end());
  }
  return comparisons;
}

Result<std::vector<EntityId>> Deduplicator::Resolve(
    const std::vector<EntityId>& query_entities,
    std::vector<EntityId>* group_keys) {
  Result<std::vector<EntityId>> result =
      ResolveTransaction(query_entities, group_keys);
  if (!result.ok()) {
    const Status status = result.status();
    if (status.IsCancelled() || status.IsDeadlineExceeded()) {
      GlobalEngineMetrics().cancelled_in_resolution->Increment();
    }
    return result;
  }
  // A resolution just appended to the durable link log (if one is
  // attached); compact it when it outgrew the threshold. Outside the Link
  // Index lock by construction, and a compaction failure only defers
  // truncation — the query's answer is unaffected.
  (void)runtime_->MaybeCompactLinkLog();
  return result;
}

Status Deduplicator::EvaluateAndPublishOwned(
    const std::vector<Comparison>& owned) {
  LinkIndex& li = runtime_->link_index();
  ResolutionCoordinator& coordinator = runtime_->coordinator();
  // Failures arrive two ways: error Statuses from the evaluation (cancel
  // poll, injected chunk errors) and exceptions (injected publish throws,
  // bad_alloc). Both take the abandon path below.
  Status status;
  try {
    Stopwatch watch;
    TraceSpan span(trace_, "resolution", "er");
    Result<StagedComparisons> staged_result = EvaluateComparisons(
        runtime_->table(), owned, runtime_->matching_config(), li,
        &runtime_->attribute_weights(), pool_, cancel_);
    if (staged_result.ok()) {
      StagedComparisons staged = staged_result.MoveValueUnsafe();
      const std::uint64_t published = li.PublishLinks(staged.matched);
      stats_->comparisons_executed += staged.executed;
      stats_->comparisons_skipped_linked += staged.skipped_linked;
      stats_->matches_found += published;
      stats_->resolution_seconds += watch.ElapsedSeconds();
      const EngineMetrics& metrics = GlobalEngineMetrics();
      metrics.comparisons_executed->Increment(staged.executed);
      metrics.comparisons_skipped_linked->Increment(staged.skipped_linked);
      metrics.matches_found->Increment(published);
      span.set_args("\"comparisons\":" + std::to_string(staged.executed) +
                    ",\"matches\":" + std::to_string(published));
      coordinator.ReleaseComparisons(owned);
      return Status::OK();
    }
    status = staged_result.status();
  } catch (const std::exception& e) {
    status = Status::Internal(e.what());
  } catch (...) {
    status = Status::Internal("non-std exception during comparison publish");
  }
  // Could not publish: park the pairs for a waiter to adopt — a normal
  // release would let that waiter mark its entities resolved on the
  // strength of comparisons nobody ran.
  coordinator.AbandonComparisons(owned);
  return status;
}

Status Deduplicator::ResolveClaimed(const std::vector<EntityId>& claimed) {
  LinkIndex& li = runtime_->link_index();
  ResolutionCoordinator& coordinator = runtime_->coordinator();
  Status status;
  try {
    status = [&]() -> Status {
      std::vector<Comparison> comparisons = BuildComparisons(claimed);

      // (iv) staged: claim the pairs, evaluate them read-only, publish the
      // matches in one exclusive section, then release the pair claims.
      ResolutionCoordinator::ComparisonClaim pairs =
          coordinator.ClaimComparisons(comparisons);
      stats_->comparisons_skipped_inflight += pairs.foreign.size();
      QUERYER_RETURN_NOT_OK(EvaluateAndPublishOwned(pairs.owned));

      // An entity's link-set is complete only once every in-flight
      // comparison that could still link it has been published. Ours just
      // were; the foreign ones are awaited. Pairs whose owner failed before
      // publishing come back adopted and are evaluated right here, so a
      // resolved mark never rests on a comparison that silently vanished.
      std::vector<Comparison> orphans =
          coordinator.AwaitComparisons(pairs.foreign);
      if (!orphans.empty()) {
        stats_->comparisons_skipped_inflight -= orphans.size();
        QUERYER_RETURN_NOT_OK(EvaluateAndPublishOwned(orphans));
      }
      // Monotonic counter: count only the pairs that stayed skipped (adopted
      // orphans were executed after all).
      GlobalEngineMetrics().comparisons_skipped_inflight->Increment(
          pairs.foreign.size() - orphans.size());
      li.MarkResolvedBatch(claimed);
      coordinator.ReleaseEntities(claimed);
      return Status::OK();
    }();
  } catch (const std::exception& e) {
    status = Status::Internal(e.what());
  } catch (...) {
    status = Status::Internal("non-std exception during claimed resolution");
  }
  if (!status.ok()) {
    // Failure path: free the entity claims WITHOUT resolved marks. The
    // entities stay unresolved, so the next session that waits on them
    // re-claims and resolves them itself.
    coordinator.ReleaseEntities(claimed);
  }
  return status;
}

Result<std::vector<EntityId>> Deduplicator::ResolveTransaction(
    const std::vector<EntityId>& query_entities,
    std::vector<EntityId>* group_keys) {
  LinkIndex& li = runtime_->link_index();
  ResolutionCoordinator& coordinator = runtime_->coordinator();
  stats_->query_entities += query_entities.size();

  // One atomic step: count resolved entities, claim the unresolved ones
  // nobody else is resolving, note the rest as foreign.
  ResolutionCoordinator::EntityClaim claim =
      coordinator.ClaimEntities(query_entities, li);
  stats_->entities_already_resolved += claim.already_resolved;
  stats_->entities_claimed_elsewhere += claim.foreign.size();
  {
    const EngineMetrics& metrics = GlobalEngineMetrics();
    metrics.link_index_hits->Increment(claim.already_resolved);
    metrics.link_index_misses->Increment(query_entities.size() -
                                         claim.already_resolved);
  }

  // Claim loop: resolve what we own, wait for what others own, then
  // re-claim the leftovers — a waited-on entity is only guaranteed
  // *released*, not resolved (its owner may have failed), in which case
  // this session adopts it on the next iteration. Each iteration either
  // finishes every pending entity or adopts from a failed session, so the
  // loop terminates with all query entities resolved (or throws).
  while (!claim.claimed.empty() || !claim.foreign.empty()) {
    // Poll between iterations too: an adopt-and-retry loop must not outlive
    // its session's cancellation. The poll fires while this session may
    // hold entity claims (the initial ClaimEntities or the post-Await
    // re-claim below), and a stranded claim blocks every later
    // AwaitEntities on those entities forever — release before returning.
    if (cancel_ != nullptr) {
      Status poll = cancel_->Check();
      if (!poll.ok()) {
        coordinator.ReleaseEntities(claim.claimed);
        return poll;
      }
    }
    if (!claim.claimed.empty()) {
      QUERYER_RETURN_NOT_OK(ResolveClaimed(claim.claimed));
    }
    if (claim.foreign.empty()) break;
    coordinator.AwaitEntities(claim.foreign);
    claim = coordinator.ClaimEntities(claim.foreign, li);
  }

  // DR_E = QE ∪ duplicates(QE), ascending and distinct. Membership and
  // group keys come from ONE consistent snapshot: reading them separately
  // would let a concurrent publish shear the answer.
  std::vector<EntityId> result;
  result.reserve(query_entities.size());
  {
    LinkIndex::ReadView view = li.SharedSnapshot();
    for (EntityId e : query_entities) {
      for (EntityId member : view.Cluster(e)) result.push_back(member);
    }
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    if (group_keys != nullptr) {
      group_keys->clear();
      group_keys->reserve(result.size());
      for (EntityId e : result) group_keys->push_back(view.Representative(e));
    }
  }
  return result;
}

}  // namespace queryer
