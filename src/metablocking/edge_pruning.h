// Edge Pruning (paper Sec. 4, [27]): comparison-refinement meta-blocking.
//
// The block collection is turned into a blocking graph — a node per entity,
// an edge per pair of co-occurring entities — and every edge is weighted by
// the likelihood its endpoints match. Weighted Edge Pruning then discards
// edges below the mean edge weight, eliminating most superfluous comparisons
// while keeping nearly all matching ones.
//
// In QueryER only edges with at least one query-entity endpoint matter
// (Comparison-Execution never compares two non-query entities), so the graph
// is built restricted to those edges.

#ifndef QUERYER_METABLOCKING_EDGE_PRUNING_H_
#define QUERYER_METABLOCKING_EDGE_PRUNING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "blocking/block.h"

namespace queryer {

/// A candidate comparison between two entities, canonically ordered
/// (first < second).
using Comparison = std::pair<EntityId, EntityId>;

/// \brief One weighted edge of the blocking graph.
struct WeightedEdge {
  Comparison pair;
  double weight = 0;
};

/// \brief Blocking graph restricted to query-relevant edges.
struct BlockingGraph {
  std::vector<WeightedEdge> edges;
  double mean_weight = 0;
};

/// \brief Builds the (query-restricted) blocking graph, every edge weighted
/// by the Common Blocks Scheme (CBS): the number of blocks both entities
/// share. Of the weighting schemes of Papadakis et al. ("Meta-Blocking",
/// TKDE 2014), CBS is the one QueryER runs.
///
/// The weights are counted entity-centrically: each query entity makes one
/// pass over its blocks, counting its co-occurring entities in a dense
/// counter indexed by entity id, and a pair is emitted once, from its
/// smaller query endpoint. That is O(Σ|QE_b|·|b|) work, not the O(Σ|b|²)
/// of enumerating every pair of every block. Weights are integers, so they
/// are exact; edges are sorted by pair and the mean is summed in that
/// order.
BlockingGraph BuildBlockingGraph(const BlockCollection& blocks);

/// \brief Weighted Edge Pruning: keeps edges with weight >= mean weight.
///
/// Returns the surviving comparisons in deterministic order.
std::vector<Comparison> EdgePruning(const BlockingGraph& graph);

/// \brief All distinct query-relevant comparisons of a block collection,
/// without pruning (the BP+BF configuration of paper Table 8), sorted. Each
/// pair is listed once even if it co-occurs in many blocks; the same
/// entity-centric pass as BuildBlockingGraph, without weights.
std::vector<Comparison> DistinctComparisons(const BlockCollection& blocks);

}  // namespace queryer

#endif  // QUERYER_METABLOCKING_EDGE_PRUNING_H_
