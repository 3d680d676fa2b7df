#include "metablocking/edge_pruning.h"

#include <algorithm>
#include <vector>

namespace queryer {

namespace {

// The inverse of a block collection as dense arrays (CSR): for every
// entity id up to the largest one the collection holds, the positions of
// the blocks that contain it, ascending.
class EntityBlockLists {
 public:
  explicit EntityBlockLists(const BlockCollection& blocks) {
    std::size_t n = 0;
    for (const Block& b : blocks) {
      for (EntityId e : b.entities) {
        n = std::max<std::size_t>(n, e + std::size_t{1});
      }
    }
    offsets_.assign(n + 1, 0);
    for (const Block& b : blocks) {
      for (EntityId e : b.entities) ++offsets_[e + 1];
    }
    for (std::size_t e = 0; e < n; ++e) offsets_[e + 1] += offsets_[e];
    blocks_.resize(offsets_[n]);
    // Filled in block order, so every list comes out ascending.
    std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::uint32_t i = 0; i < blocks.size(); ++i) {
      for (EntityId e : blocks[i].entities) blocks_[cursor[e]++] = i;
    }
  }

  /// One past the largest entity id of the collection (0 when empty).
  std::size_t num_entities() const { return offsets_.size() - 1; }
  const std::uint32_t* begin(EntityId e) const {
    return blocks_.data() + offsets_[e];
  }
  const std::uint32_t* end(EntityId e) const {
    return blocks_.data() + offsets_[e + 1];
  }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> blocks_;
};

// The entity-centric pass. Every query entity q, ascending, walks its
// blocks and counts each co-occurring entity y that the pair is emitted
// from q for — y is not a query entity, or y > q. After q's blocks,
// emit(pair, shared) runs once per neighbour y, `shared` being the number
// of blocks q and y share. Each query-relevant pair is thus emitted
// exactly once, from its smaller query endpoint.
template <typename Emit>
void ForEachQueryEdge(const BlockCollection& blocks,
                      const EntityBlockLists& lists, Emit&& emit) {
  const std::size_t n = lists.num_entities();
  std::vector<std::uint8_t> is_query(n, 0);
  for (const Block& b : blocks) {
    for (EntityId q : b.query_entities) is_query[q] = 1;
  }
  std::vector<std::uint32_t> shared(n, 0);
  std::vector<EntityId> touched;
  for (EntityId q = 0; q < n; ++q) {
    if (!is_query[q]) continue;
    for (const std::uint32_t* it = lists.begin(q); it != lists.end(q); ++it) {
      for (EntityId y : blocks[*it].entities) {
        if (y == q || (is_query[y] && y < q)) continue;
        if (shared[y]++ == 0) touched.push_back(y);
      }
    }
    for (EntityId y : touched) {
      emit(q < y ? Comparison{q, y} : Comparison{y, q}, shared[y]);
      shared[y] = 0;
    }
    touched.clear();
  }
}

// Sorts pairs ascending in O(E + n): a stable counting pass by the second
// endpoint, then one by the first (LSD radix, entity ids as digits). A
// comparison sort of the emitted edges cost more than the whole pass.
template <typename T, typename PairOf>
void SortByPair(std::vector<T>* items, std::size_t num_entities,
                PairOf pair_of) {
  std::vector<T> scratch(items->size());
  std::vector<std::size_t> start(num_entities + 1);
  auto pass = [&](auto digit, const std::vector<T>& from, std::vector<T>* to) {
    std::fill(start.begin(), start.end(), 0);
    for (const T& x : from) ++start[digit(x) + 1];
    for (std::size_t e = 0; e < num_entities; ++e) start[e + 1] += start[e];
    for (const T& x : from) (*to)[start[digit(x)]++] = x;
  };
  pass([&](const T& x) { return pair_of(x).second; }, *items, &scratch);
  pass([&](const T& x) { return pair_of(x).first; }, scratch, items);
}

}  // namespace

BlockingGraph BuildBlockingGraph(const BlockCollection& blocks) {
  const EntityBlockLists lists(blocks);
  BlockingGraph graph;
  ForEachQueryEdge(blocks, lists, [&](Comparison pair, std::uint32_t shared) {
    graph.edges.push_back({pair, static_cast<double>(shared)});
  });
  // The mean is summed in sorted order, so it depends only on the edge set.
  SortByPair(&graph.edges, lists.num_entities(),
             [](const WeightedEdge& edge) { return edge.pair; });
  double total_weight = 0;
  for (const WeightedEdge& edge : graph.edges) total_weight += edge.weight;
  graph.mean_weight =
      graph.edges.empty()
          ? 0.0
          : total_weight / static_cast<double>(graph.edges.size());
  return graph;
}

std::vector<Comparison> EdgePruning(const BlockingGraph& graph) {
  std::vector<Comparison> kept;
  kept.reserve(graph.edges.size());
  for (const WeightedEdge& edge : graph.edges) {
    if (edge.weight >= graph.mean_weight) kept.push_back(edge.pair);
  }
  return kept;
}

std::vector<Comparison> DistinctComparisons(const BlockCollection& blocks) {
  const EntityBlockLists lists(blocks);
  std::vector<Comparison> comparisons;
  ForEachQueryEdge(blocks, lists, [&](Comparison pair, std::uint32_t) {
    comparisons.push_back(pair);
  });
  SortByPair(&comparisons, lists.num_entities(),
             [](const Comparison& pair) { return pair; });
  return comparisons;
}

}  // namespace queryer
