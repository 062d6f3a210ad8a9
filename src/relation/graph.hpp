// Small undirected-graph utilities used for the paper's connectivity notions:
// given a finite set X of states and a binary relation (~s or ~v), we form
// the graph (X, ~) and ask about connectedness and diameter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "runtime/guard.hpp"
#include "util/bitset.hpp"

namespace lacon {

// An undirected graph on vertices 0..size-1. Edges accumulate in an
// insertion-ordered edge list; queries read a CSR layout (an offsets array
// into one flat neighbor array) materialized lazily from that list. The CSR
// neighbor order reproduces the classic push-back adjacency-list order
// exactly — edge (a, b) appends b to a's row and a to b's row, in edge-list
// order — so graphs built from the same edge sequence are byte-identical
// regardless of layout history.
//
// Thread-safety: building (add_edge) and the *first* query finalize shared
// state and must not race with other accesses; afterwards all queries are
// const reads and safe to run concurrently.
class Graph {
 public:
  using Vertex = std::uint32_t;
  using Edge = std::pair<Vertex, Vertex>;

  explicit Graph(std::size_t size);

  // Builds the graph of a symmetric relation by evaluating `related` on all
  // unordered pairs (a, b), a < b, in lexicographic order — the edge order
  // from_sorted_edges expects.
  static Graph from_relation(std::size_t size,
                             std::function<bool(std::size_t, std::size_t)>
                                 related);

  // Builds the graph from an explicit list of unordered edges (a < b),
  // already sorted (a, b)-lexicographically and deduplicated — the order
  // from_relation's full sweep produces. The similarity index and the
  // valence clique builder use this to bypass the pair sweep entirely while
  // producing byte-identical graphs.
  static Graph from_sorted_edges(std::size_t size, std::vector<Edge> edges);

  void add_edge(std::size_t a, std::size_t b);

  std::size_t size() const noexcept { return size_; }
  std::span<const Vertex> neighbors(std::size_t v) const;
  std::size_t edge_count() const noexcept { return edge_list_.size(); }

  bool connected() const;

  // Connected-component label per vertex, labels are 0..k-1 in first-seen
  // order.
  std::vector<std::size_t> components() const;

  // Diameter of the graph: the largest BFS eccentricity over all sources,
  // under the process guard spec (the guarded overload's value). nullopt
  // when the graph is disconnected (infinite diameter) or empty.
  std::optional<std::size_t> diameter() const;

  // Guarded diameter. `completed` counts BFS sources fully evaluated (a
  // contiguous prefix of the vertex space); a truncated result's engaged
  // value is the eccentricity maximum over exactly those sources — a lower
  // bound on the true diameter. If any completed source proves the graph
  // disconnected the answer (nullopt) is conclusive and the result is
  // reported complete even if the guard also tripped.
  guard::Partial<std::optional<std::size_t>> diameter(
      const guard::Guard& g) const;

  // Length of a shortest path between a and b; nullopt if not connected.
  std::optional<std::size_t> distance(std::size_t a, std::size_t b) const;

  // A shortest path from a to b (inclusive); empty if not connected.
  std::vector<std::size_t> shortest_path(std::size_t a, std::size_t b) const;

 private:
  // Reusable per-thread buffers for bfs_eccentricity: the visited/next bit
  // sets of the level-synchronous BFS plus the current frontier. reset()
  // between sources keeps the allocations.
  struct EccScratch {
    DenseBitset visited;
    DenseBitset next;
    std::vector<Vertex> frontier;
  };

  // Rebuilds offsets_/csr_ from edge_list_ if edges were added since the
  // last build. Counting pass over degrees, prefix-sum, cursor fill.
  void ensure_csr() const;
  std::vector<std::size_t> bfs_distances(std::size_t source) const;

  // Eccentricity of `source` by level-synchronous bitmap BFS: mark every
  // frontier neighbor into `next`, then one fused frontier_advance kernel
  // step (fresh = next & ~visited; visited |= fresh; emit fresh indices)
  // yields the following frontier. Level counts equal queue-BFS distances,
  // so the value matches max(bfs_distances(source)) exactly; returns
  // SIZE_MAX (kUnreached) when some vertex is unreachable. Requires a
  // finalized CSR.
  std::size_t bfs_eccentricity(std::size_t source, EccScratch& scratch) const;

  std::size_t size_ = 0;
  std::vector<Edge> edge_list_;
  mutable bool csr_stale_ = true;
  mutable std::vector<std::size_t> offsets_;  // size_ + 1 row boundaries
  mutable std::vector<Vertex> csr_;           // 2 * edge_count() entries
};

}  // namespace lacon
