#include "relation/graph.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <utility>

#include "runtime/stats.hpp"

namespace lacon {

namespace {

constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();

}  // namespace

Graph::Graph(std::size_t size) : size_(size) {
  assert(size < std::numeric_limits<Vertex>::max());
}

Graph Graph::from_relation(std::size_t size,
                           std::function<bool(std::size_t, std::size_t)>
                               related) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("relation.pair_sweep_time"));
  const std::size_t pairs = size < 2 ? 0 : size * (size - 1) / 2;
  stats.counter("relation.pairs_evaluated").add(pairs);

  // Lexicographic (a, b) order is the sorted edge order from_sorted_edges
  // expects.
  std::vector<Edge> edges;
  for (std::size_t a = 0; a < size; ++a) {
    for (std::size_t b = a + 1; b < size; ++b) {
      if (related(a, b)) {
        edges.emplace_back(static_cast<Vertex>(a), static_cast<Vertex>(b));
      }
    }
  }
  return from_sorted_edges(size, std::move(edges));
}

Graph Graph::from_sorted_edges(std::size_t size, std::vector<Edge> edges) {
  assert(std::is_sorted(edges.begin(), edges.end()));
  Graph g(size);
  g.edge_list_ = std::move(edges);
  g.ensure_csr();
  return g;
}

void Graph::add_edge(std::size_t a, std::size_t b) {
  assert(a < size() && b < size() && a != b);
  edge_list_.emplace_back(static_cast<Vertex>(a), static_cast<Vertex>(b));
  csr_stale_ = true;
}

void Graph::ensure_csr() const {
  if (!csr_stale_) return;
  offsets_.assign(size_ + 1, 0);
  for (const Edge& e : edge_list_) {
    ++offsets_[e.first + 1];
    ++offsets_[e.second + 1];
  }
  for (std::size_t v = 0; v < size_; ++v) offsets_[v + 1] += offsets_[v];
  csr_.resize(2 * edge_list_.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edge_list_) {
    csr_[cursor[e.first]++] = e.second;
    csr_[cursor[e.second]++] = e.first;
  }
  csr_stale_ = false;
}

std::span<const Graph::Vertex> Graph::neighbors(std::size_t v) const {
  ensure_csr();
  return std::span<const Vertex>(csr_.data() + offsets_[v],
                                 offsets_[v + 1] - offsets_[v]);
}

std::vector<std::size_t> Graph::bfs_distances(std::size_t source) const {
  // Callers hold a finalized CSR (they ran ensure_csr()), so this reads
  // offsets_/csr_ directly.
  std::vector<std::size_t> dist(size(), kUnreached);
  std::queue<std::size_t> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const std::size_t v = queue.front();
    queue.pop();
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const std::size_t w = csr_[i];
      if (dist[w] == kUnreached) {
        dist[w] = dist[v] + 1;
        queue.push(w);
      }
    }
  }
  return dist;
}

std::size_t Graph::bfs_eccentricity(std::size_t source,
                                    EccScratch& s) const {
  const std::size_t n = size();
  s.visited.reset(n);
  s.next.reset(n);
  s.frontier.resize(n);  // a level is at most the whole vertex set
  s.visited.mark(source);
  s.frontier[0] = static_cast<Vertex>(source);
  std::size_t frontier_len = 1;
  std::size_t reached = 1;
  std::size_t levels = 0;
  while (frontier_len != 0) {
    for (std::size_t i = 0; i < frontier_len; ++i) {
      const Vertex v = s.frontier[i];
      for (std::size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        s.next.mark(csr_[e]);
      }
    }
    frontier_len = s.next.drain_fresh_into(s.visited, s.frontier.data());
    if (frontier_len == 0) break;
    ++levels;
    reached += frontier_len;
  }
  return reached == n ? levels : kUnreached;
}

bool Graph::connected() const {
  if (size() <= 1) return true;
  ensure_csr();
  EccScratch scratch;
  return bfs_eccentricity(0, scratch) != kUnreached;
}

std::vector<std::size_t> Graph::components() const {
  ensure_csr();
  std::vector<std::size_t> label(size(), kUnreached);
  std::size_t next = 0;
  for (std::size_t v = 0; v < size(); ++v) {
    if (label[v] != kUnreached) continue;
    const std::size_t mine = next++;
    std::queue<std::size_t> queue;
    label[v] = mine;
    queue.push(v);
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop();
      for (std::size_t w : neighbors(u)) {
        if (label[w] == kUnreached) {
          label[w] = mine;
          queue.push(w);
        }
      }
    }
  }
  return label;
}

guard::Partial<std::optional<std::size_t>> Graph::diameter(
    const guard::Guard& g) const {
  guard::Partial<std::optional<std::size_t>> out;
  if (size() == 0) {
    out.value = std::nullopt;
    return out;
  }
  ensure_csr();
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("relation.diameter_time"));
  // Fold eccentricities in source order. One full BFS that misses a vertex
  // proves disconnection: the answer cannot change, so the remaining
  // sources are skipped and the result is reported complete.
  EccScratch scratch;  // reset per source; its allocations persist
  std::size_t best = 0;
  bool disconnected = false;
  const std::size_t done = guard::guarded_for(g, size(), [&](std::size_t v) {
    if (disconnected) return;
    const std::size_t e = bfs_eccentricity(v, scratch);
    if (e == kUnreached) {
      disconnected = true;
    } else {
      best = std::max(best, e);
    }
  });
  stats.counter("relation.diameter_sources").add(done);
  if (disconnected) {
    out.value = std::nullopt;
    out.completed = size();
    return out;
  }
  out.completed = done;
  out.truncation = g.reason();
  if (done > 0) out.value = best;  // no sources finished -> no bound at all
  return out;
}

std::optional<std::size_t> Graph::diameter() const {
  guard::ScopedGuard scoped(guard::process_guard_spec());
  return diameter(scoped.get()).value;
}

std::optional<std::size_t> Graph::distance(std::size_t a, std::size_t b) const {
  ensure_csr();
  const std::vector<std::size_t> dist = bfs_distances(a);
  if (dist[b] == kUnreached) return std::nullopt;
  return dist[b];
}

std::vector<std::size_t> Graph::shortest_path(std::size_t a,
                                              std::size_t b) const {
  // BFS from b so we can walk a -> b by strictly decreasing distance.
  ensure_csr();
  const std::vector<std::size_t> dist = bfs_distances(b);
  if (dist[a] == kUnreached) return {};
  std::vector<std::size_t> path = {a};
  std::size_t cur = a;
  while (cur != b) {
    for (std::size_t w : neighbors(cur)) {
      if (dist[w] + 1 == dist[cur]) {
        cur = w;
        path.push_back(w);
        break;
      }
    }
  }
  return path;
}

}  // namespace lacon
