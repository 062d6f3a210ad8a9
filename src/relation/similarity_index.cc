#include "relation/similarity_index.hpp"

#include <algorithm>
#include <utility>

#include "relation/similarity.hpp"
#include "runtime/stats.hpp"

namespace lacon {

Graph similarity_graph_naive(LayeredModel& model,
                             const std::vector<StateId>& X) {
  return Graph::from_relation(X.size(), [&](std::size_t a, std::size_t b) {
    return similar(model, X[a], X[b]);
  });
}

guard::Partial<Graph> similarity_graph_indexed(LayeredModel& model,
                                               const std::vector<StateId>& X,
                                               const guard::Guard& g) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("relation.index_time"));
  const std::size_t m = X.size();
  guard::Partial<Graph> out{Graph(m)};
  if (m < 2) {
    out.completed = 0;
    out.truncation = g.reason();
    return out;
  }
  const int n = model.n();

  // Fingerprint table, one row per state. Rows come from the model's
  // per-state memo (LayeredModel::fingerprint_row): the first sweep over a
  // state hashes and publishes its row, later sweeps — and sweeps after a
  // lacon::store warm start — only read. A trip here leaves nothing usable
  // (candidates need every row), so the result degrades to the empty graph.
  std::vector<const std::uint64_t*> rows(m);
  std::size_t hashed = 0;
  {
    runtime::ScopedTimer phase(
        stats.timer("relation.index_fingerprint_time"));
    hashed = guard::guarded_for(g, m, [&](std::size_t i) {
      rows[i] = model.fingerprint_row(X[i]);
    });
  }
  if (hashed < m) {
    out.truncation = g.reason();
    return out;
  }

  // Bucket states by (erased coordinate, fingerprint): sorting the
  // (fingerprint, index) column groups equal fingerprints contiguously.
  // Every pair with agree_modulo(x, y, j) true lands in j's bucket of their
  // common fingerprint, so the union over j covers all ~s edges. Probed per
  // erased coordinate — the bucketing is serial but O(n) passes long.
  std::uint64_t buckets = 0;
  std::vector<Graph::Edge> candidates;
  std::vector<std::pair<std::uint64_t, Graph::Vertex>> column(m);
  {
    runtime::ScopedTimer phase(stats.timer("relation.index_bucket_time"));
    for (ProcessId j = 0; j < n; ++j) {
      if (g.tripped()) {
        out.truncation = g.reason();
        return out;
      }
      for (std::size_t i = 0; i < m; ++i) {
        column[i] = {rows[i][static_cast<std::size_t>(j)],
                     static_cast<Graph::Vertex>(i)};
      }
      std::sort(column.begin(), column.end());
      for (std::size_t lo = 0; lo < m;) {
        std::size_t hi = lo + 1;
        while (hi < m && column[hi].first == column[lo].first) ++hi;
        if (hi - lo >= 2) {
          ++buckets;
          for (std::size_t a = lo; a < hi; ++a) {
            for (std::size_t b = a + 1; b < hi; ++b) {
              candidates.emplace_back(std::min(column[a].second,
                                               column[b].second),
                                      std::max(column[a].second,
                                               column[b].second));
            }
          }
        }
        lo = hi;
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
  stats.counter("relation.index_buckets").add(buckets);
  stats.counter("relation.index_candidates").add(candidates.size());

  // Confirm candidates with the exact relation, in order: the candidate
  // list is (a, b)-lexicographically sorted, so the survivors reproduce
  // exactly the naive sweep's edge sequence; under truncation the survivors
  // of the confirmed candidate prefix do.
  runtime::ScopedTimer confirm(stats.timer("relation.index_confirm_time"));
  std::vector<Graph::Edge> edges;
  const std::size_t evaluated =
      guard::guarded_for(g, candidates.size(), [&](std::size_t k) {
        const auto [a, b] = candidates[k];
        if (similar(model, X[a], X[b])) edges.push_back(candidates[k]);
      });
  stats.counter("relation.pairs_evaluated").add(evaluated);
  stats.counter("relation.index_confirmed").add(edges.size());
  stats.counter("relation.index_rejected").add(evaluated - edges.size());

  out.value = Graph::from_sorted_edges(m, std::move(edges));
  out.completed = evaluated;
  out.truncation = g.reason();
  return out;
}

Graph similarity_graph_indexed(LayeredModel& model,
                               const std::vector<StateId>& X) {
  guard::ScopedGuard scoped(guard::process_guard_spec());
  return similarity_graph_indexed(model, X, scoped.get()).value;
}

}  // namespace lacon
