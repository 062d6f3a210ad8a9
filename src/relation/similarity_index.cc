#include "relation/similarity_index.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "relation/similarity.hpp"
#include "runtime/stats.hpp"

namespace lacon {
namespace {

// A candidate pair a < b and the erased coordinate j whose group produced
// it, the witness confirmation tries first.
struct Candidate {
  Graph::Vertex a;
  Graph::Vertex b;
  ProcessId j;
};

// Groups the vertices 0..m-1 by equal fingerprint, one erased coordinate
// at a time, in one pass over the coordinate's column. An open-addressing
// table with linear probing over a power-of-two number of slots, at most
// half full, maps a fingerprint to its group's latest member; earlier
// members chain through next_. A fingerprint's home slot is the top bits of
// fp * 2^64/phi (Fibonacci hashing, as in core/hash_index.hpp), and a slot
// matches when its member's fingerprint equals fp, so distinct fingerprints
// never share a group.
class FingerprintGroups {
 public:
  explicit FingerprintGroups(std::size_t m)
      : slots_(std::bit_ceil(2 * m)),
        mask_(slots_.size() - 1),
        shift_(64 - static_cast<unsigned>(std::countr_zero(slots_.size()))),
        next_(m) {}

  // Appends (a, b, j) for every pair a < b of vertices with fp[a] == fp[b],
  // in increasing b, and returns the number of groups of two or more.
  std::uint64_t pair_up(const std::uint64_t* fp, ProcessId j,
                        std::vector<Candidate>& out) {
    std::fill(slots_.begin(), slots_.end(), 0);
    std::uint64_t groups = 0;
    const auto m = static_cast<Graph::Vertex>(next_.size());
    for (Graph::Vertex b = 0; b < m; ++b) {
      std::size_t i = (fp[b] * 0x9e3779b97f4a7c15ULL) >> shift_;
      while (slots_[i] != 0 && fp[slots_[i] - 1] != fp[b]) i = (i + 1) & mask_;
      const Graph::Vertex last = slots_[i];
      next_[b] = last;
      if (last != 0) {
        if (next_[last - 1] == 0) ++groups;  // the group now holds two
        for (Graph::Vertex a = last; a != 0; a = next_[a - 1]) {
          out.push_back({a - 1, b, j});
        }
      }
      slots_[i] = b + 1;
    }
    return groups;
  }

 private:
  std::vector<Graph::Vertex> slots_;  // latest member + 1; 0: empty
  std::size_t mask_;
  unsigned shift_;
  std::vector<Graph::Vertex> next_;  // previous member + 1; 0 ends a chain
};

// Puts the candidates in (a, b)-lexicographic order without duplicates: a
// counting sort on a, then each a's few (b, j) entries sorted in place; of
// a pair produced by several coordinates the smallest j is kept.
void sort_unique(std::vector<Candidate>& candidates, std::size_t m) {
  // end[a] ends a's row once every candidate is placed; a's row begins
  // where a - 1's ends.
  std::vector<std::size_t> end(m, 0);
  for (const Candidate& c : candidates) ++end[c.a];
  std::size_t sum = 0;
  for (std::size_t& e : end) sum += std::exchange(e, sum);
  // A row entry holds b in its high word and j in its low one, so sorting
  // a row orders it by b, then by j.
  std::vector<std::uint64_t> row(candidates.size());
  for (const Candidate& c : candidates) {
    row[end[c.a]++] =
        (std::uint64_t{c.b} << 32) | static_cast<std::uint32_t>(c.j);
  }
  std::size_t kept = 0;
  std::size_t begin = 0;
  for (std::size_t a = 0; a < m; ++a) {
    if (end[a] - begin > 1) {
      std::sort(row.begin() + begin, row.begin() + end[a]);
    }
    for (std::size_t k = begin; k < end[a]; ++k) {
      const auto b = static_cast<Graph::Vertex>(row[k] >> 32);
      if (k > begin && candidates[kept - 1].b == b) continue;
      candidates[kept++] = {static_cast<Graph::Vertex>(a), b,
                            static_cast<ProcessId>(row[k] & 0xffffffffU)};
    }
    begin = end[a];
  }
  candidates.resize(kept);
}

}  // namespace

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
  const auto n = static_cast<std::size_t>(model.n());

  // Fingerprint columns: entry j * m + i is x_i's erase-j fingerprint.
  // Rows come from the model's per-state memo (LayeredModel::fingerprint_row):
  // the first sweep over a state hashes and publishes its row, later sweeps
  // — and sweeps after a lacon::store warm start — only read, each row once
  // for all n coordinates. A trip here leaves nothing usable (candidates
  // need every row), so the result degrades to the empty graph.
  std::vector<std::uint64_t> columns(n * m);
  std::size_t hashed = 0;
  {
    runtime::ScopedTimer phase(
        stats.timer("relation.index_fingerprint_time"));
    hashed = guard::guarded_for(g, m, [&](std::size_t i) {
      const std::uint64_t* row = model.fingerprint_row(X[i]);
      for (std::size_t j = 0; j < n; ++j) columns[j * m + i] = row[j];
    });
  }
  if (hashed < m) {
    out.truncation = g.reason();
    return out;
  }

  // Group states by (erased coordinate, fingerprint) and pair up each
  // group. Every pair with agree_modulo(x, y, j) true shares j's group of
  // their common fingerprint, so the union over j covers all ~s edges.
  // Probed per erased coordinate.
  std::uint64_t buckets = 0;
  std::vector<Candidate> candidates;
  {
    runtime::ScopedTimer phase(stats.timer("relation.index_bucket_time"));
    FingerprintGroups groups(m);
    candidates.reserve(m);
    for (std::size_t j = 0; j < n; ++j) {
      if (g.tripped()) {
        out.truncation = g.reason();
        return out;
      }
      buckets += groups.pair_up(columns.data() + j * m,
                                static_cast<ProcessId>(j), candidates);
    }
    sort_unique(candidates, m);
  }
  stats.counter("relation.index_buckets").add(buckets);
  stats.counter("relation.index_candidates").add(candidates.size());

  // Confirm candidates with the exact relation, in order: the candidate
  // list is (a, b)-lexicographically sorted, so the survivors reproduce
  // exactly the naive sweep's edge sequence; under truncation the survivors
  // of the confirmed candidate prefix do. The coordinate that grouped a
  // pair is its likely witness, so it is tried before the full check.
  runtime::ScopedTimer confirm(stats.timer("relation.index_confirm_time"));
  std::vector<Graph::Edge> edges;
  const std::size_t evaluated =
      guard::guarded_for(g, candidates.size(), [&](std::size_t k) {
        const auto [a, b, j] = candidates[k];
        if (similar_via(model, X[a], X[b], j) ||
            similar(model, X[a], X[b])) {
          edges.emplace_back(a, b);
        }
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
