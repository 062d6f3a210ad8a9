// Signature-indexed construction of the similarity graph (X, ~s).
//
// The naive sweep evaluates agree_modulo on all |X|(|X|-1)/2 pairs. But
// ~s is an equality-modulo-one-coordinate relation: x ~s y requires a
// process j with agree_modulo(x, y, j), and agree_modulo truth implies
// equality of the erase-j fingerprints (LayeredModel::fingerprint_row_into,
// a 64-bit hash of everything agree_modulo compares). So hashing each state
// once per erased coordinate and grouping equal (j, fingerprint) in a hash
// table yields a candidate set that provably contains every ~s edge; the
// candidates, counting-sorted (a, b)-lexicographically and deduplicated, are
// then confirmed with the exact relation (hash collisions must not create
// edges), and the confirmed edges rebuild the *byte-identical* graph the
// naive sweep produces — at O(|X| * n) hashing and grouping plus
// group-local verification instead of O(|X|^2).
//
// relation/similarity.hpp's similarity_graph() always builds the index. The
// naive sweep stays public as the reference the equivalence tests and the
// t2/t5 ablation tables compare it against.
#pragma once

#include <vector>

#include "core/model.hpp"
#include "relation/graph.hpp"
#include "runtime/guard.hpp"

namespace lacon {

// The graph (X, ~s) via the erase-one fingerprint index. Counters:
//   relation.index_buckets     (j, fingerprint) groups holding >= 2 states
//   relation.index_candidates  unique candidate pairs from shared buckets
//   relation.index_confirmed   candidates that are real ~s edges
//   relation.index_rejected    candidates discarded by the exact check
// Candidate confirmation also feeds relation.pairs_evaluated, making the
// naive-vs-indexed pair-count ablation directly comparable.
Graph similarity_graph_indexed(LayeredModel& model,
                               const std::vector<StateId>& X);

// Guarded index build. `completed` counts confirmed candidate pairs: a
// truncated value is the graph of the confirmed prefix of the (sorted,
// deduplicated) candidate sequence — a subgraph of the full (X, ~s) whose
// edge list is a prefix of the canonical edge sequence. A trip during the
// fingerprint or bucketing phase yields an empty graph with completed == 0.
guard::Partial<Graph> similarity_graph_indexed(LayeredModel& model,
                                               const std::vector<StateId>& X,
                                               const guard::Guard& g);

// The quadratic reference sweep (Graph::from_relation over similar()).
Graph similarity_graph_naive(LayeredModel& model,
                             const std::vector<StateId>& X);

}  // namespace lacon
