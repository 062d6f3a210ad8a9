// The similarity relation ~s of Definition 3.1 and the graphs it induces.
//
// x ~s y holds when there is a process j such that (i) x and y agree modulo
// j, and (ii) some process i != j is non-failed in both x and y. Similarity
// connectivity of a set X is connectivity of the graph (X, ~s); its diameter
// is the paper's s-diameter (Section 7).
#pragma once

#include <optional>
#include <vector>

#include "core/model.hpp"
#include "relation/graph.hpp"
#include "runtime/guard.hpp"

namespace lacon {

// True iff x ~s y in the given model.
bool similar(LayeredModel& model, StateId x, StateId y);

// The witness process j for x ~s y, if any (the smallest such j).
std::optional<ProcessId> similarity_witness(LayeredModel& model, StateId x,
                                            StateId y);

// True iff j witnesses x ~s y: conditions (i) and (ii) for this one j, the
// check similarity_witness makes per process. similar(x, y) holds iff some
// j qualifies.
bool similar_via(LayeredModel& model, StateId x, StateId y, ProcessId j);

// The graph (X, ~s), built through the erase-one fingerprint index
// (relation/similarity_index.hpp). Tests hold it byte-identical to the
// quadratic reference sweep, similarity_graph_naive.
Graph similarity_graph(LayeredModel& model, const std::vector<StateId>& X);

bool similarity_connected(LayeredModel& model, const std::vector<StateId>& X);

// s-diameter of X; nullopt when (X, ~s) is disconnected.
std::optional<std::size_t> s_diameter(LayeredModel& model,
                                      const std::vector<StateId>& X);

// Guarded graph build; truncation is candidate-granular, see
// similarity_graph_indexed.
guard::Partial<Graph> similarity_graph(LayeredModel& model,
                                       const std::vector<StateId>& X,
                                       const guard::Guard& g);

// Guarded s-diameter: graph build then diameter under the same guard. If
// the build itself was truncated, the value is disengaged (a diameter of a
// partial graph would bound nothing) and `completed` is 0; otherwise the
// semantics are Graph::diameter(g)'s.
guard::Partial<std::optional<std::size_t>> s_diameter(
    LayeredModel& model, const std::vector<StateId>& X,
    const guard::Guard& g);

}  // namespace lacon
