// Breadth-first enumeration of the layered run tree.
#pragma once

#include <vector>

#include "core/model.hpp"
#include "runtime/guard.hpp"

namespace lacon {

// All states reachable from the initial states in at most `depth` layers,
// deduplicated, grouped by the depth at which they were first discovered.
// Quiescence does not prune here: callers that need the full S-run structure
// (connectivity of deep layers, diameter growth) get every state.
std::vector<std::vector<StateId>> reachable_by_depth(LayeredModel& model,
                                                     int depth);

// Guarded exploration. The guard is probed per frontier state during the
// expansion, and at every depth boundary the state budget is evaluated
// against the states this call reached so far; a trip truncates to
// *complete levels only* — the returned value never contains a
// partially-discovered level. `completed` is the depth reached
// (value.size() - 1). Budget truncation depends on the
// request alone: a budget of k states truncates at the same depth with the
// same levels on a fresh model and on one that earlier calls already
// populated.
guard::Partial<std::vector<std::vector<StateId>>> reachable_by_depth(
    LayeredModel& model, int depth, const guard::Guard& g);

// Flattened version of reachable_by_depth.
std::vector<StateId> reachable_states(LayeredModel& model, int depth);

}  // namespace lacon
