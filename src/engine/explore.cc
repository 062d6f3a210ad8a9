#include "engine/explore.hpp"

#include "runtime/fault.hpp"
#include "runtime/parallel.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"
#include "util/bitset.hpp"

namespace lacon {

guard::Partial<std::vector<std::vector<StateId>>> reachable_by_depth(
    LayeredModel& model, int depth, const guard::Guard& g) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("explore.expand_time"));

  guard::Partial<std::vector<std::vector<StateId>>> out;
  try {
    out.value.push_back(model.initial_states());
  } catch (const fault::InjectedAllocError&) {
    if (g.never_trips()) throw;  // inert guard: behave like the raw call
    g.note_memory_exhausted();
    out.truncation = g.reason();
    return out;  // not even Con_0 materialized: empty value, completed 0
  }
  // StateIds are dense arena indices, so the visited set is a bit-vector:
  // one bit per interned state instead of a hash node per discovered one.
  DenseBitset seen(model.num_states());
  for (StateId x : out.value[0]) seen.insert(x);
  for (int d = 0; d < depth; ++d) {
    // Depth boundary: the one place the state/memory budget is evaluated.
    // The arena population here is scheduling-independent, so a budget trip
    // truncates at the same depth for every worker count.
    if (g.check(model.num_states(), model.memory_footprint()) !=
        guard::TruncationReason::kNone) {
      break;
    }
    const std::vector<StateId>& frontier = out.value.back();
    // Phase 1 (parallel; inline at one worker): expand every frontier
    // state, filling the model's layer cache. The per-state work — computing
    // S(x) and interning its states and views — dominates the whole
    // exploration, so this is also where the guard is probed per state; a
    // trip means the cache may be missing layers, in which case the merge
    // below must not run (it would recompute them serially, unguarded).
    // Running it at every worker count keeps that work charged to
    // explore.expand, not to the merge.
    {
      // The per-worker chunks of this section trace as "explore.expand"
      // spans (the PhaseScope publishes the site; arg = layer depth).
      LACON_TRACE_PHASE("explore", "expand", d);
      if (g.never_trips()) {
        runtime::parallel_for(
            frontier.size(),
            [&](std::size_t i) { model.layer(frontier[i]); });
      } else {
        const std::size_t filled = runtime::parallel_for_guarded(
            g, frontier.size(),
            [&](std::size_t i) { model.layer(frontier[i]); });
        if (filled < frontier.size() || g.tripped()) break;
      }
    }
    // Phase 2 (serial, canonical): merge layers in frontier order, so the
    // discovery order — and with it every level's content — is a function
    // of the cached layers alone, not of thread scheduling. A trip mid-merge
    // discards the partial level: truncation is level-granular.
    std::vector<StateId> next;
    bool aborted = false;
    {
      LACON_TRACE_SPAN_ARG("explore", "merge", frontier.size());
      try {
        for (StateId x : frontier) {
          if (g.tripped()) {
            aborted = true;
            break;
          }
          for (StateId y : model.layer(x)) {
            if (seen.insert(y)) next.push_back(y);
          }
        }
      } catch (const fault::InjectedAllocError&) {
        if (g.never_trips()) throw;  // inert guard: behave like the raw call
        g.note_memory_exhausted();
        aborted = true;
      }
    }
    if (aborted) break;
    stats.counter("explore.layers_expanded").add(frontier.size());
    if (next.empty()) break;  // quiescent: complete, not truncated
    out.value.push_back(std::move(next));
  }
  stats.counter("explore.states_discovered").add(seen.size());
  out.truncation = g.reason();
  out.completed = out.value.empty() ? 0 : out.value.size() - 1;
  return out;
}

std::vector<std::vector<StateId>> reachable_by_depth(LayeredModel& model,
                                                     int depth) {
  guard::ScopedGuard scoped(guard::process_guard_spec());
  return reachable_by_depth(model, depth, scoped.get()).value;
}

std::vector<StateId> reachable_states(LayeredModel& model, int depth) {
  std::vector<StateId> out;
  for (const auto& level : reachable_by_depth(model, depth)) {
    out.insert(out.end(), level.begin(), level.end());
  }
  return out;
}

}  // namespace lacon
