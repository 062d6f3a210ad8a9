#include "engine/explore.hpp"

#include "runtime/fault.hpp"
#include "runtime/stats.hpp"
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
    // Depth boundary: the one place the state budget is evaluated. The
    // state count is this exploration's own reached set, so states a shared
    // session interned for earlier requests never count against it.
    if (g.check(seen.size()) != guard::TruncationReason::kNone) {
      break;
    }
    const std::vector<StateId>& frontier = out.value.back();
    // Expand the frontier in order, keeping each successor the first time
    // it is seen: the discovery order — and with it every level's content —
    // is a function of the layers alone. Computing S(x) and interning its
    // states and views dominates the whole exploration, so the guard is
    // probed per frontier state; a trip discards the partial level, so
    // truncation is level-granular.
    std::vector<StateId> next;
    const std::size_t expanded =
        guard::guarded_for(g, frontier.size(), [&](std::size_t i) {
          for (StateId y : model.layer(frontier[i])) {
            if (seen.insert(y)) next.push_back(y);
          }
        });
    if (expanded < frontier.size()) break;
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
