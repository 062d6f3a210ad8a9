#include "engine/bivalence.hpp"

#include "runtime/fault.hpp"

namespace lacon {

BivalentRunResult extend_bivalent_run_from(ValenceEngine& engine,
                                           StateId start, int depth,
                                           const guard::Guard& g) {
  BivalentRunResult result;
  LayeredModel& model = engine.model();
  try {
    if (!engine.valence(start).bivalent()) {
      result.stuck_reason = "start state is not bivalent";
      return result;
    }
    result.run.push_back(start);
    StateId cur = start;
    for (int d = 0; d < depth; ++d) {
      if (g.check(model.num_states()) != guard::TruncationReason::kNone) {
        result.truncation = g.reason();
        result.stuck_reason = std::string("truncated: ") +
                              guard::to_string(result.truncation);
        return result;
      }
      const std::vector<StateId>& layer = model.layer(cur);
      const std::optional<StateId> next = engine.find_bivalent(layer);
      if (!next) {
        result.stuck_reason =
            "no bivalent successor at depth " + std::to_string(d);
        return result;
      }
      cur = *next;
      result.run.push_back(cur);
    }
  } catch (const fault::InjectedAllocError&) {
    if (g.never_trips()) throw;  // inert guard: behave like the raw call
    g.note_memory_exhausted();
    result.truncation = g.reason();
    result.stuck_reason =
        std::string("truncated: ") + guard::to_string(result.truncation);
    return result;
  }
  result.complete = true;
  return result;
}

BivalentRunResult extend_bivalent_run_from(ValenceEngine& engine,
                                           StateId start, int depth) {
  guard::ScopedGuard scoped(guard::process_guard_spec());
  return extend_bivalent_run_from(engine, start, depth, scoped.get());
}

BivalentRunResult extend_bivalent_run(ValenceEngine& engine, int depth,
                                      const guard::Guard& g) {
  LayeredModel& model = engine.model();
  std::optional<StateId> start;
  try {
    start = engine.find_bivalent(model.initial_states());
  } catch (const fault::InjectedAllocError&) {
    if (g.never_trips()) throw;  // inert guard: behave like the raw call
    g.note_memory_exhausted();
    BivalentRunResult result;
    result.truncation = g.reason();
    result.stuck_reason =
        std::string("truncated: ") + guard::to_string(result.truncation);
    return result;
  }
  if (!start) {
    BivalentRunResult result;
    result.stuck_reason = "no bivalent initial state";
    return result;
  }
  return extend_bivalent_run_from(engine, *start, depth, g);
}

BivalentRunResult extend_bivalent_run(ValenceEngine& engine, int depth) {
  guard::ScopedGuard scoped(guard::process_guard_spec());
  return extend_bivalent_run(engine, depth, scoped.get());
}

}  // namespace lacon
