#include "relation/similarity.hpp"

#include "relation/similarity_index.hpp"

namespace lacon {

std::optional<ProcessId> similarity_witness(LayeredModel& model, StateId x,
                                            StateId y) {
  const ProcessSet failed_both = model.failed_at(x) | model.failed_at(y);
  const int n = model.n();
  // Condition (ii) needs a process i != j non-failed in both states; the
  // candidate pool is loop-invariant. No survivors at all means no witness
  // can qualify, whatever agree_modulo says.
  const ProcessSet alive = ProcessSet::all(n) - failed_both;
  if (alive.empty()) return std::nullopt;
  const bool many_alive = alive.size() >= 2;
  for (ProcessId j = 0; j < n; ++j) {
    // With >= 2 survivors some i != j is always alive; with exactly one, j
    // must not be that survivor.
    if (!many_alive && alive.contains(j)) continue;
    if (model.agree_modulo(x, y, j)) return j;
  }
  return std::nullopt;
}

bool similar(LayeredModel& model, StateId x, StateId y) {
  return similarity_witness(model, x, y).has_value();
}

guard::Partial<Graph> similarity_graph(LayeredModel& model,
                                       const std::vector<StateId>& X,
                                       const guard::Guard& g) {
  return similarity_graph_indexed(model, X, g);
}

Graph similarity_graph(LayeredModel& model, const std::vector<StateId>& X) {
  guard::ScopedGuard scoped(guard::process_guard_spec());
  return similarity_graph(model, X, scoped.get()).value;
}

bool similarity_connected(LayeredModel& model, const std::vector<StateId>& X) {
  return similarity_graph(model, X).connected();
}

guard::Partial<std::optional<std::size_t>> s_diameter(
    LayeredModel& model, const std::vector<StateId>& X,
    const guard::Guard& g) {
  guard::Partial<Graph> graph = similarity_graph(model, X, g);
  if (!graph.complete()) {
    guard::Partial<std::optional<std::size_t>> out;
    out.truncation = graph.truncation;
    return out;
  }
  return graph.value.diameter(g);
}

std::optional<std::size_t> s_diameter(LayeredModel& model,
                                      const std::vector<StateId>& X) {
  guard::ScopedGuard scoped(guard::process_guard_spec());
  return s_diameter(model, X, scoped.get()).value;
}

}  // namespace lacon
