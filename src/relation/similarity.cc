#include "relation/similarity.hpp"

#include "relation/similarity_index.hpp"

namespace lacon {
namespace {

// The processes non-failed in both x and y.
ProcessSet alive_in_both(LayeredModel& model, StateId x, StateId y) {
  return ProcessSet::all(model.n()) - (model.failed_at(x) | model.failed_at(y));
}

// Condition (ii) for witness j: some process i != j is in `alive`. With >= 2
// survivors one always is; with exactly one, j must not be that survivor.
bool alive_besides(ProcessSet alive, ProcessId j) {
  return alive.size() >= 2 || (alive.size() == 1 && !alive.contains(j));
}

}  // namespace

std::optional<ProcessId> similarity_witness(LayeredModel& model, StateId x,
                                            StateId y) {
  // The candidate pool is loop-invariant. No survivors at all means no
  // witness can qualify, whatever agree_modulo says.
  const ProcessSet alive = alive_in_both(model, x, y);
  if (alive.empty()) return std::nullopt;
  for (ProcessId j = 0; j < model.n(); ++j) {
    if (alive_besides(alive, j) && model.agree_modulo(x, y, j)) return j;
  }
  return std::nullopt;
}

bool similar(LayeredModel& model, StateId x, StateId y) {
  return similarity_witness(model, x, y).has_value();
}

bool similar_via(LayeredModel& model, StateId x, StateId y, ProcessId j) {
  return alive_besides(alive_in_both(model, x, y), j) &&
         model.agree_modulo(x, y, j);
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
