#include "topology/covering.hpp"

#include <utility>

#include "util/bitset.hpp"

namespace lacon {
namespace {

// Enumerates the decided output simplexes witnessed at state x: for every
// set F of non-failed processes with |F ∪ failed| <= max_faulty that
// contains every undecided non-failed process, there is a run extending x
// in which exactly F ∪ failed are faulty and everyone else's (write-once)
// decision stands — its decided output simplex is the decisions of the
// non-failed processes outside F. F must absorb all undecided processes,
// but may also absorb *decided* ones: a process that decided and then turns
// faulty does not contribute to the nonfaulty decision simplex.
template <typename Fn>
void for_each_witness_simplex(LayeredModel& model, StateId x, Fn&& fn) {
  const StateRef s = model.state(x);
  const ProcessSet failed = model.failed_at(x);
  std::vector<ProcessId> undecided;
  std::vector<Vertex> decided;
  for (ProcessId i = 0; i < model.n(); ++i) {
    if (failed.contains(i)) continue;
    const Value d = s.decisions[static_cast<std::size_t>(i)];
    if (d == kUndecided) {
      undecided.push_back(i);
    } else {
      decided.push_back(Vertex{i, d});
    }
  }
  const int budget = model.max_faulty() - failed.size() -
                     static_cast<int>(undecided.size());
  if (budget < 0) return;  // some undecided process cannot be absorbed
  // Enumerate which decided processes additionally turn faulty (bounded by
  // the remaining budget; max_faulty is tiny in every model).
  const std::uint32_t options = 1u << decided.size();
  for (std::uint32_t extra = 0; extra < options; ++extra) {
    if (__builtin_popcount(extra) > budget) continue;
    Simplex simplex;
    for (std::size_t d = 0; d < decided.size(); ++d) {
      if (!((extra >> d) & 1u)) simplex.push_back(decided[d]);
    }
    fn(simplex);
  }
}

}  // namespace

Covering consensus_covering(int n) {
  Covering c;
  c.o0.add(assignment_simplex(std::vector<Value>(static_cast<std::size_t>(n), 0)));
  c.o1.add(assignment_simplex(std::vector<Value>(static_cast<std::size_t>(n), 1)));
  return c;
}

ValenceEngine::Witness covering_witness(LayeredModel& model,
                                        Covering covering) {
  return [&model, covering = std::move(covering)](StateId x) {
    ValenceInfo info;
    for_each_witness_simplex(model, x, [&](const Simplex& s) {
      if (covering.o0.contains(s)) info.v0 = true;
      if (covering.o1.contains(s)) info.v1 = true;
    });
    return info;
  };
}

BivalentRunResult lemma_7_4_chain(ValenceEngine& engine,
                                  const std::vector<StateId>& I, int length) {
  BivalentRunResult result;
  LayeredModel& model = engine.model();
  const std::optional<StateId> start = engine.find_bivalent(I);
  if (!start) {
    result.stuck_reason = "no covering-bivalent state in I";
    return result;
  }
  result.run.push_back(*start);
  StateId cur = *start;
  for (int m = 1; m <= length; ++m) {
    std::optional<StateId> next;
    for (StateId y : model.layer(cur)) {
      if (model.failed_at(y).size() > m) continue;
      if (engine.valence(y).bivalent()) {
        next = y;
        break;
      }
    }
    if (!next) {
      result.stuck_reason =
          "no bivalent successor with <= " + std::to_string(m) +
          " failures at layer " + std::to_string(m);
      return result;
    }
    cur = *next;
    result.run.push_back(cur);
  }
  result.complete = true;
  return result;
}

CoveringCheck check_covering(LayeredModel& model, const Covering& covering,
                             const std::vector<StateId>& X, int depth) {
  CoveringCheck check;
  // Explore `depth` layers below every state of X.
  DenseBitset seen(model.num_states());
  for (StateId x : X) seen.insert(x);
  std::vector<StateId> frontier(X.begin(), X.end());
  for (int d = 0; d <= depth && !frontier.empty(); ++d) {
    for (StateId x : frontier) {
      for_each_witness_simplex(model, x, [&](const Simplex& s) {
        if (s.empty()) return;  // nobody decided yet
        const bool in0 = covering.o0.contains(s);
        const bool in1 = covering.o1.contains(s);
        if (!in0 && !in1) {
          check.covers = false;
          check.detail = "simplex " + to_string(s) + " escapes the covering";
        }
        check.o0_witnessed = check.o0_witnessed || in0;
        check.o1_witnessed = check.o1_witnessed || in1;
      });
    }
    if (d == depth) break;
    std::vector<StateId> next;
    for (StateId x : frontier) {
      if (quiescent(model, x)) continue;
      for (StateId y : model.layer(x)) {
        if (seen.insert(y)) next.push_back(y);
      }
    }
    frontier = std::move(next);
  }
  return check;
}

}  // namespace lacon
