#include "models/sharedmem/sharedmem_model.hpp"

#include <algorithm>
#include <cassert>

namespace lacon {
namespace {

// Builds the observation list of one full read sweep over registers whose
// contents are given by `registers` (entries are ViewIds or kNoView).
std::vector<Obs> read_sweep(const std::vector<std::int64_t>& registers) {
  std::vector<Obs> obs;
  obs.reserve(registers.size());
  for (std::size_t s = 0; s < registers.size(); ++s) {
    obs.push_back(Obs{static_cast<std::int32_t>(s),
                      static_cast<ViewId>(registers[s])});
  }
  return obs;
}

}  // namespace

SharedMemModel::SharedMemModel(int n, const DecisionRule& rule,
                               std::vector<std::vector<Value>> initial_inputs)
    : LayeredModel(n, rule, std::move(initial_inputs)) {}

StateId SharedMemModel::apply_timed(StateId x, ProcessId j, int k) {
  assert(j >= 0 && j < n());
  assert(k >= 0 && k <= n());
  const StateRef s = state(x);

  // Register contents during R1: the proper processes' W1 writes are in, j's
  // register still holds its pre-round value.
  std::vector<std::int64_t> regs_r1(static_cast<std::size_t>(n()));
  for (ProcessId i = 0; i < n(); ++i) {
    regs_r1[static_cast<std::size_t>(i)] =
        (i == j) ? s.env[static_cast<std::size_t>(i)]
                 : static_cast<std::int64_t>(s.locals[static_cast<std::size_t>(i)]);
  }
  // Register contents during R2: j's W2 write is in as well.
  std::vector<std::int64_t> regs_r2 = regs_r1;
  regs_r2[static_cast<std::size_t>(j)] =
      static_cast<std::int64_t>(s.locals[static_cast<std::size_t>(j)]);

  GlobalState next;
  next.env = regs_r2;  // all writes of the round are in the registers
  next.locals.reserve(static_cast<std::size_t>(n()));
  next.decisions.reserve(static_cast<std::size_t>(n()));
  for (ProcessId i = 0; i < n(); ++i) {
    // The proper processes with index < k read early (R1); j and the proper
    // processes with index >= k read late (R2).
    const bool early = (i != j) && (i < k);
    const ViewId view = views().extend(
        s.locals[static_cast<std::size_t>(i)],
        read_sweep(early ? regs_r1 : regs_r2));
    next.locals.push_back(view);
    next.decisions.push_back(
        updated_decision(i, s.decisions[static_cast<std::size_t>(i)], view));
  }
  return intern(std::move(next));
}

StateId SharedMemModel::apply_absent(StateId x, ProcessId j) {
  assert(j >= 0 && j < n());
  const StateRef s = state(x);

  // Register contents during R1: the proper processes' W1 writes; j's
  // register keeps its pre-round value (j never writes this round).
  std::vector<std::int64_t> regs(static_cast<std::size_t>(n()));
  for (ProcessId i = 0; i < n(); ++i) {
    regs[static_cast<std::size_t>(i)] =
        (i == j) ? s.env[static_cast<std::size_t>(i)]
                 : static_cast<std::int64_t>(s.locals[static_cast<std::size_t>(i)]);
  }

  GlobalState next;
  next.env = regs;
  next.locals.reserve(static_cast<std::size_t>(n()));
  next.decisions.reserve(static_cast<std::size_t>(n()));
  for (ProcessId i = 0; i < n(); ++i) {
    if (i == j) {
      next.locals.push_back(s.locals[static_cast<std::size_t>(i)]);
      next.decisions.push_back(s.decisions[static_cast<std::size_t>(i)]);
      continue;
    }
    const ViewId view =
        views().extend(s.locals[static_cast<std::size_t>(i)], read_sweep(regs));
    next.locals.push_back(view);
    next.decisions.push_back(
        updated_decision(i, s.decisions[static_cast<std::size_t>(i)], view));
  }
  return intern(std::move(next));
}

std::string SharedMemModel::env_to_string(StateId x) const {
  return register_file_to_string(views(), state(x));
}

std::string register_file_to_string(const ViewArena& views,
                                    const StateRef& s) {
  std::string out;
  for (std::int64_t r : s.env) {
    out += r == kNoView ? "-" : views.to_string(static_cast<ViewId>(r));
    out += ',';
  }
  return out;
}

bool register_file_well_formed(std::span<const std::int64_t> env, int n,
                               std::uint64_t views_end) {
  return env.size() == static_cast<std::size_t>(n) &&
         std::all_of(env.begin(), env.end(), [views_end](std::int64_t r) {
           return r == kNoView ||
                  (r >= 0 && static_cast<std::uint64_t>(r) < views_end);
         });
}

bool SharedMemModel::env_well_formed(std::span<const std::int64_t> env,
                                     std::uint64_t views_end) const {
  return register_file_well_formed(env, n(), views_end);
}

std::vector<StateId> SharedMemModel::compute_layer(StateId x) {
  std::vector<StateId> succ;
  succ.reserve(static_cast<std::size_t>(n() * (n() + 2)));
  for (ProcessId j = 0; j < n(); ++j) {
    for (int k = 0; k <= n(); ++k) {
      succ.push_back(apply_timed(x, j, k));
    }
    succ.push_back(apply_absent(x, j));
  }
  return succ;
}

}  // namespace lacon
