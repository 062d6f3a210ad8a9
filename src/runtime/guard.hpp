// Resource governance (lacon::guard).
//
// Every analysis this repository runs — reachable_by_depth over the layered
// run tree, the similarity index, all-sources diameter, valence
// classification — is exponential in process count and depth. A Guard bounds
// such a computation with a wall-clock deadline and a state budget (the
// states the computation reached), and the engine layers return Partial<T>
// results instead of hanging or aborting: the value computed so far, how far
// the computation got, and an explicit TruncationReason.
//
// Where the checks happen, and what is deterministic:
//
//  * Engine layers (explore, valence classification, bivalent-run
//    construction, the similarity index, diameter) call Guard::check() at
//    depth/level/phase boundaries — exactly the preemption points the
//    paper's layering structure provides: a run tree truncated at a layer
//    boundary is still a well-defined prefix of the model.
//  * Per-item loops (frontier expansion, classification, fingerprinting,
//    candidate confirmation, BFS sources) run through guarded_for() below:
//    it probes Guard::tripped() before every item, so the processed region
//    is always a contiguous prefix [0, completed) of the index space.
//  * The state budget is evaluated only at depth boundaries, against the
//    states the exploration itself reached — a budget-truncated
//    exploration therefore truncates at the same depth, with the same
//    levels, whatever other requests interned into a shared session before.
//    Deadline trips are inherently timing-dependent, but truncate at the
//    same *granularity* (a level boundary yields a complete level or none of
//    it), so any two runs agree on every level both completed.
//
// A Guard is sticky: the first trip records its reason and every later
// probe reports tripped, so one guard governs a whole pipeline of calls
// ("stop everything downstream too"). Guards are intentionally
// non-copyable; share one by reference.
//
// Observability: every boundary probe bumps the "guard.checks" counter and
// the first trip per guard bumps "guard.trips_<reason>" (runtime/stats.hpp),
// so runtime_report() and the lacon.metrics.v2 JSON (runtime/stats.hpp,
// "guard.trips" block) show how many analyses were truncated and why
// without any extra wiring at the call sites.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "runtime/fault.hpp"

namespace lacon::guard {

enum class TruncationReason : std::uint8_t {
  kNone = 0,      // ran to completion
  kDeadline,      // wall-clock budget exhausted
  kStateBudget,   // state budget exhausted (incl. injected allocation
                  // failure, see runtime/fault.hpp)
};

const char* to_string(TruncationReason reason) noexcept;

// A possibly-truncated result. `completed` counts whole units of work —
// layers for the exploration, classified entries for classify_all, BFS
// sources for diameter(), confirmed candidate pairs for the similarity
// index — and `value` always reflects exactly those units: a truncated
// exploration holds complete levels only, a truncated classification holds
// a valid prefix.
template <typename T>
struct Partial {
  T value{};
  TruncationReason truncation = TruncationReason::kNone;
  std::size_t completed = 0;

  bool complete() const noexcept {
    return truncation == TruncationReason::kNone;
  }
};

class Guard {
 public:
  Guard() = default;

  // The inert guard used by the unguarded engine entry points: never trips,
  // never probes the fault plan. A process-wide singleton — safe precisely
  // because it has no trippable state.
  static const Guard& none() noexcept;

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  // Budget configuration (call before handing the guard to the engine).
  Guard& with_deadline(std::chrono::milliseconds budget);
  Guard& with_state_budget(std::size_t max_states);

  // Cheap cooperative probe: deadline and injected budget faults.
  // guarded_for() calls it per item (one steady_clock read when a deadline
  // is set). Sticky.
  bool tripped() const;

  // Full boundary check including the state budget; engine layers call it
  // at depth/level boundaries with their state count (the states an
  // exploration reached). Returns the sticky reason, kNone while still
  // inside every budget.
  TruncationReason check(std::size_t states_in_use) const;

  // The first recorded trip, kNone if none.
  TruncationReason reason() const noexcept {
    return static_cast<TruncationReason>(
        reason_.load(std::memory_order_acquire));
  }

  // Records an out-of-memory condition observed by the caller (the engine
  // converts injected allocation failure into this). No-op on none().
  void note_memory_exhausted() const {
    trip(TruncationReason::kStateBudget);
  }

  // True for Guard::none(): no limit is configured and no fault probe will
  // ever fire, so callers may take the unguarded fast path.
  bool never_trips() const noexcept { return inert_; }

 private:
  struct InertTag {};
  explicit Guard(InertTag) : inert_(true) {}

  void trip(TruncationReason reason) const;

  bool inert_ = false;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::size_t max_states_ = 0;  // 0 = unlimited
  mutable std::atomic<std::uint8_t> reason_{0};
};

// Process-wide budget specification applied by the unguarded engine entry
// points: each top-level call materializes a fresh Guard from the spec (the
// deadline counts from that call's start). Empty by default, so nothing
// changes unless a harness configures it — the benches' --budget-ms /
// --max-states flags do.
struct GuardSpec {
  std::int64_t budget_ms = 0;   // 0 = no deadline
  std::size_t max_states = 0;   // 0 = unlimited

  bool limited() const noexcept { return budget_ms > 0 || max_states > 0; }
};

GuardSpec& process_guard_spec() noexcept;

// Runs body(i) for i = 0, 1, ... n-1 in order and returns the length of the
// processed prefix: every i below the returned bound ran exactly once, none
// at or above it ran. A live guard is probed before every item; an injected
// allocation failure (runtime/fault.hpp) thrown by body trips the state
// budget, and the item that threw does not count. Returns n iff the guard
// never tripped. Under Guard::none() the loop runs unprobed and injected
// failures propagate, exactly like the unguarded call.
template <typename Body>
std::size_t guarded_for(const Guard& g, std::size_t n, Body&& body) {
  if (g.never_trips()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (g.tripped()) return i;
    try {
      body(i);
    } catch (const fault::InjectedAllocError&) {
      g.note_memory_exhausted();
      return i;
    }
  }
  return n;
}

// A Guard configured from `spec` (deadline measured from now). With an
// empty spec the guard is limit-free but still live (fault probes apply).
class ScopedGuard {
 public:
  explicit ScopedGuard(const GuardSpec& spec);
  const Guard& get() const noexcept {
    return spec_.limited() ? guard_ : Guard::none();
  }

 private:
  GuardSpec spec_;
  Guard guard_;
};

}  // namespace lacon::guard
