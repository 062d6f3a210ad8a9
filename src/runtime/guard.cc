#include "runtime/guard.hpp"

#include "runtime/fault.hpp"
#include "runtime/stats.hpp"

namespace lacon::guard {

const char* to_string(TruncationReason reason) noexcept {
  switch (reason) {
    case TruncationReason::kNone:
      return "none";
    case TruncationReason::kDeadline:
      return "deadline";
    case TruncationReason::kStateBudget:
      return "state_budget";
  }
  return "?";
}

const Guard& Guard::none() noexcept {
  static const Guard inert{InertTag{}};
  return inert;
}

Guard& Guard::with_deadline(std::chrono::milliseconds budget) {
  deadline_ = std::chrono::steady_clock::now() + budget;
  has_deadline_ = true;
  return *this;
}

Guard& Guard::with_state_budget(std::size_t max_states) {
  max_states_ = max_states;
  return *this;
}

void Guard::trip(TruncationReason reason) const {
  if (inert_ || reason == TruncationReason::kNone) return;
  std::uint8_t expected = 0;
  if (reason_.compare_exchange_strong(expected,
                                      static_cast<std::uint8_t>(reason),
                                      std::memory_order_acq_rel)) {
    // Count only the first trip per guard, by reason, so runtime_report()
    // shows how many analyses were truncated and why.
    runtime::Stats::global()
        .counter(std::string("guard.trips_") + to_string(reason))
        .increment();
  }
}

bool Guard::tripped() const {
  if (inert_) return false;
  if (reason_.load(std::memory_order_acquire) != 0) return true;
  if (fault::fire(fault::Site::kGuardBudget)) {
    trip(TruncationReason::kStateBudget);
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    trip(TruncationReason::kDeadline);
    return true;
  }
  return false;
}

TruncationReason Guard::check(std::size_t states_in_use) const {
  if (inert_) return TruncationReason::kNone;
  // Boundary checks are rare (depth/level granularity), so one always-on
  // counter shows how often the engine offered a preemption point.
  static runtime::Counter& checks =
      runtime::Stats::global().counter("guard.checks");
  checks.increment();
  if (max_states_ != 0 && states_in_use > max_states_) {
    trip(TruncationReason::kStateBudget);
    return reason();
  }
  tripped();
  return reason();
}

GuardSpec& process_guard_spec() noexcept {
  static GuardSpec spec;
  return spec;
}

ScopedGuard::ScopedGuard(const GuardSpec& spec) : spec_(spec) {
  if (spec_.budget_ms > 0) {
    guard_.with_deadline(std::chrono::milliseconds(spec_.budget_ms));
  }
  if (spec_.max_states > 0) guard_.with_state_budget(spec_.max_states);
}

}  // namespace lacon::guard
