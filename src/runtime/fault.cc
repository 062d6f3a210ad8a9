#include "runtime/fault.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "runtime/stats.hpp"
#include "util/hash.hpp"

namespace lacon::fault {

namespace {

std::atomic<FaultPlan*> g_plan{nullptr};

void warn_once(const char* knob, const char* value) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr, "lacon: ignoring malformed %s='%s'\n", knob, value);
}

std::size_t index_of(Site site) noexcept {
  return static_cast<std::size_t>(site);
}

}  // namespace

const char* to_string(Site site) noexcept {
  switch (site) {
    case Site::kArenaAlloc:
      return "arena_alloc";
    case Site::kGuardBudget:
      return "guard_budget";
  }
  return "?";
}

std::optional<FaultConfig> config_from_env() {
  const char* seed_text = std::getenv("LACON_FAULT_SEED");
  if (seed_text == nullptr || *seed_text == '\0') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long seed = std::strtoull(seed_text, &end, 10);
  if (end == seed_text || *end != '\0' || errno == ERANGE) {
    warn_once("LACON_FAULT_SEED", seed_text);
    return std::nullopt;
  }

  double rate = 0.01;  // default soak rate when only the seed is set
  const char* rate_text = std::getenv("LACON_FAULT_RATE");
  if (rate_text != nullptr && *rate_text != '\0') {
    errno = 0;
    const double parsed = std::strtod(rate_text, &end);
    if (end == rate_text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(parsed) || parsed < 0.0 || parsed > 1.0) {
      warn_once("LACON_FAULT_RATE", rate_text);
    } else {
      rate = parsed;
    }
  }
  if (rate == 0.0) return std::nullopt;
  return FaultConfig{static_cast<std::uint64_t>(seed), rate};
}

FaultPlan::FaultPlan(std::uint64_t seed, double rate,
                     unsigned site_mask) noexcept
    : seed_(seed), site_mask_(site_mask) {
  if (rate <= 0.0) {
    threshold_ = 0;
  } else if (rate >= 1.0) {
    threshold_ = std::numeric_limits<std::uint64_t>::max();
  } else {
    threshold_ = static_cast<std::uint64_t>(
        rate * static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
  }
}

bool FaultPlan::fire(Site site) noexcept {
  const std::size_t s = index_of(site);
  const std::uint64_t k =
      probes_[s].fetch_add(1, std::memory_order_relaxed);
  if ((site_mask_ & (1u << s)) == 0) return false;
  if (threshold_ == 0) return false;
  const std::uint64_t draw =
      mix64(seed_ ^ (static_cast<std::uint64_t>(s) << 56) ^ (k + 1));
  if (threshold_ != std::numeric_limits<std::uint64_t>::max() &&
      draw >= threshold_) {
    return false;
  }
  fired_[s].fetch_add(1, std::memory_order_relaxed);
  runtime::Stats::global()
      .counter(std::string("fault.injected_") + to_string(site))
      .increment();
  return true;
}

std::uint64_t FaultPlan::probes(Site site) const noexcept {
  return probes_[index_of(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultPlan::fired(Site site) const noexcept {
  return fired_[index_of(site)].load(std::memory_order_relaxed);
}

FaultPlan* active_plan() noexcept {
  return g_plan.load(std::memory_order_acquire);
}

bool fire(Site site) noexcept {
  FaultPlan* plan = active_plan();
  return plan != nullptr && plan->fire(site);
}

FaultScope::FaultScope(std::uint64_t seed, double rate, unsigned site_mask)
    : plan_(seed, rate, site_mask) {
  FaultPlan* expected = nullptr;
  if (!g_plan.compare_exchange_strong(expected, &plan_,
                                      std::memory_order_acq_rel)) {
    std::fprintf(stderr, "lacon: nested FaultScope ignored\n");
  }
}

FaultScope::~FaultScope() {
  FaultPlan* expected = &plan_;
  g_plan.compare_exchange_strong(expected, nullptr,
                                 std::memory_order_acq_rel);
}

void maybe_throw_alloc_fault() {
  if (fire(Site::kArenaAlloc)) throw InjectedAllocError();
}

}  // namespace lacon::fault
