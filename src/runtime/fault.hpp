// Deterministic fault injection for the analysis runtime (lacon::fault).
//
// Production blowups — exhausted memory, a budget tripping mid-layer — are
// exactly the paths that never run in ordinary tests. A FaultPlan makes them
// reproducible: a seeded plan decides, per *decision point*, whether the
// k-th probe of that point fires, as a pure function of (seed, site, k). The
// firing schedule is therefore identical across runs with the same seed and
// rate; when several threads probe one plan (concurrent connections),
// *which thread* draws the k-th probe races, but the set of firing probe
// indices does not.
//
// Injection is off unless a plan is installed (FaultScope). The environment
// knobs LACON_FAULT_SEED / LACON_FAULT_RATE do not activate injection
// globally — they parameterize the dedicated fault-soak tests (ci.sh runs
// them under TSan and ASan), so unrelated tests in the same process stay
// deterministic.
//
// Sites:
//   kArenaAlloc — StateArena/ViewArena::intern throws InjectedAllocError
//                 (simulated allocation failure; guarded engine paths turn
//                 it into a kStateBudget truncation).
//   kGuardBudget— a non-inert Guard probe trips as if its state budget were
//                 exhausted (exercises every Partial<T> degradation path
//                 without needing a genuinely oversized instance).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <new>
#include <optional>

namespace lacon::fault {

enum class Site : std::uint8_t { kArenaAlloc = 0, kGuardBudget };
inline constexpr std::size_t kSiteCount = 2;

const char* to_string(Site site) noexcept;

// Thrown by arena interning when kArenaAlloc fires. Derives from
// std::bad_alloc so callers that already handle allocation failure handle
// the injected flavour for free; guarded engine layers catch exactly this
// type (never real bad_alloc) and degrade to a Partial result.
struct InjectedAllocError : std::bad_alloc {
  const char* what() const noexcept override {
    return "lacon::fault injected allocation failure";
  }
};

struct FaultConfig {
  std::uint64_t seed = 0;
  double rate = 0.0;  // probability per probe, in [0, 1]
};

// Reads LACON_FAULT_SEED / LACON_FAULT_RATE. nullopt when the seed is unset
// or the effective rate is 0. Malformed values earn a one-line stderr
// warning (once per process) and count as unset / the default rate (0.01).
std::optional<FaultConfig> config_from_env();

// A deterministic firing schedule. Thread-safe: probes draw per-site
// sequence numbers from atomic counters.
class FaultPlan {
 public:
  // `site_mask` restricts firing to selected sites (bit = 1 << site);
  // defaults to all sites.
  FaultPlan(std::uint64_t seed, double rate,
            unsigned site_mask = ~0u) noexcept;

  // True iff this probe of `site` fires. Deterministic per (seed, site,
  // probe index); advances the site's probe counter either way.
  bool fire(Site site) noexcept;

  std::uint64_t probes(Site site) const noexcept;
  std::uint64_t fired(Site site) const noexcept;

 private:
  std::uint64_t seed_;
  std::uint64_t threshold_;  // fire iff mix64(...) < threshold_
  unsigned site_mask_;
  std::array<std::atomic<std::uint64_t>, kSiteCount> probes_{};
  std::array<std::atomic<std::uint64_t>, kSiteCount> fired_{};
};

// The installed plan, or nullptr when injection is off. Installation is a
// plain atomic pointer swap; injection points pay one relaxed load when off.
FaultPlan* active_plan() noexcept;

// True iff a plan is installed and this probe of `site` fires. The
// convenience form every injection point calls.
bool fire(Site site) noexcept;

// RAII installation of a plan for the current scope. Scopes must not nest
// and must not be entered while guarded work is in flight.
class FaultScope {
 public:
  FaultScope(std::uint64_t seed, double rate, unsigned site_mask = ~0u);
  explicit FaultScope(const FaultConfig& config)
      : FaultScope(config.seed, config.rate) {}
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  FaultPlan& plan() noexcept { return plan_; }

 private:
  FaultPlan plan_;
};

// Throws InjectedAllocError iff kArenaAlloc fires. Called by the arenas'
// intern paths before touching storage.
void maybe_throw_alloc_fault();

}  // namespace lacon::fault
