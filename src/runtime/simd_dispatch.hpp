// Runtime dispatch for the SIMD kernel library (util/simd.hpp).
//
// One kernel table is selected per process, once, on first use: AVX2 when
// the CPU reports it (x86), the portable scalar table otherwise (every
// other host, aarch64 included). The LACON_SIMD environment knob overrides
// the choice — `auto` (default), `scalar`, `avx2` — with the warn-once +
// fallback contract: a malformed value, or a request for an ISA this host
// cannot execute, warns once on stderr and falls back to the automatic
// pick. Every table is bit-identical in output by contract
// (tests/simd_test.cc), so the knob only ever moves speed, never results.
#pragma once

#include "util/simd.hpp"

namespace lacon::simd {

enum class Isa { kScalar, kAvx2 };

// The LACON_SIMD choices: the two ISAs plus automatic selection, plus a
// marker for text that parses as none of them (the caller warns once and
// uses kAuto). Pure and allocation-free for testability.
enum class Choice { kAuto, kScalar, kAvx2, kMalformed };
Choice parse_choice(const char* text) noexcept;

// True when this process can execute `isa`'s kernels.
bool host_supports(Isa isa) noexcept;

// The kernel table selected for this process (CPU features + LACON_SIMD),
// latched on first call. An active KernelOverride takes precedence.
const Kernels& active() noexcept;

// Name of the table active() currently returns ("scalar"|"avx2").
const char* active_name() noexcept;

// The portable reference table (always available).
const Kernels& scalar_kernels() noexcept;

// The table for an explicit ISA, or nullptr when this host cannot run it.
// The A/B bench and the equivalence tests iterate the available tables.
const Kernels* kernels_for(Isa isa) noexcept;

// Scoped kernel-table override, mirroring runtime::WorkerCountOverride:
// while alive, active() returns `k` instead of the latched process-wide
// table. For benches and tests that A/B scalar against dispatched kernels
// inside one process; establish it before concurrent analysis starts (the
// slot is a single atomic, but swapping mid-analysis would mix tables —
// harmless for results, meaningless for measurement). Nestable; the
// previous override is restored on destruction.
class KernelOverride {
 public:
  explicit KernelOverride(const Kernels& k) noexcept;
  ~KernelOverride();

  KernelOverride(const KernelOverride&) = delete;
  KernelOverride& operator=(const KernelOverride&) = delete;

 private:
  const Kernels* previous_;
};

}  // namespace lacon::simd
