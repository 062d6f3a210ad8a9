// Fundamental identifier and value types shared across the library.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/process_set.hpp"

namespace lacon {

// Input / decision values. Inputs are non-negative; negative values are
// reserved for the sentinels below.
using Value = int;

// d_i = ⊥ : the write-once decision variable has not been written yet.
inline constexpr Value kUndecided = -1;

// An input that is not (yet) known to a process in its view.
inline constexpr Value kUnknownInput = -1;

// Index of an interned full-information view in a ViewArena.
using ViewId = std::int32_t;
inline constexpr ViewId kNoView = -1;

// Index of an interned global state in a StateArena.
using StateId = std::uint32_t;

}  // namespace lacon
