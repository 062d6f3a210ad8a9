#include "core/state.hpp"

#include <algorithm>
#include <cstring>

namespace lacon {

bool operator==(const StateRef& a, const StateRef& b) noexcept {
  if (a.env.size() != b.env.size() || a.locals.size() != b.locals.size() ||
      a.decisions.size() != b.decisions.size()) {
    return false;
  }
  const std::size_t n = a.locals.size();
  return simd::words_equal(a.env.data(), b.env.data(), a.env.size()) &&
         simd::lanes_equal_skip(a.locals.data(), b.locals.data(), n,
                                simd::kNoSkip) &&
         simd::lanes_equal_skip(a.decisions.data(), b.decisions.data(), n,
                                simd::kNoSkip);
}

bool agree_modulo(const StateRef& x, const StateRef& y, ProcessId j) {
  assert(x.locals.size() == y.locals.size());
  if (x.env.size() != y.env.size()) return false;
  // The kernels read exactly size() elements, so vector-backed candidate
  // refs (no padded tail) and pool-backed refs mix freely here.
  if (!simd::words_equal(x.env.data(), y.env.data(), x.env.size())) {
    return false;
  }
  const std::size_t n = x.locals.size();
  const auto skip = static_cast<std::size_t>(j);  // j == -1 -> kNoSkip
  return simd::lanes_equal_skip(x.locals.data(), y.locals.data(), n, skip) &&
         simd::lanes_equal_skip(x.decisions.data(), y.decisions.data(), n,
                                skip);
}

StateId StateArena::insert(const StateRef& s, std::uint64_t h,
                           bool restored) {
  assert(s.decisions.size() == s.locals.size() &&
         "a state carries one decision slot per process");
  const std::size_t n = s.locals.size();
  const std::size_t lanes = lane_words(n);
  const Header hd{nullptr, static_cast<std::uint32_t>(s.env.size()),
                  static_cast<std::uint32_t>(n)};
  const auto write = [&](std::int64_t* base) {
    std::copy(s.env.begin(), s.env.end(), base);
    std::int64_t* lanes_base = base + s.env.size();
    if (n % 2 != 0) {  // zero the padding halves of odd-count 32-bit lanes
      lanes_base[lanes - 1] = 0;
      lanes_base[2 * lanes - 1] = 0;
    }
    std::memcpy(lanes_base, s.locals.data(), n * sizeof(ViewId));
    std::memcpy(lanes_base + lanes, s.decisions.data(), n * sizeof(Value));
#ifndef NDEBUG
    if (n % 2 != 0) {
      // The odd-n padding lanes must stay zero forever (intern AND restore
      // both land here), so a pooled word region is a pure function of the
      // state's content. See DESIGN.md §13 and the store_test
      // restored-padding case.
      assert(reinterpret_cast<const std::uint32_t*>(lanes_base)[n] == 0 &&
             "odd-n locals padding lane must be zero");
      assert(reinterpret_cast<const std::uint32_t*>(lanes_base + lanes)[n] ==
                 0 &&
             "odd-n decisions padding lane must be zero");
    }
#endif
  };
  return core_.intern(
      h, restored, [&](StateId id) { return state(id) == s; }, hd,
      region_words(s.env.size(), n), write);
}

}  // namespace lacon
