// HashIndex: the content-hash -> id index of an interning arena
// (core/state.hpp, core/view.hpp).
//
// Open addressing with linear probing over a power-of-two table of
// (hash, id) slots, kept at most half full, so a lookup reads one or two
// adjacent slots instead of walking a node-based bucket chain. Distinct
// content can share a hash, so one hash may map to several ids: find()
// visits every id stored under the hash and returns the first one the
// caller's equality check accepts against arena-resident content. Ids are
// never removed. Not thread-safe: each arena calls it under its intern
// mutex.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace lacon {

template <typename Id>
class HashIndex {
 public:
  // The first id stored under `h` for which `same(id)` holds.
  template <typename Same>
  std::optional<Id> find(std::uint64_t h, Same&& same) const {
    if (slots_.empty()) return std::nullopt;
    for (std::size_t i = home(h);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (!s.used) return std::nullopt;
      if (s.hash == h && same(s.id)) return s.id;
    }
  }

  void insert(std::uint64_t h, Id id) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(h, id);
    ++size_;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    Id id{};
    bool used = false;
  };

  // Fibonacci hashing: the top bits of h * 2^64/phi pick the home slot, so
  // the index does not depend on the low bits of h being well mixed.
  std::size_t home(std::uint64_t h) const noexcept {
    return static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void place(std::uint64_t h, Id id) {
    std::size_t i = home(h);
    while (slots_[i].used) i = (i + 1) & mask_;
    slots_[i] = Slot{h, id, true};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 64 : 2 * old.size();
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& s : old) {
      if (s.used) place(s.hash, s.id);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace lacon
