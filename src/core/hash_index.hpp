// HashIndex: the content-hash -> id index of an interning arena
// (core/intern.hpp).
//
// Open addressing with linear probing over a power-of-two table of 8-byte
// slots, kept at most half full, so a lookup reads one or two adjacent
// slots instead of walking a node-based bucket chain. A slot holds a 32-bit
// tag and the id + 1 (0 marks an empty slot). The tag is the top 32 bits of
// h * 2^64/phi (Fibonacci hashing, so the index does not depend on the low
// bits of h being well mixed), and the tag's own top log2(capacity) bits
// are the slot's home: grow() re-places every entry from its tag alone,
// without reading content or rehashing, into a table twice the size. On a
// tag match find() asks the caller's equality check, which compares
// arena-resident content, so distinct content sharing a tag (or a whole
// hash) keeps its own id. Ids are never removed. Not thread-safe: the arena
// calls it under its intern mutex.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace lacon {

template <typename Id>
class HashIndex {
 public:
  // The first id stored under `h`'s tag for which `same(id)` holds.
  template <typename Same>
  std::optional<Id> find(std::uint64_t h, Same&& same) const {
    if (slots_.empty()) return std::nullopt;
    const std::uint32_t t = tag(h);
    for (std::size_t i = home(t);; i = (i + 1) & mask_) {
      const Slot s = slots_[i];
      if (s.id_plus_one == 0) return std::nullopt;
      if (s.tag == t && same(static_cast<Id>(s.id_plus_one - 1))) {
        return static_cast<Id>(s.id_plus_one - 1);
      }
    }
  }

  void insert(std::uint64_t h, Id id) {
    assert(static_cast<std::uint32_t>(id) != UINT32_MAX);
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(Slot{tag(h), static_cast<std::uint32_t>(id) + 1});
    ++size_;
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id_plus_one = 0;  // 0: empty
  };
  static_assert(sizeof(Slot) == 8);

  static std::uint32_t tag(std::uint64_t h) noexcept {
    return static_cast<std::uint32_t>((h * 0x9e3779b97f4a7c15ULL) >> 32);
  }

  std::size_t home(std::uint32_t t) const noexcept { return t >> shift_; }

  void place(Slot s) {
    std::size_t i = home(s.tag);
    while (slots_[i].id_plus_one != 0) i = (i + 1) & mask_;
    slots_[i] = s;
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 64 : 2 * slots_.size();
    // A home is at most 32 tag bits wide.
    if (capacity > (std::size_t{1} << 32)) {
      throw std::length_error("HashIndex: more than 2^31 entries");
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 32 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& s : old) {
      if (s.id_plus_one != 0) place(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 32;
  std::size_t size_ = 0;
};

}  // namespace lacon
