// WordPool: an append-only pool of 64-bit words.
//
// The flat-storage arenas (core/intern.hpp) replace per-object heap vectors
// with one pool per arena: each interned state or view is a single region
// (a state's env words and packed lanes, a view's known-input lanes and
// FORMATS.md §1.5 record). alloc() bumps a plain cursor and grows a plain
// chunk list, so its callers serialize it (the arenas call it under their
// intern lock). Chunks are fixed-size and never move, so a region pointer
// stays valid for the pool's lifetime; readers hold the pointers the arena
// published and never touch the pool itself.
//
// A region never spans a chunk boundary: when the tail of the current chunk
// is too small, alloc() skips it (the skipped words are wasted, bounded by
// max-region-size per chunk) and starts a new chunk. The amount of
// waste depends on the order of the allocations, which depends on how
// concurrent interns interleave, so the arenas deliberately do NOT account
// pool occupancy in approx_bytes() — the byte accounting must be a
// scheduling-independent function of the interned content (see DESIGN.md
// §9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace lacon::runtime {

class WordPool {
  static constexpr std::size_t kChunkWords = std::size_t{1} << 16;  // 512 KiB

 public:
  // Largest region alloc() accepts (one full chunk).
  static constexpr std::size_t kMaxRegionWords = kChunkWords;

  // Claims `len` contiguous words, left unwritten, and returns where they
  // start. Throws std::bad_alloc, before claiming anything, when `len`
  // exceeds kMaxRegionWords. Callers serialize alloc().
  std::int64_t* alloc(std::size_t len) {
    if (len > kMaxRegionWords) throw std::bad_alloc();
    if (chunks_.empty() || len > kChunkWords - used_) {
      // Chunks hold raw words whose payload is fully written before the
      // owning id is published; no value-initialisation needed (padding
      // lanes are zeroed explicitly by the arenas).
      chunks_.push_back(std::make_unique_for_overwrite<std::int64_t[]>(
          kChunkWords));
      used_ = 0;
    }
    std::int64_t* region = chunks_.back().get() + used_;
    used_ += len;
    return region;
  }

 private:
  std::vector<std::unique_ptr<std::int64_t[]>> chunks_;
  std::size_t used_ = 0;  // words claimed in the last chunk
};

}  // namespace lacon::runtime
