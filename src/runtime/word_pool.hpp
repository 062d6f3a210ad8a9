// WordPool: an append-only pool of 64-bit words with lock-free readers.
//
// The flat-storage arenas (core/state.hpp) replace per-state heap vectors
// with one contiguous per-arena pool: each interned state is a single
// (offset, len) region holding its env words plus its packed locals and
// decisions. alloc() bumps a plain cursor, so its callers serialize it (the
// arena calls it under its intern lock). Chunks are fixed-size, never move,
// and are materialised on demand behind atomic pointers, so data(offset)
// stays valid for the pool's lifetime and readers take no locks.
//
// A region never spans a chunk boundary: when the tail of the current chunk
// is too small, alloc() skips it (the skipped words are wasted, bounded by
// max-region-size per chunk) and starts at the next chunk. The amount of
// waste depends on the order of the allocations, which depends on how
// concurrent interns interleave, so the arenas deliberately do NOT account
// pool occupancy in approx_bytes() — the byte accounting must be a
// scheduling-independent function of the interned content (see DESIGN.md
// §9).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace lacon::runtime {

class WordPool {
  static constexpr std::size_t kChunkBits = 16;  // 64Ki words = 512 KiB/chunk
  static constexpr std::size_t kChunkWords = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kChunkMask = kChunkWords - 1;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 15;  // 16 GiB

 public:
  // Largest region alloc() accepts (one full chunk).
  static constexpr std::size_t kMaxRegionWords = kChunkWords;

  WordPool() = default;
  ~WordPool() {
    for (std::size_t c = 0; c < kMaxChunks; ++c) {
      std::int64_t* chunk = chunks_[c].load(std::memory_order_relaxed);
      if (chunk == nullptr) break;  // chunks are materialised in order
      delete[] chunk;
    }
  }

  WordPool(const WordPool&) = delete;
  WordPool& operator=(const WordPool&) = delete;

  // Claims a region of `len` contiguous words and returns its offset. The
  // region never spans a chunk boundary. Callers serialize alloc().
  std::size_t alloc(std::size_t len) {
    assert(len <= kMaxRegionWords && "WordPool region exceeds chunk size");
    std::size_t off = cursor_;
    const std::size_t tail = kChunkWords - (off & kChunkMask);
    if (len > tail) off += tail;  // waste the tail, start a fresh chunk
    cursor_ = off + len;
    if (len != 0) ensure_chunk(off >> kChunkBits);
    return off;
  }

  const std::int64_t* data(std::size_t offset) const noexcept {
    const std::int64_t* chunk =
        chunks_[offset >> kChunkBits].load(std::memory_order_acquire);
    return chunk + (offset & kChunkMask);
  }

  std::int64_t* mutable_data(std::size_t offset) noexcept {
    std::int64_t* chunk =
        chunks_[offset >> kChunkBits].load(std::memory_order_acquire);
    return chunk + (offset & kChunkMask);
  }

  // High-water cursor: allocated words including skipped chunk tails.
  // Serialized with alloc() like alloc() itself.
  std::size_t allocated_words() const noexcept { return cursor_; }

 private:
  void ensure_chunk(std::size_t ci) {
    assert(ci < kMaxChunks && "WordPool capacity exhausted");
    if (chunks_[ci].load(std::memory_order_relaxed) != nullptr) return;
    // Chunks hold raw words whose payload is fully written before the
    // owning id is published; no value-initialisation needed (padding words
    // for odd process counts are zeroed explicitly by the arena).
    chunks_[ci].store(new std::int64_t[kChunkWords],
                      std::memory_order_release);
  }

  std::atomic<std::int64_t*> chunks_[kMaxChunks] = {};
  std::size_t cursor_ = 0;
};

}  // namespace lacon::runtime
