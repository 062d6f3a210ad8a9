// WordPool: a concurrent append-only pool of 64-bit words.
//
// The flat-storage arenas (core/state.hpp) replace per-state heap vectors
// with one contiguous per-arena pool: each interned state is a single
// (offset, len) region holding its env words plus its packed locals and
// decisions. The pool hands out regions with a lock-free CAS bump of a
// global cursor; chunks are fixed-size, never move, and are materialised on
// demand, so data(offset) stays valid for the pool's lifetime and readers
// take no locks.
//
// A region never spans a chunk boundary: when the tail of the current chunk
// is too small, alloc() skips it (the skipped words are wasted, bounded by
// max-region-size per chunk) and starts at the next chunk. Because the
// amount of waste depends on the interleaving of concurrent allocations, the
// arenas deliberately do NOT account pool occupancy in approx_bytes() — the
// byte accounting must be a scheduling-independent function of the
// interned content (see DESIGN.md §9).
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
  // region never spans a chunk boundary. Lock-free except for the (rare)
  // chunk materialisation, which is a CAS where losers free their block.
  std::size_t alloc(std::size_t len) {
    assert(len <= kMaxRegionWords && "WordPool region exceeds chunk size");
    std::size_t cur = cursor_.load(std::memory_order_relaxed);
    for (;;) {
      std::size_t off = cur;
      const std::size_t tail = kChunkWords - (off & kChunkMask);
      if (len > tail) off += tail;  // waste the tail, start a fresh chunk
      if (cursor_.compare_exchange_weak(cur, off + len,
                                        std::memory_order_relaxed)) {
        if (len != 0) ensure_chunk(off >> kChunkBits);
        return off;
      }
    }
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
  std::size_t allocated_words() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }

 private:
  void ensure_chunk(std::size_t ci) {
    assert(ci < kMaxChunks && "WordPool capacity exhausted");
    std::int64_t* chunk = chunks_[ci].load(std::memory_order_acquire);
    if (chunk != nullptr) return;
    // Chunks hold raw words whose payload is fully written before the
    // owning id is published; no value-initialisation needed (padding words
    // for odd process counts are zeroed explicitly by the arena).
    std::int64_t* fresh = new std::int64_t[kChunkWords];
    if (!chunks_[ci].compare_exchange_strong(chunk, fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      delete[] fresh;  // a racing alloc materialised it first
    }
  }

  std::atomic<std::int64_t*> chunks_[kMaxChunks] = {};
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace lacon::runtime
