// ConcurrentSlotVector<T>: chunked slot storage with lock-free reads and
// concurrent, out-of-order writes.
//
// The interning arenas (core/intern.hpp) keep one header per id here and
// are read on every hot-path operation — agree_modulo alone reads two
// states per evaluated ~s pair. When connections share a session those
// reads race with appends from concurrent layer computations, and a
// std::vector would both invalidate references on growth and trip TSan on
// its internal bookkeeping. This class fixes the storage into 1024-element
// chunks hung off a two-level directory of atomic pointers, so elements
// never move and readers take zero locks. The per-state caches keyed by id
// (the layer cache, fingerprint rows, valence memo words, orbit weights)
// and the canonicalizer's per-view memos write their slots from racing
// threads in any order: slot(i) materialises the backing chunk with a CAS
// (losers free their allocation) and returns a reference the caller may
// write.
//
// There is no size(): index validity is the caller's contract. A reader must
// have received the index through a happens-before edge with the slot's
// write (the arenas publish ids with a release store of their count, a
// thread join, or a program-order return value); operator[] then reads
// lock-free. try_get() additionally tolerates indices whose chunk was never
// created (returns nullptr) — used by destructors and by memo lookups of
// slots that may never have been written.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>

namespace lacon::runtime {

template <typename T>
class ConcurrentSlotVector {
  static constexpr std::size_t kChunkBits = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  static constexpr std::size_t kTableBits = 8;
  static constexpr std::size_t kTableSize = std::size_t{1} << kTableBits;

  struct Table {
    std::atomic<T*> chunks[kTableSize] = {};
  };

 public:
  static constexpr std::size_t kMaxSize = kTableSize * kTableSize * kChunkSize;

  ConcurrentSlotVector() = default;
  ~ConcurrentSlotVector() {
    for (std::size_t t = 0; t < kTableSize; ++t) {
      Table* table = tables_[t].load(std::memory_order_relaxed);
      if (table == nullptr) continue;
      for (std::size_t c = 0; c < kTableSize; ++c) {
        delete[] table->chunks[c].load(std::memory_order_relaxed);
      }
      delete table;
    }
  }

  ConcurrentSlotVector(const ConcurrentSlotVector&) = delete;
  ConcurrentSlotVector& operator=(const ConcurrentSlotVector&) = delete;

  // Returns a writable reference to slot i, creating the backing chunk if
  // needed. Safe to call concurrently for any mix of indices; the caller is
  // responsible for not writing the same slot from two threads.
  T& slot(std::size_t i) {
    assert(i < kMaxSize && "ConcurrentSlotVector capacity exhausted");
    return chunk_for(i)[i & kChunkMask];
  }

  const T& operator[](std::size_t i) const {
    const Table* table =
        tables_[i >> (kChunkBits + kTableBits)].load(std::memory_order_acquire);
    const T* chunk =
        table->chunks[(i >> kChunkBits) & (kTableSize - 1)].load(
            std::memory_order_acquire);
    return chunk[i & kChunkMask];
  }

  // Like operator[] but tolerates slots whose chunk was never materialised.
  const T* try_get(std::size_t i) const {
    if (i >= kMaxSize) return nullptr;
    const Table* table =
        tables_[i >> (kChunkBits + kTableBits)].load(std::memory_order_acquire);
    if (table == nullptr) return nullptr;
    const T* chunk =
        table->chunks[(i >> kChunkBits) & (kTableSize - 1)].load(
            std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;
    return &chunk[i & kChunkMask];
  }

 private:
  T* chunk_for(std::size_t i) {
    const std::size_t t = i >> (kChunkBits + kTableBits);
    Table* table = tables_[t].load(std::memory_order_acquire);
    if (table == nullptr) {
      Table* fresh = new Table();
      if (tables_[t].compare_exchange_strong(table, fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        table = fresh;
      } else {
        delete fresh;  // `table` now holds the winner
      }
    }
    const std::size_t c = (i >> kChunkBits) & (kTableSize - 1);
    T* chunk = table->chunks[c].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      T* fresh = new T[kChunkSize]();
      if (table->chunks[c].compare_exchange_strong(chunk, fresh,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_acquire)) {
        chunk = fresh;
      } else {
        delete[] fresh;
      }
    }
    return chunk;
  }

  std::atomic<Table*> tables_[kTableSize] = {};
};

}  // namespace lacon::runtime
