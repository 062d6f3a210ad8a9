// StableVector<T>: append-only chunked storage with lock-free reads.
//
// The interning arenas (core/view.hpp, core/state.hpp) hand out dense ids
// and are read on every hot-path operation — agree_modulo alone reads two
// GlobalStates per evaluated ~s pair. When connections share a session those
// reads race with appends from concurrent layer computations, and a
// std::vector would both invalidate references on growth and trip TSan on
// its internal bookkeeping. StableVector fixes the storage into 1024-element
// chunks hung off a two-level directory of atomic pointers: elements never
// move, readers take zero locks, and the only synchronisation requirement
// is the arenas' own invariant that an id is published (through the intern
// mutex or a join) before anyone reads it.
//
// Writers must serialize push_back externally (the arenas' intern mutex
// does); readers need no synchronisation beyond having received the index
// through a happens-before edge with its push_back.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace lacon::runtime {

template <typename T>
class StableVector {
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

  StableVector() = default;
  ~StableVector() {
    for (std::size_t t = 0; t < kTableSize; ++t) {
      Table* table = tables_[t].load(std::memory_order_relaxed);
      if (table == nullptr) continue;
      for (std::size_t c = 0; c < kTableSize; ++c) {
        delete[] table->chunks[c].load(std::memory_order_relaxed);
      }
      delete table;
    }
  }

  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  // Appends a value and returns its index. Callers must serialize.
  std::size_t push_back(T value) {
    const std::size_t i = size_.load(std::memory_order_relaxed);
    assert(i < kMaxSize && "StableVector capacity exhausted");
    T* chunk = chunk_for(i);
    chunk[i & kChunkMask] = std::move(value);
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

  const T& operator[](std::size_t i) const {
    assert(i < size());
    const Table* table =
        tables_[i >> (kChunkBits + kTableBits)].load(std::memory_order_acquire);
    const T* chunk =
        table->chunks[(i >> kChunkBits) & (kTableSize - 1)].load(
            std::memory_order_acquire);
    return chunk[i & kChunkMask];
  }

 private:
  T* chunk_for(std::size_t i) {
    const std::size_t t = i >> (kChunkBits + kTableBits);
    Table* table = tables_[t].load(std::memory_order_relaxed);
    if (table == nullptr) {
      table = new Table();
      tables_[t].store(table, std::memory_order_release);
    }
    const std::size_t c = (i >> kChunkBits) & (kTableSize - 1);
    T* chunk = table->chunks[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new T[kChunkSize]();
      table->chunks[c].store(chunk, std::memory_order_release);
    }
    return chunk;
  }

  std::atomic<Table*> tables_[kTableSize] = {};
  std::atomic<std::size_t> size_{0};
};

// ConcurrentSlotVector<T>: the fully concurrent sibling of StableVector.
//
// Where StableVector requires writers to serialize push_back, the sharded
// arenas (core/state.hpp, core/view.hpp) claim indices with an atomic
// counter *outside* any lock and then write the slot — so slots are written
// out of order and by racing threads. This class provides exactly that:
// slot(i) materialises the backing chunk with a CAS (losers free their
// allocation) and returns a reference the caller may write.
//
// There is no size(): index validity is the caller's contract. A reader must
// have received the index through a happens-before edge with the slot's
// write (the arenas publish ids through their shard mutex, a thread join, or
// a program-order return value); operator[] then reads lock-free. try_get()
// additionally tolerates indices whose chunk was never created (returns
// nullptr) — used only by destructors and debug sweeps.
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
