// InternCore: the intern protocol both hash-consing arenas share
// (core/state.hpp, core/view.hpp).
//
// An arena stores each interned object as one region of a WordPool,
// described by a fixed-size Header (carrying a `region` pointer) in a slot
// vector indexed by id. intern() runs the whole protocol under one mutex:
// probe the HashIndex with the caller's equality check against pooled
// content; on a miss, allocate the region and let the caller's writer fill
// it, store the header, index the id, and only then publish the id with a
// release store of the count. So header() and the region it points to are
// lock-free reads for every id below size() (or received through another
// happens-before edge) while other threads keep interning. Interning is
// content-addressed: racing interns of equal content agree on the id and
// ids stay dense, but *which* content gets which id depends on scheduling.
//
// approx_bytes() is one content-derived formula for both arenas: per object,
// its header, its region's words and a flat index allowance. Pool occupancy
// is never counted (its chunk-tail waste depends on scheduling;
// runtime/word_pool.hpp), so LayeredModel::memory_footprint() reads the
// same total for the same content however interns interleave.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "core/hash_index.hpp"
#include "runtime/fault.hpp"
#include "runtime/slot_vector.hpp"
#include "runtime/stats.hpp"
#include "runtime/word_pool.hpp"

namespace lacon {

template <typename Id, typename Header>
class InternCore {
 public:
  // Counts into arena.<kind>_hits, _misses, _restored and _shard_waits
  // (interns that found the lock held; a name perfbench reads).
  explicit InternCore(const std::string& kind)
      : hits_(&counter(kind, "_hits")),
        misses_(&counter(kind, "_misses")),
        restored_(&counter(kind, "_restored")),
        lock_waits_(&counter(kind, "_shard_waits")) {}

  // The id whose content hashes to `h` and satisfies `same(id)`. On a miss,
  // `write` fills a fresh region of `words` words, `hd` (its region set
  // here; null for an empty one) becomes the header, and the new id counts
  // as restored (a store loader replaying stored content) or as a miss.
  // Probes the kArenaAlloc fault injector, and the pool refuses more than
  // WordPool::kMaxRegionWords words (std::bad_alloc), before any change.
  template <typename Same, typename Write>
  Id intern(std::uint64_t h, bool restored, Same&& same, Header hd,
            std::size_t words, Write&& write) {
    fault::maybe_throw_alloc_fault();
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      lock_waits_->increment();
      lock.lock();
    }
    if (const std::optional<Id> found = index_.find(h, same)) {
      hits_->increment();
      return *found;
    }
    if (words != 0) {
      std::int64_t* region = pool_.alloc(words);
      write(region);
      hd.region = region;
    }
    const std::size_t idx = next_id_.load(std::memory_order_relaxed);
    headers_.slot(idx) = hd;
    approx_bytes_.fetch_add(
        sizeof(Header) + words * sizeof(std::int64_t) + kIndexBytes,
        std::memory_order_relaxed);
    index_.insert(h, static_cast<Id>(idx));
    next_id_.store(idx + 1, std::memory_order_release);
    (restored ? restored_ : misses_)->increment();
    return static_cast<Id>(idx);
  }

  const Header& header(Id id) const {
    return headers_[static_cast<std::size_t>(id)];
  }

  // The ids published so far; each one's content is readable.
  std::size_t size() const noexcept {
    return next_id_.load(std::memory_order_acquire);
  }

  // Monotone, relaxed reads.
  std::size_t approx_bytes() const noexcept {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kIndexBytes = 48;  // per HashIndex entry

  static runtime::Counter& counter(const std::string& kind,
                                   const char* suffix) {
    return runtime::Stats::global().counter("arena." + kind + suffix);
  }

  std::mutex mu_;
  // hash -> id; equality is confirmed against pooled content, so the index
  // holds no second copy of anything. Guarded by mu_, like the pool cursor.
  HashIndex<Id> index_;
  runtime::WordPool pool_;
  runtime::ConcurrentSlotVector<Header> headers_;
  std::atomic<std::size_t> next_id_{0};
  std::atomic<std::size_t> approx_bytes_{0};
  runtime::Counter* hits_;
  runtime::Counter* misses_;
  runtime::Counter* restored_;
  runtime::Counter* lock_waits_;
};

}  // namespace lacon
