#include "core/view.hpp"

#include <cassert>

#include "runtime/fault.hpp"
#include "runtime/stats.hpp"

namespace lacon {

ViewArena::ViewArena(int n)
    : n_(n),
      hits_(&runtime::Stats::global().counter("arena.view_hits")),
      misses_(&runtime::Stats::global().counter("arena.view_misses")),
      restored_(&runtime::Stats::global().counter("arena.view_restored")),
      lock_waits_(
          &runtime::Stats::global().counter("arena.view_shard_waits")) {
  assert(n >= 2 && n < 62);
}

ViewArena::~ViewArena() {
  // Memo slots own their vectors; interning has quiesced by destruction
  // time, so a sweep over the published id range suffices.
  const std::size_t count = next_id_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < count; ++i) {
    const auto* slot = known_memo_.try_get(i);
    if (slot == nullptr) continue;
    delete slot->load(std::memory_order_acquire);
  }
}

ViewId ViewArena::initial(ProcessId owner, Value input) {
  assert(owner >= 0 && owner < n_);
  assert(input >= 0);
  return intern(ViewNode{owner, 0, input, kNoView, {}});
}

ViewId ViewArena::extend(ViewId prev, std::vector<Obs> obs) {
  assert(prev != kNoView);
  const ViewNode& p = node(prev);
#ifndef NDEBUG
  for (std::size_t i = 1; i < obs.size(); ++i) {
    assert(obs[i - 1].source <= obs[i].source && "observations must be sorted");
  }
#endif
  return intern(ViewNode{p.owner, p.round + 1, p.input, prev, std::move(obs)});
}

ViewId ViewArena::restore(ViewNode node, std::uint64_t hash) {
  assert(node.owner >= 0 && node.owner < n_);
  assert(hash == content_hash(node) && "hash must be content_hash(node)");
  return intern_impl(std::move(node), hash, restored_);
}

ViewId ViewArena::intern(ViewNode nd) {
  const std::uint64_t h = content_hash(nd);  // once, outside the lock
  return intern_impl(std::move(nd), h, misses_);
}

ViewId ViewArena::intern_impl(ViewNode nd, std::uint64_t h,
                              runtime::Counter* miss_counter) {
  fault::maybe_throw_alloc_fault();
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock_waits_->increment();
    lock.lock();
  }
  if (const std::optional<ViewId> found =
          index_.find(h, [&](ViewId id) { return node(id) == nd; })) {
    hits_->increment();
    return *found;
  }
  // Footprint uses obs.size(), not capacity(): the estimate must be a pure
  // function of the node's content so guard byte accounting is identical
  // however interns interleave (see StateArena::approx_bytes).
  approx_bytes_.fetch_add(sizeof(ViewNode) + nd.obs.size() * sizeof(Obs) + 64,
                          std::memory_order_relaxed);
  // Write the node and index it, then publish the id by raising the count.
  const std::size_t idx = next_id_.load(std::memory_order_relaxed);
  const auto id = static_cast<ViewId>(idx);
  nodes_.slot(idx) = std::move(nd);
  index_.insert(h, id);
  next_id_.store(idx + 1, std::memory_order_release);
  miss_counter->increment();
  return id;
}

const std::vector<Value>& ViewArena::known_inputs(ViewId id) {
  auto& slot = known_memo_.slot(static_cast<std::size_t>(id));
  if (const auto* cached = slot.load(std::memory_order_acquire)) {
    return *cached;
  }
  // Compute without holding anything: the recursion below re-enters
  // known_inputs. Racing computations of the same view are idempotent; the
  // CAS publishes the first finisher's copy and losers delete theirs.
  const ViewNode& v = node(id);
  std::vector<Value> known;
  if (v.prev == kNoView) {
    known.assign(static_cast<std::size_t>(n_), kUnknownInput);
  } else {
    known = known_inputs(v.prev);
  }
  known[static_cast<std::size_t>(v.owner)] = v.input;
  for (const Obs& o : v.obs) {
    if (o.view == kNoView) continue;
    const std::vector<Value>& sub = known_inputs(o.view);
    for (int j = 0; j < n_; ++j) {
      if (sub[static_cast<std::size_t>(j)] != kUnknownInput) {
        known[static_cast<std::size_t>(j)] = sub[static_cast<std::size_t>(j)];
      }
    }
  }
  auto* mine = new std::vector<Value>(std::move(known));
  const std::vector<Value>* expected = nullptr;
  if (slot.compare_exchange_strong(expected, mine, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *mine;
  }
  delete mine;
  return *expected;
}

std::string ViewArena::to_string(ViewId id) const {
  const ViewNode& v = node(id);
  std::string out =
      "p" + std::to_string(v.owner) + "@" + std::to_string(v.round);
  if (v.prev == kNoView) {
    out += "(in=" + std::to_string(v.input) + ")";
    return out;
  }
  out += "<" + to_string(v.prev);
  for (const Obs& o : v.obs) {
    out += ", " + std::to_string(o.source) + ":";
    out += (o.view == kNoView) ? "-" : to_string(o.view);
  }
  return out + ">";
}

}  // namespace lacon
