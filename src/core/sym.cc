#include "core/sym.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "core/model.hpp"
#include "runtime/stats.hpp"

namespace lacon::sym {
namespace {

// Seeds for the two independent halves of the 128-bit rewrite keys and for
// the shape hash ("symshp", "symk1", "symk2" in ASCII).
constexpr std::uint64_t kShapeSeed = 0x73796d736870ULL;
constexpr std::uint64_t kKeySeedA = 0x73796d6b31ULL;
constexpr std::uint64_t kKeySeedB = 0x73796d6b32ULL;
// Stand-ins for kNoView in the recursive hashes.
constexpr std::uint64_t kAbsent = 0x6e6f76696577ULL;  // "noview"

constexpr std::uint64_t kMaskComputed = std::uint64_t{1} << 63;

// Canonical memo key for any relabeling that is the identity on a view's
// relevant process set (all nibbles masked).
constexpr std::uint64_t kIdentityPacked = ~std::uint64_t{0};

// -1 = no override active; 0/1 = forced off/on. ScopedSymmetry keeps the
// previous value, so overrides nest.
std::atomic<int> g_override{-1};

void warn_symmetry_once(const char* text) noexcept {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "lacon: unrecognized LACON_SYMMETRY value \"%s\" "
                 "(expected \"off\" or \"on\"); keeping default\n",
                 text);
  }
}

// Lexicographic three-way compare of equal-purpose key vectors.
int compare_keys(const std::vector<std::uint64_t>& a,
                 const std::vector<std::uint64_t>& b) noexcept {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

// Total order on materialized states, used only to break 128-bit key
// collisions between genuinely different orbit members. Compares raw
// content including interned ids, so it is stable within a run (which is
// all soundness needs — see the header comment) even though the specific
// winner could differ across runs in the astronomically unlikely collision
// case.
bool state_content_less(const GlobalState& a, const GlobalState& b) noexcept {
  if (a.env != b.env) return a.env < b.env;
  if (a.locals != b.locals) return a.locals < b.locals;
  return a.decisions < b.decisions;
}

}  // namespace

bool parse_symmetry(const char* text, bool fallback) noexcept {
  if (text == nullptr || *text == '\0') return fallback;
  if (std::strcmp(text, "off") == 0) return false;
  if (std::strcmp(text, "on") == 0) return true;
  warn_symmetry_once(text);
  return fallback;
}

bool enabled() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return parse_symmetry(std::getenv("LACON_SYMMETRY"), false);
}

ScopedSymmetry::ScopedSymmetry(bool on) noexcept
    : previous_(g_override.exchange(on ? 1 : 0, std::memory_order_relaxed)) {}

ScopedSymmetry::~ScopedSymmetry() {
  g_override.store(previous_, std::memory_order_relaxed);
}

std::uint64_t factorial(int n) noexcept {
  assert(n >= 0 && n <= 20);
  std::uint64_t f = 1;
  for (int i = 2; i <= n; ++i) f *= static_cast<std::uint64_t>(i);
  return f;
}

Relabeling::Relabeling(Canonicalizer* canon, Permutation perm)
    : canon_(canon), perm_(std::move(perm)), inv_(perm_.size()) {
  for (std::size_t p = 0; p < perm_.size(); ++p) {
    inv_[static_cast<std::size_t>(perm_[p])] = static_cast<ProcessId>(p);
  }
}

std::pair<std::uint64_t, std::uint64_t> Relabeling::rewrite_key(ViewId v) {
  return canon_->rewrite_key(v, inv_);
}

ViewId Relabeling::rewrite(ViewId v) { return canon_->rewrite(v, inv_); }

Canonicalizer::Canonicalizer(ViewArena& views, int n)
    : views_(&views),
      n_(n),
      memo_(new MemoShard[kMemoShards]),
      rewrites_(&runtime::Stats::global().counter("arena.sym_rewrites")) {
  assert(n >= 1);
}

std::uint64_t Canonicalizer::shape(ViewId v) {
  auto& slot = shape_memo_.slot(static_cast<std::size_t>(v));
  const std::uint64_t cached = slot.load(std::memory_order_acquire);
  if (cached != 0) return cached >> 1;
  const ViewRef node = views_->node(v);
  std::uint64_t h =
      hash_combine(kShapeSeed, static_cast<std::uint64_t>(node.round));
  h = hash_combine(h, static_cast<std::uint64_t>(node.input));
  h = hash_combine(h, node.prev == kNoView ? kAbsent : shape(node.prev));
  // Observations fold commutatively: relabeling re-sorts the obs list, so
  // the erased structure must hash as a multiset.
  std::uint64_t acc = 0;
  for (const Obs& o : node.obs) {
    acc += mix64((o.view == kNoView ? kAbsent : shape(o.view)) ^ kShapeSeed);
  }
  h = hash_combine(h, node.obs.size());
  h = hash_combine(h, acc);
  // Stored as (h << 1) | 1 so that 0 keeps meaning "unset" (the top hash
  // bit is sacrificed); racing computes agree, so plain store is fine.
  const std::uint64_t stored = (h << 1) | 1;
  slot.store(stored, std::memory_order_release);
  return stored >> 1;
}

std::uint64_t Canonicalizer::relevant_mask(ViewId v) {
  auto& slot = mask_memo_.slot(static_cast<std::size_t>(v));
  const std::uint64_t cached = slot.load(std::memory_order_acquire);
  if (cached & kMaskComputed) return cached & ~kMaskComputed;
  const ViewRef node = views_->node(v);
  std::uint64_t m = std::uint64_t{1} << node.owner;
  if (node.prev != kNoView) m |= relevant_mask(node.prev);
  for (const Obs& o : node.obs) {
    m |= std::uint64_t{1} << o.source;
    if (o.view != kNoView) m |= relevant_mask(o.view);
  }
  slot.store(m | kMaskComputed, std::memory_order_release);
  return m;
}

std::uint64_t Canonicalizer::packed_masked(ViewId v, const Permutation& inv,
                                           bool* identity) {
  const std::uint64_t mask = relevant_mask(v);
  bool ident = true;
  for (int i = 0; i < n_; ++i) {
    if (((mask >> i) & 1) != 0 && inv[static_cast<std::size_t>(i)] != i) {
      ident = false;
      break;
    }
  }
  *identity = ident;
  // Every identity-on-relevant-set restriction shares one memo entry.
  if (ident) return kIdentityPacked;
  // 4-bit packing: LayeredModel gates the quotient to n <= 15, so a real
  // target index never collides with the 0xF "irrelevant" sentinel.
  assert(n_ <= 15);
  std::uint64_t packed = 0;
  for (int i = 0; i < n_; ++i) {
    const std::uint64_t nib =
        ((mask >> i) & 1) != 0
            ? static_cast<std::uint64_t>(inv[static_cast<std::size_t>(i)])
            : 0xF;
    packed |= nib << (4 * i);
  }
  return packed;
}

std::pair<std::uint64_t, std::uint64_t> Canonicalizer::rewrite_key(
    ViewId v, const Permutation& inv) {
  bool ident = false;
  const std::uint64_t packed = packed_masked(v, inv, &ident);
  const std::pair<std::uint64_t, std::uint64_t> lookup_key{
      static_cast<std::uint64_t>(v), packed};
  MemoShard& sh = memo_shard(v);
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.keys.find(lookup_key);
    if (it != sh.keys.end()) return it->second;
  }
  const ViewRef node = views_->node(v);
  const ProcessId owner = inv[static_cast<std::size_t>(node.owner)];
  std::uint64_t a = hash_combine(kKeySeedA, static_cast<std::uint64_t>(owner));
  std::uint64_t b = hash_combine(kKeySeedB, static_cast<std::uint64_t>(owner));
  a = hash_combine(a, static_cast<std::uint64_t>(node.round));
  b = hash_combine(b, static_cast<std::uint64_t>(node.round));
  a = hash_combine(a, static_cast<std::uint64_t>(node.input));
  b = hash_combine(b, static_cast<std::uint64_t>(node.input));
  std::pair<std::uint64_t, std::uint64_t> prev{kAbsent, kAbsent};
  if (node.prev != kNoView) prev = rewrite_key(node.prev, inv);
  a = hash_combine(a, prev.first);
  b = hash_combine(b, prev.second);
  // Hash observations in the order the rewritten view stores them: sorted
  // by mapped source. The sort is stable, which keeps same-source
  // observations in stored order — for the message-passing model those are
  // prev-chain related, so stored order is round order and survives the
  // rewrite (ids grow along prev chains).
  std::vector<std::uint32_t> order(node.obs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return inv[static_cast<std::size_t>(node.obs[x].source)] <
                            inv[static_cast<std::size_t>(node.obs[y].source)];
                   });
  a = hash_combine(a, node.obs.size());
  b = hash_combine(b, node.obs.size());
  for (const std::uint32_t idx : order) {
    const Obs& o = node.obs[idx];
    const ProcessId src = inv[static_cast<std::size_t>(o.source)];
    a = hash_combine(a, static_cast<std::uint64_t>(src));
    b = hash_combine(b, static_cast<std::uint64_t>(src));
    std::pair<std::uint64_t, std::uint64_t> k{kAbsent, kAbsent};
    if (o.view != kNoView) k = rewrite_key(o.view, inv);
    a = hash_combine(a, k.first);
    b = hash_combine(b, k.second);
  }
  const std::pair<std::uint64_t, std::uint64_t> result{a, b};
  std::lock_guard<std::mutex> lock(sh.mu);
  sh.keys.emplace(lookup_key, result);
  return result;
}

ViewId Canonicalizer::rewrite(ViewId v, const Permutation& inv) {
  bool ident = false;
  const std::uint64_t packed = packed_masked(v, inv, &ident);
  if (ident) return v;
  const std::pair<std::uint64_t, std::uint64_t> lookup_key{
      static_cast<std::uint64_t>(v), packed};
  MemoShard& sh = memo_shard(v);
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.views.find(lookup_key);
    if (it != sh.views.end()) return it->second;
  }
  const ViewRef node = views_->node(v);
  ViewId out;
  if (node.round == 0) {
    out = views_->initial(inv[static_cast<std::size_t>(node.owner)],
                          node.input);
  } else {
    const ViewId prev = rewrite(node.prev, inv);
    std::vector<std::uint32_t> order(node.obs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return inv[static_cast<std::size_t>(
                                  node.obs[x].source)] <
                              inv[static_cast<std::size_t>(
                                  node.obs[y].source)];
                     });
    std::vector<Obs> obs;
    obs.reserve(node.obs.size());
    for (const std::uint32_t idx : order) {
      const Obs& o = node.obs[idx];
      obs.push_back(Obs{inv[static_cast<std::size_t>(o.source)],
                        o.view == kNoView ? kNoView : rewrite(o.view, inv)});
    }
    out = views_->extend(prev, obs);
  }
  rewrites_->increment();
  std::lock_guard<std::mutex> lock(sh.mu);
  sh.views.emplace(lookup_key, out);
  return out;
}

void Canonicalizer::build_key(const LayeredModel& model, const StateRef& s,
                              Relabeling& rel,
                              std::vector<std::uint64_t>* out) {
  out->clear();
  const std::size_t n = s.locals.size();
  // (1) permuted decision vector — exact, no hashing needed;
  for (std::size_t p = 0; p < n; ++p) {
    out->push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(
        s.decisions[static_cast<std::size_t>(rel.old_at(p))])));
  }
  // (2) the model's environment key;
  model.sym_env_key(s, rel, out);
  // (3) per-position 128-bit relabeled-view keys.
  for (std::size_t p = 0; p < n; ++p) {
    const auto k =
        rel.rewrite_key(s.locals[static_cast<std::size_t>(rel.old_at(p))]);
    out->push_back(k.first);
    out->push_back(k.second);
  }
}

GlobalState Canonicalizer::permute(const LayeredModel& model,
                                   const StateRef& s,
                                   const Permutation& perm) {
  Relabeling rel(this, perm);
  const std::size_t n = s.locals.size();
  GlobalState out;
  out.locals.resize(n);
  out.decisions.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto old = static_cast<std::size_t>(perm[p]);
    out.locals[p] = rel.rewrite(s.locals[old]);
    out.decisions[p] = s.decisions[old];
  }
  out.env = model.sym_permute_env(s, rel);
  return out;
}

std::uint64_t Canonicalizer::canonicalize(const LayeredModel& model,
                                          GlobalState* s, bool* folded) {
  *folded = false;
  const int n = static_cast<int>(s->locals.size());
  assert(n == n_);

  // Permutation-invariant per-process shape keys.
  std::vector<std::uint64_t> shape_keys(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    shape_keys[idx] = hash_combine(
        shape(s->locals[idx]), static_cast<std::uint64_t>(
                                   static_cast<std::int64_t>(s->decisions[idx])));
  }

  // Processes sorted by shape key; equal-key runs are the tie groups whose
  // internal orderings form the candidate set. Any permutation achieving
  // the minimal canonical key sorts the (hashed) shape sequence, so the
  // true orbit minimum is always among these candidates.
  Permutation order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](ProcessId x, ProcessId y) {
    const std::uint64_t kx = shape_keys[static_cast<std::size_t>(x)];
    const std::uint64_t ky = shape_keys[static_cast<std::size_t>(y)];
    return kx != ky ? kx < ky : x < y;
  });
  std::vector<std::pair<int, int>> groups;  // [begin, end) runs in `order`
  for (int b = 0; b < n;) {
    int e = b + 1;
    while (e < n &&
           shape_keys[static_cast<std::size_t>(order[static_cast<std::size_t>(
               e)])] ==
               shape_keys[static_cast<std::size_t>(
                   order[static_cast<std::size_t>(b)])]) {
      ++e;
    }
    groups.push_back({b, e});
    b = e;
  }

  Permutation perm = order;
  Permutation best_perm;
  std::vector<std::uint64_t> best_key, cand_key;
  GlobalState best_state;
  bool best_materialized = false;
  std::uint64_t stab = 1;
  bool first = true;
  while (true) {
    Relabeling rel(this, perm);
    build_key(model, *s, rel, &cand_key);
    if (first) {
      best_key.swap(cand_key);
      best_perm = perm;
      first = false;
    } else {
      const int c = compare_keys(cand_key, best_key);
      if (c < 0) {
        best_key.swap(cand_key);
        best_perm = perm;
        best_materialized = false;
        stab = 1;
      } else if (c == 0) {
        // Exact tie resolution: materialize (memoized — stabilizer
        // candidates intern straight onto existing views) and compare, so
        // |Stab| is exact regardless of hash collisions.
        if (!best_materialized) {
          best_state = permute(model, *s, best_perm);
          best_materialized = true;
        }
        GlobalState cand = permute(model, *s, perm);
        if (cand == best_state) {
          ++stab;
        } else if (state_content_less(cand, best_state)) {
          best_state = std::move(cand);
          best_perm = perm;
          best_key = cand_key;
          stab = 1;
        }
      }
    }
    // Odometer over the tie groups (last group advances fastest); a
    // wrapped next_permutation leaves the range sorted, i.e. reset.
    bool advanced = false;
    for (auto g = static_cast<int>(groups.size()) - 1; g >= 0; --g) {
      if (std::next_permutation(perm.begin() + groups[static_cast<std::size_t>(
                                                   g)].first,
                                perm.begin() + groups[static_cast<std::size_t>(
                                                   g)].second)) {
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }

  if (!best_materialized) {
    // A sorted permutation is the identity, which relabels nothing: *s is
    // already its representative.
    if (std::is_sorted(best_perm.begin(), best_perm.end())) return stab;
    best_state = permute(model, *s, best_perm);
  }
  if (!(best_state == *s)) {
    // Copied, not moved, so *s (a successor builder's state) keeps its
    // buffers for the next successor.
    *folded = true;
    s->env.assign(best_state.env.begin(), best_state.env.end());
    s->locals.assign(best_state.locals.begin(), best_state.locals.end());
    s->decisions.assign(best_state.decisions.begin(),
                        best_state.decisions.end());
  }
  return stab;
}

}  // namespace lacon::sym
