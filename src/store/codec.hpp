// Shared byte-level codecs for the persistent store formats.
//
// lacon.store.v1 snapshots (store/snapshot.hpp) and lacon.wal.v1 delta logs
// (store/wal.hpp) serialize the same record shapes — ViewNode, flat
// GlobalState, layer-cache entry, valence-memo entry, fingerprint row — so
// the per-record encodings live here, used by both writers and both
// loaders. Both loaders also read the lemma facts that files written by
// earlier builds carry, and drop them (skip_lemma_entry). A record decoded by the WAL replayer is byte-for-byte the record
// the snapshot loader views in place; only the framing (sectioned file vs
// append-only log) differs.
//
// Everything is little-endian (the host the toolchain targets); a
// big-endian port would swap inside Writer/Reader and nowhere else. The
// Reader is bounds-checked: every getter reports truncation instead of
// walking off the end, so a short or lying file can never make a loader
// read wild memory. Decoders validate only what the byte stream itself can
// show (length sanity against the remaining bytes); semantic validation
// (id ranges, DAG invariants) stays with the callers, which know the
// replay horizon.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/state.hpp"
#include "core/view.hpp"
#include "engine/valence.hpp"

namespace lacon::store::codec {

inline std::uint64_t fnv1a(const std::uint8_t* p, std::size_t bytes) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Append-only little-endian byte sink.
class Writer {
 public:
  void raw(const void* p, std::size_t bytes) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + bytes);
  }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void pad_to_8() {
    while (buf_.size() % 8 != 0) buf_.push_back(0);
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const std::uint8_t* data() const noexcept { return buf_.data(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Bounds-checked reads over a byte span.
class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t bytes) : p_(p), end_(p + bytes) {}

  bool raw(void* out, std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - p_) < bytes) return false;
    std::memcpy(out, p_, bytes);
    p_ += bytes;
    return true;
  }
  bool u32(std::uint32_t* v) { return raw(v, sizeof *v); }
  bool i32(std::int32_t* v) { return raw(v, sizeof *v); }
  bool u64(std::uint64_t* v) { return raw(v, sizeof *v); }
  bool i64(std::int64_t* v) { return raw(v, sizeof *v); }
  bool skip(std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - p_) < bytes) return false;
    p_ += bytes;
    return true;
  }
  // Consumes `bytes` and returns where they start in the underlying buffer
  // (no copy), or nullptr when fewer remain.
  const std::uint8_t* view(std::size_t bytes) {
    const std::uint8_t* at = p_;
    return skip(bytes) ? at : nullptr;
  }
  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// --- ViewNode ---------------------------------------------------------------

inline void encode_view(Writer& w, const ViewNode& v) {
  w.i32(static_cast<std::int32_t>(v.owner));
  w.i32(v.round);
  w.i32(static_cast<std::int32_t>(v.input));
  w.i32(static_cast<std::int32_t>(v.prev));
  w.u32(static_cast<std::uint32_t>(v.obs.size()));
  for (const Obs& o : v.obs) {
    w.i32(o.source);
    w.i32(static_cast<std::int32_t>(o.view));
  }
}

inline bool decode_view(Reader& r, ViewNode* v) {
  std::int32_t owner = 0, input = 0, prev = 0;
  std::uint32_t obs_count = 0;
  if (!r.i32(&owner) || !r.i32(&v->round) || !r.i32(&input) || !r.i32(&prev) ||
      !r.u32(&obs_count) || obs_count > r.remaining() / 8) {
    return false;
  }
  v->owner = static_cast<ProcessId>(owner);
  v->input = static_cast<Value>(input);
  v->prev = static_cast<ViewId>(prev);
  v->obs.resize(obs_count);
  for (Obs& o : v->obs) {
    r.i32(&o.source);
    std::int32_t view = 0;
    r.i32(&view);
    o.view = static_cast<ViewId>(view);
  }
  return true;
}

// --- GlobalState (env i64 words + 32-bit locals/decisions lanes) ------------

inline void encode_state(Writer& w, const StateRef& s) {
  w.u64(s.env.size());
  for (std::int64_t word : s.env) w.i64(word);
  for (ViewId v : s.locals) w.i32(static_cast<std::int32_t>(v));
  for (Value d : s.decisions) w.i32(static_cast<std::int32_t>(d));
}

inline bool decode_state(Reader& r, int n, GlobalState* s) {
  std::uint64_t env_len = 0;
  if (!r.u64(&env_len) || env_len > r.remaining() / 8) return false;
  s->env.resize(static_cast<std::size_t>(env_len));
  for (std::int64_t& w : s->env) {
    if (!r.i64(&w)) return false;
  }
  s->locals.resize(static_cast<std::size_t>(n));
  s->decisions.resize(static_cast<std::size_t>(n));
  for (ViewId& v : s->locals) {
    std::int32_t raw = 0;
    if (!r.i32(&raw)) return false;
    v = static_cast<ViewId>(raw);
  }
  for (Value& d : s->decisions) {
    std::int32_t raw = 0;
    if (!r.i32(&raw)) return false;
    d = static_cast<Value>(raw);
  }
  return true;
}

// Views a state record in place: the spans point into the reader's buffer,
// which must outlive them. The snapshot loader's path — it copies each view
// into the arena once. Requires the record to start 8-aligned in memory;
// the env words are then 8-aligned and both lane arrays 4-aligned, for
// every n (FORMATS.md §1.4).
inline bool view_state(Reader& r, int n, StateRef* s) {
  static_assert(sizeof(ViewId) == 4 && sizeof(Value) == 4);
  std::uint64_t env_len = 0;
  if (!r.u64(&env_len) || env_len > r.remaining() / 8) return false;
  const auto words = static_cast<std::size_t>(env_len);
  const auto lanes = static_cast<std::size_t>(n);
  const std::uint8_t* p = r.view(words * 8 + lanes * 8);
  if (p == nullptr) return false;
  assert(reinterpret_cast<std::uintptr_t>(p) % 8 == 0 &&
         "state records are viewed only from an 8-aligned buffer");
  *s = StateRef{{reinterpret_cast<const std::int64_t*>(p), words},
                {reinterpret_cast<const ViewId*>(p + words * 8), lanes},
                {reinterpret_cast<const Value*>(p + words * 8 + lanes * 4),
                 lanes}};
  return true;
}

// --- Layer-cache entry ------------------------------------------------------

inline void encode_layer_entry(Writer& w, StateId x,
                               const std::vector<StateId>& succ) {
  w.u32(x);
  w.u32(static_cast<std::uint32_t>(succ.size()));
  for (StateId y : succ) w.u32(y);
}

inline bool decode_layer_entry(Reader& r, StateId* x,
                               std::vector<StateId>* succ) {
  std::uint32_t len = 0;
  if (!r.u32(x) || !r.u32(&len) || len > r.remaining() / 4) return false;
  succ->resize(len);
  for (StateId& y : *succ) {
    if (!r.u32(&y)) return false;
  }
  return true;
}

// --- Valence-memo block: i32 horizon, u32 mode, u64 count, 12-byte entries.
// Decoding enforces what a packed memo word holds (FORMATS.md §1.7).

inline constexpr std::uint32_t kMemoV0 = 1u << 0;
inline constexpr std::uint32_t kMemoV1 = 1u << 1;
inline constexpr std::uint32_t kMemoExact = 1u << 2;
inline constexpr std::uint32_t kMemoDeep = 1u << 3;
inline constexpr std::size_t kMemoEntryBytes = 12;

inline bool decode_memo_header(Reader& r, std::int32_t* horizon,
                               std::uint32_t* mode, std::uint64_t* count) {
  return r.i32(horizon) && r.u32(mode) && r.u64(count) && *horizon >= 0 &&
         *mode <= 1 && *count <= r.remaining() / kMemoEntryBytes;
}

inline void encode_memo_entry(Writer& w, const ValenceEngine::MemoEntry& e) {
  w.u32(e.x);
  w.i32(e.lookahead);
  std::uint32_t flags = 0;
  if (e.v0) flags |= kMemoV0;
  if (e.v1) flags |= kMemoV1;
  if (e.exact) flags |= kMemoExact;
  if (e.deep) flags |= kMemoDeep;
  w.u32(flags);
}

// `horizon` and `mode` are the block header's.
inline bool decode_memo_entry(Reader& r, std::int32_t horizon,
                              std::uint32_t mode, ValenceEngine::MemoEntry* e) {
  std::uint32_t flags = 0;
  if (!r.u32(&e->x) || !r.i32(&e->lookahead) || !r.u32(&flags) ||
      (flags & ~(kMemoV0 | kMemoV1 | kMemoExact | kMemoDeep))) {
    return false;
  }
  e->v0 = (flags & kMemoV0) != 0;
  e->v1 = (flags & kMemoV1) != 0;
  e->exact = (flags & kMemoExact) != 0;
  e->deep = (flags & kMemoDeep) != 0;
  return (!e->deep || mode == 1) && e->lookahead >= 0 &&
         e->lookahead <= std::int64_t{horizon} + (e->deep ? 1 : 0);
}

// --- Lemma fact (24 bytes: u64 sig_hi, u64 sig_lo, i32 lookahead, u32
// flags). Files written by earlier builds carry them; no build writes them
// now, and readers check and drop them (FORMATS.md §1.9).

inline constexpr std::uint32_t kLemmaV0 = 1u << 0;
inline constexpr std::uint32_t kLemmaV1 = 1u << 1;
inline constexpr std::size_t kLemmaEntryBytes = 24;

// Reads one fact and checks what its writer guaranteed: a lookahead >= 0
// and no flag bit outside kLemmaV0 | kLemmaV1.
inline bool skip_lemma_entry(Reader& r) {
  std::int32_t lookahead = 0;
  std::uint32_t flags = 0;
  return r.skip(16) && r.i32(&lookahead) && r.u32(&flags) && lookahead >= 0 &&
         (flags & ~(kLemmaV0 | kLemmaV1)) == 0;
}

// --- Fingerprint row (u32 id + u32 pad keeps the u64 hashes 8-aligned) ------

inline void encode_fingerprint_row(Writer& w, StateId x,
                                   const std::uint64_t* row, int n) {
  w.u32(x);
  w.u32(0);
  for (int j = 0; j < n; ++j) w.u64(row[static_cast<std::size_t>(j)]);
}

inline bool decode_fingerprint_row(Reader& r, int n, StateId* x,
                                   std::uint64_t* row) {
  std::uint32_t pad = 0;
  if (!r.u32(x) || !r.u32(&pad)) return false;
  for (int j = 0; j < n; ++j) {
    if (!r.u64(&row[static_cast<std::size_t>(j)])) return false;
  }
  return true;
}

}  // namespace lacon::store::codec
