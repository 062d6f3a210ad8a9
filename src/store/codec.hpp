// The record path both persistent store formats share.
//
// lacon.store.v1 snapshots (store/snapshot.hpp) and lacon.wal.v1 delta logs
// (store/wal.hpp) carry the same five record blocks — views, flat states,
// layer-cache entries, a valence-memo block and fingerprint rows
// (FORMATS.md §1.4–1.8, §2.3); only the framing differs (a sectioned file
// vs an append-only log of record bodies). So both writers encode the
// blocks through the encoders here, and both loaders decode them through
// the block decoders here into one RecordBatch, then restore it with the
// one apply(). Both loaders also read the lemma facts that files written
// by earlier builds carry, and drop them (skip_lemmas).
//
// Everything is little-endian (the host the toolchain targets); a
// big-endian port would swap inside Writer/Reader and nowhere else. The
// Reader is bounds-checked: every getter reports truncation instead of
// walking off the end, so a short or lying file can never make a loader
// read wild memory. The block decoders check every record rule (FORMATS.md
// §1.3, one list for both formats): each count against the bytes left, each
// view's owner, prev and observations, each state's locals against the
// batch's view horizon and its environment by the model's
// env_well_formed, each view and state against the largest pool region an
// arena holds, and each layer, memo and row key against its state horizon. A batch that decoded is safe to apply; a loader applies
// nothing before its whole batch (and, for a snapshot, the digests)
// passed.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/state.hpp"
#include "core/view.hpp"
#include "engine/valence.hpp"
#include "store/snapshot.hpp"  // Result

namespace lacon {
class LayeredModel;
}  // namespace lacon

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
  const std::uint8_t* pos() const noexcept { return p_; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// --- The frame both formats open with (FORMATS.md §1.1, §2.1) -------------
//
// The prelude, an 8-byte magic, the u32 format version, the u32 header
// length and the header's u64 FNV-1a checksum, then the header.

inline constexpr std::size_t kPreludeBytes = 8 + 4 + 4 + 8;

// One format's prelude, and its names in refusal details.
struct Format {
  const char* magic;      // 8 bytes
  std::uint32_t version;  // the one version this build speaks
  const char* file;       // "lacon.store"
  const char* noun;       // "snapshot"
};

inline Result fail(Status status, std::string detail) {
  return Result{status, std::move(detail)};
}

// Appends the prelude that frames `header`, then the header.
void write_frame(Writer& file, const Format& format, const Writer& header);

// Reads `bytes` at `offset` of the file into `out`; false on an IO error.
using ReadAt = std::function<bool(std::uint64_t offset, std::uint8_t* out,
                                  std::size_t bytes)>;

// Reads the header of a file `file_bytes` long into `header`, refusing in
// this order: kTruncated when the file is shorter than the prelude,
// kBadMagic, kBadVersion, kTruncated when the header runs past the end,
// kCorrupt on a header checksum mismatch; kIoError when a read fails.
Result read_frame(const Format& format, const std::string& path,
                  std::uint64_t file_bytes, const ReadAt& read_at,
                  std::vector<std::uint8_t>* header);

// The identity a header records: kModelMismatch unless `name`, `n` and
// `max_faulty` are the model's, then kSymmetryMismatch unless the file was
// written in the model's quotient mode (`symmetry`, 0 off or 1 on).
Result check_identity(const Format& format, const std::string& path,
                      LayeredModel& model, const std::string& name,
                      std::uint32_t n, std::uint32_t max_faulty,
                      std::uint32_t symmetry);

// fsyncs the directory holding `path`, so that a file created or renamed
// there survives a power cut.
Result fsync_parent_dir(const std::string& path);

// --- One record of each kind, for readers that walk a block unchecked ----

// Views a view record (FORMATS.md §1.5) in place, checking only that it
// fits: `obs` points into the reader's buffer, which must outlive it.
// Requires the record to start 4-aligned in memory, as every record of a
// block that does (each is 20 + 8 * obs_count bytes).
inline bool decode_view(Reader& r, ViewRef* v) {
  const std::uint8_t* p = r.view(4 * ViewRef::kHeadLanes);
  if (p == nullptr) return false;
  assert(reinterpret_cast<std::uintptr_t>(p) % alignof(Obs) == 0 &&
         "view records are viewed only from a 4-aligned buffer");
  const auto* lanes = reinterpret_cast<const std::int32_t*>(p);
  const auto obs_count = static_cast<std::uint32_t>(lanes[4]);
  if (obs_count > r.remaining() / sizeof(Obs)) return false;
  r.skip(obs_count * sizeof(Obs));
  *v = ViewRef::at(lanes);
  return true;
}

// Views a state record (FORMATS.md §1.4) in place, checking only that it
// fits: the spans point into the reader's buffer, which must outlive them.
// Requires the record to start 8-aligned in memory; the env words are then
// 8-aligned and both lane arrays 4-aligned, for every n.
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

// --- The decoded batch ------------------------------------------------------

// The records of one snapshot or one log record, decoded and checked. The
// views receive ids base_views.., the states base_states..; ids below the
// bases are already in the target model.
struct RecordBatch {
  std::uint64_t base_views = 0;
  std::uint64_t base_states = 0;
  std::vector<ViewRef> views;              // viewed in the decoded bytes
  std::vector<std::uint64_t> view_hashes;  // ViewArena::content_hash
  std::vector<StateRef> states;            // viewed in the decoded bytes
  std::vector<std::uint64_t> state_hashes;  // StateArena::content_hash
  std::vector<std::pair<StateId, std::vector<StateId>>> layers;
  bool memo_present = false;
  std::int32_t memo_horizon = 0;
  std::uint32_t memo_mode = 0;  // 1 = Exactness::kConvergence
  std::vector<ValenceEngine::MemoEntry> memo;
  std::vector<StateId> row_ids;
  std::vector<std::uint64_t> rows;  // n hashes per entry of row_ids
  // An 8-aligned copy of a state block that did not start 8-aligned (a log
  // record with an odd number of views, FORMATS.md §2.3); `states` view it.
  std::vector<std::uint64_t> aligned;

  std::uint64_t views_end() const noexcept {
    return base_views + views.size();
  }
  std::uint64_t states_end() const noexcept {
    return base_states + states.size();
  }
};

// --- Block decoders. Each reads `count` records of its kind from `r` into
// `batch` and checks each one (see the top of this file); false at the
// first record that is short or breaks a rule. Views go first, then
// states, then the rest: each block checks its references against the
// horizons the blocks before it set.

bool decode_views(Reader& r, std::uint64_t count, int n, RecordBatch* batch);
// Each state's environment must satisfy model.env_well_formed.
bool decode_states(Reader& r, std::uint64_t count, const LayeredModel& model,
                   RecordBatch* batch);
bool decode_layers(Reader& r, std::uint64_t count, RecordBatch* batch);
// A whole memo block (FORMATS.md §1.7): its header carries the count.
bool decode_memo(Reader& r, RecordBatch* batch);
bool decode_rows(Reader& r, std::uint64_t count, int n, RecordBatch* batch);
// Lemma facts from earlier builds (FORMATS.md §1.9): checked, then dropped.
bool skip_lemmas(Reader& r, std::uint64_t count);

// --- Block encoders: the model's views and states with ids in [from, to),
// the given layer entries, `engine`'s header over `memo`, and the published
// rows of `ids`.

void encode_views(Writer& w, const ViewArena& views, std::uint64_t from,
                  std::uint64_t to);
void encode_states(Writer& w, const LayeredModel& model, std::uint64_t from,
                   std::uint64_t to);
void encode_layers(
    Writer& w,
    const std::vector<std::pair<StateId, std::vector<StateId>>>& layers);
void encode_memo(Writer& w, const ValenceEngine& engine,
                 const std::vector<ValenceEngine::MemoEntry>& memo);
void encode_rows(Writer& w, const LayeredModel& model,
                 const std::vector<StateId>& ids);

// --- Apply ------------------------------------------------------------------

// True when `batch` carries a memo block that `engine` takes: same horizon
// and exactness mode.
bool memo_matches(const ValenceEngine* engine, const RecordBatch& batch);

// Restores a decoded batch into `model`, whose counts must equal the
// batch's bases: views, then states, each by stored id, then the layer
// cache, the memo (into `engine` when memo_matches) and the rows. A record
// that does not intern back to its stored id (a duplicate of earlier
// content) is kCorrupt, an allocation failure kIoError; either leaves the
// records before it in the model.
Result apply(LayeredModel& model, ValenceEngine* engine, RecordBatch& batch);

}  // namespace lacon::store::codec
