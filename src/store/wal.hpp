// lacon.wal.v1 — an append-only write-ahead log of interned-space deltas.
//
// A snapshot (store/snapshot.hpp) captures the whole interned space at one
// quiescent moment; the WAL makes the space *crash-durable between*
// snapshots. After each unit of work that interned new content (for
// `laconrd`, each served request), the owner calls append(): the log gains
// one checksummed, length-prefixed record holding exactly the delta since
// the previous commit — newly interned views and flat state words, newly
// cached layer entries, newly memoized valence entries, newly published
// fingerprint rows — in the same per-record encodings the snapshot sections
// use (store/codec.hpp). The record is fsync'd before append() returns, so
// a `kill -9` (or power cut) after a response was written loses nothing
// that response depended on.
//
// Layout (little-endian, records 8-aligned):
//
//   prelude   magic "LACONWL1" | u32 version=1 | u32 header_bytes
//             | u64 header_checksum (FNV-1a 64 over the header body)
//   header    u32 n, max_faulty, name_len, symmetry
//             | name bytes (zero-padded to 8)
//   records   each: frame {u32 record_magic, u32 reserved,
//                          u64 body_bytes, u64 body_checksum}
//             body  u64 seq
//                   | u64 base_views, new_views, base_states, new_states
//                   | view records | state records
//                   | u64 layer_count | layer entries
//                   | u32 memo_present, reserved
//                     [i32 horizon, u32 mode, u64 memo_count, entries]
//                   | u64 fingerprint_count | fingerprint rows
//                   [| u64 lemma_count | lemma facts]
//             (body zero-padded to 8; body_bytes is the padded length)
//
// The header's `symmetry` word mirrors the snapshot's (store/snapshot.hpp):
// it records the model's effective orbit-quotient mode when the log was
// created, and an existing log whose mode differs from the opening model's
// is refused with kSymmetryMismatch — a quotiented log holds only orbit
// representatives and must never replay into a full-space model (or vice
// versa). Pre-symmetry logs wrote the word as always-zero reserved padding,
// so they open exactly when the quotient is off — the mode they were
// written under. The lemma block is optional: earlier builds ended every
// record with one, this build ends records after the fingerprints (only
// zero padding remains), and replay checks a block it finds and drops it.
//
// Recovery contract (replay): the log is read over a model already holding
// the last full snapshot (or nothing). Records whose base counts match the
// model apply in order; records fully covered by the snapshot (saved after
// they were logged, crash before the log was reset) are skipped. The FIRST
// record that is torn, corrupt, or inconsistent — bad frame, checksum
// mismatch, short body, out-of-range reference — truncates the file back to
// the last valid record and replay returns kOk with the loss accounted in
// WalReplayStats; a torn tail is an expected crash artifact, never an
// error. Only damage to the prelude/header earns a typed failure.
//
// What a record carries: views and states past two count watermarks, plus
// the cache entries the model and its engines queued as unpersisted when
// they inserted or strengthened them (core/model.hpp, engine/valence.hpp).
// append() drains those queues, so a round costs what it writes, and a
// round with nothing queued costs one lock per queue.
// Recording starts at replay() or reset_to(), the two calls that fix what
// is on disk, and covers that model and every engine over the model, later
// ones too.
//
// Compaction: once the log dwarfs the snapshot (should_compact), the owner
// saves a fresh snapshot and calls reset_to(), which truncates the log back
// to its header, sets the count watermarks to what that snapshot covers and
// queues again what it does not hold. Entries queued while the snapshot was
// being written stay queued, so they reach the new log.
//
// A Wal instance is not internally synchronized: callers serialize open/
// replay/append/reset_to. laconrd does this with a per-session store mutex
// (service/protocol.cc): each batch of requests, once its work is done,
// takes the mutex and appends with its own engines. The append drains what
// every request queued before it ran, so deltas that finished while a
// caller waited ride its round, and a caller whose delta an earlier round
// took writes nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "store/snapshot.hpp"  // Status / Result

namespace lacon {
class LayeredModel;
class ValenceEngine;
}  // namespace lacon

namespace lacon::store {

inline constexpr char kWalMagic[8] = {'L', 'A', 'C', 'O', 'N', 'W', 'L', '1'};
inline constexpr std::uint32_t kWalFormatVersion = 1;
inline constexpr std::uint32_t kWalRecordMagic = 0x4352574Cu;  // "LWRC"

// Log-to-snapshot size ratio past which should_compact() asks for a fresh
// snapshot.
inline constexpr std::uint64_t kWalCompactRatio = 8;

// What replay() did: applied records extend the model, skipped records were
// already covered by the snapshot, truncated bytes were cut off a torn or
// corrupt tail (truncation is recovery, not failure).
struct WalReplayStats {
  std::uint64_t records_applied = 0;
  std::uint64_t records_skipped = 0;
  std::uint64_t views_applied = 0;
  std::uint64_t states_applied = 0;
  std::uint64_t truncated_bytes = 0;
};

class Wal {
 public:
  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Opens (creating if absent) the log at `path` for `model`'s identity.
  // A new file gets a fresh fsync'd header; an existing file's header must
  // match the model (name, n, max_faulty, orbit-quotient mode) or the open
  // fails typed — kBadMagic / kBadVersion / kCorrupt / kModelMismatch /
  // kSymmetryMismatch — leaving the file untouched so the caller can
  // quarantine it.
  Result open(LayeredModel& model, const std::string& path);

  // Replays the log over `model` (already snapshot-warm or empty) per the
  // recovery contract above. Everything the model then holds is durable:
  // the watermarks take its counts and recording starts with empty queues
  // (imports queue nothing). Call exactly once, after open() and before the
  // first append(). `engine` receives the memo blocks whose horizon and
  // mode match its own; `stats_out` may be null.
  Result replay(LayeredModel& model, ValenceEngine* engine,
                WalReplayStats* stats_out = nullptr);

  // Batch append: one delta record carrying everything interned past the
  // watermarks, every queued cache entry and the first engine's queued
  // memo entries, then one memo-only record (zero new views/states) per
  // additional engine that memoized anything new — the whole batch written
  // and fsync'd as a SINGLE write, so every request whose delta it drained
  // shares one durability round. Every record is an ordinary v1 record; replay
  // applies them in sequence with no special casing. Nullptr and duplicate
  // engines are tolerated. A no-op (kOk) when nothing new exists. Entries
  // that reference a state interned after the round captured its state
  // count stay queued for the next round. On a failed write or fsync the
  // file is truncated back to the previous record boundary, so a failed
  // append never leaves a torn middle, and the whole drained delta is
  // queued again. Requires replay() or reset_to() first: they start the
  // queues. laconrd calls it once per touched session per batch, with the
  // engines of the batch's requests.
  Result append(LayeredModel& model,
                const std::vector<ValenceEngine*>& engines);

  // True once the live log payload outweighs `snapshot_bytes` by more than
  // kWalCompactRatio (with a 64 KiB floor so tiny snapshots don't force
  // compaction on every record).
  bool should_compact(std::uint64_t snapshot_bytes) const noexcept;

  // After a fresh snapshot of `model` (with `engine`'s memo) was durably
  // saved covering `num_views`/`num_states` (read them off the save's
  // SnapshotMeta, not the live model — interning may have raced the save):
  // truncates the log back to its header, fsyncs, sets the watermarks to
  // those counts and queues what the snapshot does not hold — layer
  // entries and fingerprint rows at or past `num_states`, `engine`'s memo
  // entries at or past it, and (on its next drain) every other engine's
  // whole memo.
  Result reset_to(LayeredModel& model, std::uint64_t num_views,
                  std::uint64_t num_states, ValenceEngine* engine);

  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }

  // Bytes of record payload currently in the log (excludes the header).
  std::uint64_t log_bytes() const noexcept {
    return log_end_ - header_end_;
  }
  std::uint64_t records_appended() const noexcept { return seq_; }

  void close();

 private:
  Result write_and_sync(const std::uint8_t* data, std::size_t bytes,
                        std::uint64_t at_offset);
  // Disk now holds `num_views`/`num_states` and the caches a snapshot of
  // them (with `engine`'s memo) holds: set the watermarks and start a new
  // log epoch of the queues.
  void begin_epoch(LayeredModel& model, std::uint64_t num_views,
                   std::uint64_t num_states, ValenceEngine* engine);

  int fd_ = -1;
  std::string path_;
  std::uint64_t header_end_ = 0;  // file offset where records begin
  std::uint64_t log_end_ = 0;     // file offset past the last valid record
  std::uint64_t seq_ = 0;         // next record sequence number

  // Durability watermarks: views and states below them are on disk
  // (snapshot or log). Cache entries are tracked by the caches' own queues
  // of unpersisted entries; a strengthened memo entry queues again, and
  // replay merges the duplicate strongest-wins.
  std::uint64_t persisted_views_ = 0;
  std::uint64_t persisted_states_ = 0;
};

}  // namespace lacon::store
