// lacon.store.v1 — versioned on-disk snapshots of an interned state space.
//
// A snapshot captures everything a LayeredModel accumulates during analysis
// that is expensive to recompute: the view DAG, the flat state arena, the
// layer cache, published similarity-fingerprint rows, and (optionally) a
// ValenceEngine's memo. Loading into a freshly-constructed model of the same
// identity (name, n, max_faulty) replays views and states in stored-id
// order, so every restored object receives exactly its stored id — env words
// embedding ViewIds, layer-cache keys and memo keys all stay valid, and
// analysis after a warm start is byte-identical to a fresh exploration.
//
// Layout (little-endian, every section 8-aligned):
//
//   prelude   magic "LACONST1" | u32 version=1 | u32 header_bytes
//             | u64 header_checksum (FNV-1a 64 over the header body)
//   header    u32 n, max_faulty, lane_bits=32, word_bytes=8,
//             digest_shards, name_len, section_count, symmetry
//             | u64 num_views, num_states | name bytes (zero-padded to 8)
//             | section table: {u32 kind, u32 reserved,
//                               u64 offset, bytes, count, checksum} ...
//   sections  each FNV-1a-checksummed; kinds in SectionKind below.
//
// The `symmetry` header word records the model's effective quotient mode at
// save time (0 = full space, 1 = LACON_SYMMETRY orbit quotient,
// core/sym.hpp): a quotiented snapshot stores only orbit representatives
// and layer caches over them, so replaying it into a full-space model (or
// vice versa) would silently corrupt every analysis. Mode-mismatched loads
// are rejected with kSymmetryMismatch. The word reuses what v1 wrote as an
// always-zero reserved field, so pre-symmetry snapshots load exactly when
// the quotient is off — which is the mode they were saved under.
//
// Kind 8 (kLemmas) holds lemma facts, which earlier builds wrote and this
// one does not: load() checks such a section's size and entries and drops
// it, so those files load as if it were absent.
//
// Every section starts 8-aligned and every state record is a multiple of 8
// bytes, so load() reads the file into one aligned buffer and views each
// state record in place (codec::view_state) for every n, copying it into
// the arena pool once. load() decodes and checks every section through the
// record path the WAL shares (store/codec.hpp), checks the digests against
// the decoded content, and only then restores anything. FORMATS.md is the
// normative byte-level spec. Corrupt, short, or mismatched files are
// rejected with a typed Status. Files with version != 1 are refused with
// kBadVersion: forward compatibility is explicitly out of scope for v1.
#pragma once

#include <cstdint>
#include <string>

namespace lacon {
class LayeredModel;
class ValenceEngine;
}  // namespace lacon

namespace lacon::store {

inline constexpr char kMagic[8] = {'L', 'A', 'C', 'O', 'N', 'S', 'T', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
// The digest_shards a snapshot is saved with (FORMATS.md §1.6). A loader
// takes any power of two the header names.
inline constexpr std::uint32_t kDigestShards = 64;

enum class SectionKind : std::uint32_t {
  kViews = 1,             // view records in id order
  kStates = 2,            // GlobalState records in id order
  kStateDigests = 3,      // per-digest-shard sums of state content hashes
  kViewDigests = 4,       // per-digest-shard sums of view content hashes
  kLayerCache = 5,        // (state, successor-list) entries
  kValenceMemo = 6,       // ValenceEngine memo entries (+ horizon, mode)
  kFingerprints = 7,      // published erase-one fingerprint rows
  kLemmas = 8,            // lemma facts: read, checked and dropped
};

enum class Status : std::uint8_t {
  kOk = 0,
  kIoError,         // open/read/write/rename failed
  kTruncated,       // file shorter than its own accounting claims
  kBadMagic,        // not a lacon.store file
  kBadVersion,      // a version this build does not speak (only v1)
  kCorrupt,         // checksum, digest or internal-consistency failure
  kModelMismatch,   // snapshot identity != target model identity
  kNotEmpty,        // load target has already interned content
  kSymmetryMismatch,  // file's quotient mode != target model's (LACON_SYMMETRY)
};

const char* to_string(Status status) noexcept;

struct Result {
  Status status = Status::kOk;
  std::string detail;  // human-readable context (path, offending section)

  bool ok() const noexcept { return status == Status::kOk; }
};

// Identity and inventory of a snapshot, as save() wrote it or load() read
// it: the counts are the file's own, not the live model's, which may have
// grown since.
struct SnapshotMeta {
  std::string model_name;
  int n = 0;
  int max_faulty = 0;
  std::uint64_t num_views = 0;
  std::uint64_t num_states = 0;
  std::uint64_t layer_entries = 0;
  std::uint64_t memo_entries = 0;
  std::uint64_t fingerprint_rows = 0;
  std::uint64_t file_bytes = 0;
  bool symmetry = false;  // saved under the orbit quotient
};

// Serializes the model's interned space (and `engine`'s memo, when given) to
// `path`. Writes `path + ".tmp"` and renames, so readers never observe a
// half-written snapshot. Analysis may run while it saves (laconrd compacts
// under other connections' requests): it reads the state count, then the
// view count, once and writes only content below them, and it reads the
// caches lock-free through export_layer_cache and export_memo, so an entry
// inserted meanwhile may or may not be in the file. On success fills `meta`
// (may be null) with what the file holds.
Result save(LayeredModel& model, const std::string& path,
            ValenceEngine* engine = nullptr, SnapshotMeta* meta = nullptr);

// Replays `path` into `model`, which must be freshly constructed (same
// name/n/max_faulty as at save time, nothing interned yet — call load
// *before* initial_states()). When `engine` is given and its horizon and
// exactness mode match the stored memo's, the memo is imported too;
// otherwise the memo section is skipped. On success fills `meta` (may be
// null) with what the file held. A refused file restores nothing, with two
// exceptions met while restoring: an allocation failure (kIoError) and a
// duplicate record whose content interns back to an earlier id (kCorrupt).
// After either the model holds a partial replay and should be discarded.
Result load(LayeredModel& model, const std::string& path,
            ValenceEngine* engine = nullptr, SnapshotMeta* meta = nullptr);

}  // namespace lacon::store
