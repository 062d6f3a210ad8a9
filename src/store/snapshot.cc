#include "store/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "engine/valence.hpp"
#include "runtime/stats.hpp"
#include "store/codec.hpp"

namespace lacon::store {

namespace {

using codec::Reader;
using codec::Writer;
using codec::fail;
using codec::fnv1a;

constexpr codec::Format kStoreFormat{kMagic, kFormatVersion, "lacon.store",
                                     "snapshot"};

// ---------------------------------------------------------------------------
// On-disk structures.

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;  // absolute file offset, 8-aligned
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;  // records in the section (kind-specific)
  std::uint64_t checksum = 0;
};
static_assert(sizeof(SectionEntry) == 40);

struct Header {
  std::uint32_t n = 0;
  std::uint32_t max_faulty = 0;
  std::uint32_t lane_bits = 32;
  std::uint32_t word_bytes = 8;
  std::uint32_t digest_shards = 0;
  std::uint32_t name_len = 0;
  std::uint32_t section_count = 0;
  std::uint32_t symmetry = 0;  // effective quotient mode at save time (0|1)
  std::uint64_t num_views = 0;
  std::uint64_t num_states = 0;
  std::string name;
  std::vector<SectionEntry> sections;
};

// The digest sections fold every record's content hash into
// digest_shards sums, keyed by (hash >> 40) & (digest_shards - 1); save
// writes kDigestShards of them. A flipped payload bit therefore fails two
// independent ways — the section FNV checksum and the digest of the shard
// the record hashes into — and the digests double as a cheap cross-check
// that the decoded records are the content the saver hashed.
// `hash_of(i)` is record i's content hash, for i below `count`.
template <typename HashOf>
std::vector<std::uint64_t> digests(std::uint32_t shards, std::uint64_t count,
                                   HashOf hash_of) {
  std::vector<std::uint64_t> sums(shards, 0);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t h = hash_of(i);
    sums[(h >> 40) & (shards - 1)] += h;
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Header encode / decode.

Writer encode_header(const Header& h) {
  Writer w;
  w.u32(h.n);
  w.u32(h.max_faulty);
  w.u32(h.lane_bits);
  w.u32(h.word_bytes);
  w.u32(h.digest_shards);
  w.u32(h.name_len);
  w.u32(h.section_count);
  w.u32(h.symmetry);
  w.u64(h.num_views);
  w.u64(h.num_states);
  w.raw(h.name.data(), h.name.size());
  w.pad_to_8();
  for (const SectionEntry& e : h.sections) w.raw(&e, sizeof e);
  return w;
}

struct Bytes {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

// Reads the whole file into `buf`. Array-new storage is aligned for every
// fundamental type, so the 8-aligned section offsets stay 8-aligned in
// memory and the state records can be viewed in place (codec::view_state).
Result read_file(const std::string& path, std::unique_ptr<std::byte[]>* buf,
                 Bytes* bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return fail(Status::kIoError, "cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return fail(Status::kIoError, "cannot stat " + path);
  *buf = std::make_unique_for_overwrite<std::byte[]>(
      static_cast<std::size_t>(size));
  in.seekg(0);
  if (size > 0 && !in.read(reinterpret_cast<char*>(buf->get()), size)) {
    return fail(Status::kIoError, "short read on " + path);
  }
  *bytes = {reinterpret_cast<const std::uint8_t*>(buf->get()),
            static_cast<std::size_t>(size)};
  return {};
}

Result parse_header(const Bytes& bytes, const std::string& path, Header* h) {
  std::vector<std::uint8_t> header;
  if (Result r = codec::read_frame(
          kStoreFormat, path, bytes.size,
          [&bytes](std::uint64_t offset, std::uint8_t* out, std::size_t n) {
            std::memcpy(out, bytes.data + offset, n);
            return true;
          },
          &header);
      !r.ok()) {
    return r;
  }

  Reader r(header.data(), header.size());
  bool ok = r.u32(&h->n) && r.u32(&h->max_faulty) && r.u32(&h->lane_bits) &&
            r.u32(&h->word_bytes) && r.u32(&h->digest_shards) &&
            r.u32(&h->name_len) && r.u32(&h->section_count) &&
            r.u32(&h->symmetry) && r.u64(&h->num_views) &&
            r.u64(&h->num_states);
  if (!ok) return fail(Status::kCorrupt, path + ": header body too short");
  if (h->symmetry > 1) {
    return fail(Status::kCorrupt, path + ": unknown symmetry mode");
  }
  if (h->name_len > header.size()) {
    return fail(Status::kCorrupt, path + ": absurd model-name length");
  }
  h->name.resize(h->name_len);
  if (!r.raw(h->name.data(), h->name_len) ||
      !r.skip((8 - (h->name_len % 8)) % 8)) {
    return fail(Status::kCorrupt, path + ": model name extends past header");
  }
  if (h->lane_bits != 32 || h->word_bytes != 8) {
    return fail(Status::kCorrupt, path + ": unsupported word packing");
  }
  if (h->digest_shards == 0 ||
      (h->digest_shards & (h->digest_shards - 1)) != 0) {
    return fail(Status::kCorrupt, path + ": digest shard count not a power of two");
  }
  if (h->section_count > r.remaining() / sizeof(SectionEntry)) {
    return fail(Status::kCorrupt,
                path + ": section table longer than the header");
  }
  h->sections.resize(h->section_count);
  std::uint32_t kinds_seen = 0;
  for (SectionEntry& e : h->sections) {
    if (!r.raw(&e, sizeof e)) {
      return fail(Status::kCorrupt, path + ": section table too short");
    }
    // v1 knows exactly kinds 1..8, each at most once (FORMATS.md §1.3).
    const std::uint32_t bit = e.kind >= 1 && e.kind <= 8 ? 1u << e.kind : 0;
    if (bit == 0 || (kinds_seen & bit) != 0) {
      return fail(Status::kCorrupt,
                  path + ": unknown or repeated section kind " +
                      std::to_string(e.kind));
    }
    kinds_seen |= bit;
    if (e.offset % 8 != 0 || e.offset > bytes.size ||
        e.bytes > bytes.size - e.offset) {
      return fail(Status::kTruncated,
                  path + ": section " + std::to_string(e.kind) +
                      " extends past EOF");
    }
  }
  return {};
}

const SectionEntry* find_section(const Header& h, SectionKind kind) {
  for (const SectionEntry& e : h.sections) {
    if (e.kind == static_cast<std::uint32_t>(kind)) return &e;
  }
  return nullptr;
}

SnapshotMeta meta_of(const Header& h, std::uint64_t file_bytes) {
  SnapshotMeta meta;
  meta.model_name = h.name;
  meta.n = static_cast<int>(h.n);
  meta.max_faulty = static_cast<int>(h.max_faulty);
  meta.num_views = h.num_views;
  meta.num_states = h.num_states;
  meta.file_bytes = file_bytes;
  if (const auto* e = find_section(h, SectionKind::kLayerCache)) {
    meta.layer_entries = e->count;
  }
  if (const auto* e = find_section(h, SectionKind::kValenceMemo)) {
    meta.memo_entries = e->count;
  }
  if (const auto* e = find_section(h, SectionKind::kFingerprints)) {
    meta.fingerprint_rows = e->count;
  }
  meta.symmetry = h.symmetry == 1;
  return meta;
}

Result checksum_section(const Bytes& bytes, const std::string& path,
                        const SectionEntry& e) {
  if (fnv1a(bytes.data + e.offset, e.bytes) != e.checksum) {
    return fail(Status::kCorrupt, path + ": section " + std::to_string(e.kind) +
                                      " checksum mismatch");
  }
  return {};
}

// Durable tmp+rename: write, fsync the tmp file, rename over the target,
// fsync the parent directory so the rename itself survives a power cut.
// Plain ofstream+rename only survives process crashes, not power failures —
// the WAL's whole point is to remove that caveat, so the snapshot the WAL
// compacts into must hold to the same standard.
Result write_file_durably(const std::string& path, const std::uint8_t* data,
                          std::size_t bytes) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);

  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return fail(Status::kIoError,
                "cannot write " + tmp + ": " + std::strerror(errno));
  }
  std::size_t left = bytes;
  const std::uint8_t* p = data;
  while (left > 0) {
    const ssize_t put = ::write(fd, p, left);
    if (put < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return fail(Status::kIoError,
                  "cannot write " + tmp + ": " + std::strerror(errno));
    }
    p += put;
    left -= static_cast<std::size_t>(put);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return fail(Status::kIoError,
                "cannot fsync " + tmp + ": " + std::strerror(errno));
  }
  ::close(fd);

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return fail(Status::kIoError, "cannot rename " + tmp + " -> " + path);
  }

  return codec::fsync_parent_dir(path);
}

}  // namespace

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kIoError:
      return "io-error";
    case Status::kTruncated:
      return "truncated";
    case Status::kBadMagic:
      return "bad-magic";
    case Status::kBadVersion:
      return "bad-version";
    case Status::kCorrupt:
      return "corrupt";
    case Status::kModelMismatch:
      return "model-mismatch";
    case Status::kNotEmpty:
      return "not-empty";
    case Status::kSymmetryMismatch:
      return "symmetry-mismatch";
  }
  return "?";
}

Result save(LayeredModel& model, const std::string& path,
            ValenceEngine* engine, SnapshotMeta* meta) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("store.save_time"));

  const std::uint32_t digest_shards = kDigestShards;

  // Capture the id horizons ONCE, states before views: with S read first,
  // every view a state < S references exists (< V) even if interning races
  // this save, and every id below a count is written. All sections are
  // filtered against the captured horizons so the file is internally
  // consistent regardless of concurrent growth.
  const std::uint64_t num_states = model.num_states();
  const std::uint64_t num_views = model.num_views();

  Header h;
  h.n = static_cast<std::uint32_t>(model.n());
  h.max_faulty = static_cast<std::uint32_t>(model.max_faulty());
  h.digest_shards = digest_shards;
  h.name = model.name();
  h.name_len = static_cast<std::uint32_t>(h.name.size());
  h.symmetry = model.sym_quotient_active() ? 1 : 0;
  h.num_views = num_views;
  h.num_states = num_states;

  // Cache entries referencing states past the captured horizon wait for the
  // next save; they would otherwise dangle for a loader that only knows
  // num_states ids.
  std::vector<std::pair<StateId, std::vector<StateId>>> layers;
  for (auto& [x, succ] : model.export_layer_cache()) {
    if (static_cast<std::uint64_t>(x) >= num_states) continue;
    bool in_range = true;
    for (StateId y : succ) {
      in_range = in_range && static_cast<std::uint64_t>(y) < num_states;
    }
    if (in_range) layers.emplace_back(x, std::move(succ));
  }
  std::vector<StateId> rows;
  for (std::uint64_t id = 0; id < num_states; ++id) {
    if (model.cached_fingerprint_row(static_cast<StateId>(id)) != nullptr) {
      rows.push_back(static_cast<StateId>(id));
    }
  }

  Writer payload;
  std::vector<SectionEntry> table;
  // Appends one section whose payload `encode` writes.
  const auto add = [&](SectionKind kind, std::uint64_t count, auto encode) {
    Writer body;
    encode(body);
    payload.pad_to_8();
    SectionEntry e;
    e.kind = static_cast<std::uint32_t>(kind);
    e.offset = payload.size();  // made absolute once the header size is known
    e.bytes = body.size();
    e.count = count;
    e.checksum = fnv1a(body.data(), body.size());
    table.push_back(e);
    payload.raw(body.data(), body.size());
  };
  add(SectionKind::kViews, num_views, [&](Writer& w) {
    codec::encode_views(w, model.views(), 0, num_views);
  });
  add(SectionKind::kStates, num_states, [&](Writer& w) {
    codec::encode_states(w, model, 0, num_states);
  });
  const std::vector<std::uint64_t> state_sums =
      digests(digest_shards, num_states, [&](std::uint64_t id) {
        return StateArena::content_hash(model.state(static_cast<StateId>(id)));
      });
  const std::vector<std::uint64_t> view_sums =
      digests(digest_shards, num_views, [&](std::uint64_t id) {
        return ViewArena::content_hash(
            model.views().node(static_cast<ViewId>(id)));
      });
  for (const auto& [kind, sums] :
       {std::pair{SectionKind::kStateDigests, &state_sums},
        std::pair{SectionKind::kViewDigests, &view_sums}}) {
    add(kind, digest_shards,
        [&](Writer& w) { w.raw(sums->data(), 8 * sums->size()); });
  }
  add(SectionKind::kLayerCache, layers.size(),
      [&](Writer& w) { codec::encode_layers(w, layers); });
  if (engine != nullptr) {
    auto memo = engine->export_memo();
    memo.erase(std::remove_if(memo.begin(), memo.end(),
                              [num_states](const auto& e) {
                                return static_cast<std::uint64_t>(e.x) >=
                                       num_states;
                              }),
               memo.end());
    add(SectionKind::kValenceMemo, memo.size(),
        [&](Writer& w) { codec::encode_memo(w, *engine, memo); });
  }
  add(SectionKind::kFingerprints, rows.size(),
      [&](Writer& w) { codec::encode_rows(w, model, rows); });

  // Two passes over the header: encode once with payload-relative offsets to
  // learn its size, then rebase the offsets to absolute and re-encode.
  h.section_count = static_cast<std::uint32_t>(table.size());
  h.sections = table;
  const std::size_t header_bytes = encode_header(h).size();
  const std::size_t payload_base = codec::kPreludeBytes + header_bytes;
  for (SectionEntry& e : h.sections) e.offset += payload_base;
  Writer header = encode_header(h);

  Writer file;
  codec::write_frame(file, kStoreFormat, header);
  file.raw(payload.data(), payload.size());

  if (Result r = write_file_durably(path, file.data(), file.size());
      !r.ok()) {
    return r;
  }
  stats.counter("store.bytes_written").add(file.size());
  stats.counter("store.snapshots_saved").increment();
  if (meta != nullptr) *meta = meta_of(h, file.size());
  return {};
}

Result load(LayeredModel& model, const std::string& path,
            ValenceEngine* engine, SnapshotMeta* meta) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("store.load_time"));

  std::unique_ptr<std::byte[]> file;
  Bytes bytes;
  if (Result r = read_file(path, &file, &bytes); !r.ok()) return r;
  Header h;
  if (Result r = parse_header(bytes, path, &h); !r.ok()) return r;

  if (Result r = codec::check_identity(kStoreFormat, path, model, h.name, h.n,
                                       h.max_faulty, h.symmetry);
      !r.ok()) {
    return r;
  }
  if (model.num_states() != 0 || model.num_views() != 0) {
    return fail(Status::kNotEmpty,
                path + ": load target has already interned content");
  }

  const SectionEntry* sdig_sec = find_section(h, SectionKind::kStateDigests);
  const SectionEntry* vdig_sec = find_section(h, SectionKind::kViewDigests);
  if (find_section(h, SectionKind::kViews) == nullptr ||
      find_section(h, SectionKind::kStates) == nullptr || sdig_sec == nullptr ||
      vdig_sec == nullptr) {
    return fail(Status::kCorrupt, path + ": mandatory section missing");
  }
  for (const SectionEntry& e : h.sections) {
    if (Result r = checksum_section(bytes, path, e); !r.ok()) return r;
  }
  if (sdig_sec->count != h.digest_shards ||
      vdig_sec->count != h.digest_shards ||
      sdig_sec->bytes != 8ULL * h.digest_shards ||
      vdig_sec->bytes != 8ULL * h.digest_shards) {
    return fail(Status::kCorrupt,
                path + ": digest section size disagrees with the shard count");
  }

  // Decode and check every section before anything is restored, so a
  // refused file leaves the target empty. Each section holds exactly its
  // `count` records.
  const int n = model.n();
  codec::RecordBatch batch;
  const char* bad = nullptr;
  const auto section = [&](SectionKind kind, const char* what, auto decode) {
    const SectionEntry* e = find_section(h, kind);
    if (bad != nullptr || e == nullptr) return;
    Reader r(bytes.data + e->offset, e->bytes);
    if (!decode(r, e->count) || r.remaining() != 0) bad = what;
  };
  section(SectionKind::kViews, "view", [&](Reader& r, std::uint64_t count) {
    return codec::decode_views(r, count, n, &batch);
  });
  section(SectionKind::kStates, "state", [&](Reader& r, std::uint64_t count) {
    return codec::decode_states(r, count, model, &batch);
  });
  section(SectionKind::kLayerCache, "layer-cache",
          [&](Reader& r, std::uint64_t count) {
            return codec::decode_layers(r, count, &batch);
          });
  section(SectionKind::kValenceMemo, "valence-memo",
          [&](Reader& r, std::uint64_t count) {
            return codec::decode_memo(r, &batch) && batch.memo.size() == count;
          });
  section(SectionKind::kFingerprints, "fingerprint",
          [&](Reader& r, std::uint64_t count) {
            return codec::decode_rows(r, count, n, &batch);
          });
  // Lemma facts from an earlier build: checked, then dropped.
  section(SectionKind::kLemmas, "lemma", [&](Reader& r, std::uint64_t count) {
    return codec::skip_lemmas(r, count);
  });
  if (bad != nullptr) {
    return fail(Status::kCorrupt, path + ": " + bad + " section malformed");
  }
  for (const auto& [sec, hashes, what] :
       {std::tuple{vdig_sec, &batch.view_hashes, "view"},
        std::tuple{sdig_sec, &batch.state_hashes, "state"}}) {
    const std::vector<std::uint64_t> sums =
        digests(h.digest_shards, hashes->size(),
                [hashes](std::uint64_t i) { return (*hashes)[i]; });
    if (std::memcmp(bytes.data + sec->offset, sums.data(), sec->bytes) != 0) {
      return fail(Status::kCorrupt, path + ": " + what + " digest mismatch");
    }
  }

  const bool memo_in = codec::memo_matches(engine, batch);
  const std::size_t layers = batch.layers.size(), memo = batch.memo.size(),
                    rows = batch.row_ids.size();
  if (Result r = codec::apply(model, engine, batch); !r.ok()) {
    return fail(r.status, path + ": " + r.detail);
  }
  stats.counter("store.layers_loaded").add(layers);
  stats.counter(memo_in ? "store.memo_loaded" : "store.memo_skipped").add(memo);
  stats.counter("store.fingerprints_loaded").add(rows);
  if (const SectionEntry* e = find_section(h, SectionKind::kLemmas)) {
    stats.counter("store.lemmas_skipped").add(e->count);
  }
  stats.counter("store.bytes_read").add(bytes.size);
  stats.counter("store.snapshots_loaded").increment();
  if (meta != nullptr) *meta = meta_of(h, bytes.size);
  return {};
}

}  // namespace lacon::store
