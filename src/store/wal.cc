#include "store/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "engine/valence.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"
#include "store/codec.hpp"

namespace lacon::store {

namespace {

using codec::Reader;
using codec::Writer;
using codec::fnv1a;

constexpr std::size_t kWalPreludeBytes = 8 + 4 + 4 + 8;
constexpr std::size_t kWalFrameBytes = 4 + 4 + 8 + 8;
// Floor for should_compact: a near-empty snapshot must not force a
// compaction cycle after every record.
constexpr std::uint64_t kCompactFloorBytes = 64 * 1024;

Result fail(Status status, std::string detail) {
  return Result{status, std::move(detail)};
}

Result fsync_parent_dir(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return fail(Status::kIoError, "cannot open dir " + dir);
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) return fail(Status::kIoError, "cannot fsync dir " + dir);
  return {};
}

bool pread_all(int fd, std::uint8_t* out, std::size_t bytes,
               std::uint64_t offset) {
  while (bytes > 0) {
    const ssize_t got = ::pread(fd, out, bytes, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // short file
    out += got;
    bytes -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

// One fully-decoded record, validated before anything is applied: a record
// that fails half-way through decoding must not leave the model half-ahead
// of the durability watermark.
struct DecodedRecord {
  std::uint64_t seq = 0;
  std::uint64_t base_views = 0;
  std::uint64_t new_views = 0;
  std::uint64_t base_states = 0;
  std::uint64_t new_states = 0;
  std::vector<ViewNode> views;
  std::vector<GlobalState> states;
  std::vector<std::pair<StateId, std::vector<StateId>>> layers;
  bool memo_present = false;
  std::int32_t memo_horizon = 0;
  std::uint32_t memo_mode = 0;
  std::vector<ValenceEngine::MemoEntry> memo;
  std::vector<std::pair<StateId, std::vector<std::uint64_t>>> fingerprints;
};

// Decodes and semantically validates one record body. Returns false on any
// malformation — the caller treats that as a torn tail.
bool decode_record(const std::uint8_t* body, std::size_t bytes, int n,
                   DecodedRecord* rec) {
  Reader r(body, bytes);
  if (!r.u64(&rec->seq) || !r.u64(&rec->base_views) ||
      !r.u64(&rec->new_views) || !r.u64(&rec->base_states) ||
      !r.u64(&rec->new_states)) {
    return false;
  }
  if (rec->new_views > r.remaining() / 4 ||
      rec->new_states > r.remaining() / 4) {
    return false;
  }

  rec->views.resize(static_cast<std::size_t>(rec->new_views));
  for (std::uint64_t i = 0; i < rec->new_views; ++i) {
    ViewNode& v = rec->views[static_cast<std::size_t>(i)];
    if (!codec::decode_view(r, &v)) return false;
    const std::uint64_t id = rec->base_views + i;
    if (v.owner < 0 || v.owner >= n ||
        (v.prev != kNoView && static_cast<std::uint64_t>(v.prev) >= id)) {
      return false;
    }
  }

  const std::uint64_t views_end = rec->base_views + rec->new_views;
  rec->states.resize(static_cast<std::size_t>(rec->new_states));
  for (std::uint64_t i = 0; i < rec->new_states; ++i) {
    GlobalState& s = rec->states[static_cast<std::size_t>(i)];
    if (!codec::decode_state(r, n, &s)) return false;
    for (ViewId v : s.locals) {
      if (v < 0 || static_cast<std::uint64_t>(v) >= views_end) return false;
    }
  }

  const std::uint64_t states_end = rec->base_states + rec->new_states;
  std::uint64_t layer_count = 0;
  if (!r.u64(&layer_count) || layer_count > r.remaining() / 8) return false;
  rec->layers.resize(static_cast<std::size_t>(layer_count));
  for (auto& [x, succ] : rec->layers) {
    if (!codec::decode_layer_entry(r, &x, &succ) || x >= states_end) {
      return false;
    }
    for (StateId y : succ) {
      if (y >= states_end) return false;
    }
  }

  std::uint32_t memo_present = 0, reserved = 0;
  if (!r.u32(&memo_present) || !r.u32(&reserved) || memo_present > 1) {
    return false;
  }
  rec->memo_present = memo_present != 0;
  if (rec->memo_present) {
    std::uint64_t memo_count = 0;
    if (!codec::decode_memo_header(r, &rec->memo_horizon, &rec->memo_mode,
                                   &memo_count)) {
      return false;
    }
    rec->memo.resize(static_cast<std::size_t>(memo_count));
    for (ValenceEngine::MemoEntry& e : rec->memo) {
      if (!codec::decode_memo_entry(r, rec->memo_horizon, rec->memo_mode,
                                    &e) ||
          e.x >= states_end) {
        return false;
      }
    }
  }

  std::uint64_t fp_count = 0;
  const std::size_t fp_record_bytes = 8 + 8 * static_cast<std::size_t>(n);
  if (!r.u64(&fp_count) || fp_count > r.remaining() / fp_record_bytes) {
    return false;
  }
  rec->fingerprints.resize(static_cast<std::size_t>(fp_count));
  for (auto& [x, row] : rec->fingerprints) {
    row.resize(static_cast<std::size_t>(n));
    if (!codec::decode_fingerprint_row(r, n, &x, row.data()) ||
        x >= states_end) {
      return false;
    }
  }

  // Lemma block: written by earlier builds, checked and dropped. Records
  // without one end here, with only zero padding (< 8 bytes) remaining.
  if (r.remaining() >= 8) {
    std::uint64_t lemma_count = 0;
    if (!r.u64(&lemma_count) ||
        lemma_count > r.remaining() / codec::kLemmaEntryBytes) {
      return false;
    }
    for (std::uint64_t i = 0; i < lemma_count; ++i) {
      if (!codec::skip_lemma_entry(r)) return false;
    }
  }

  // Anything left is zero padding to the 8-byte boundary.
  return r.remaining() < 8;
}

}  // namespace

Wal::~Wal() { close(); }

void Wal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result Wal::write_and_sync(const std::uint8_t* data, std::size_t bytes,
                           std::uint64_t at_offset) {
  std::uint64_t offset = at_offset;
  std::size_t left = bytes;
  while (left > 0) {
    const ssize_t put =
        ::pwrite(fd_, data, left, static_cast<off_t>(offset));
    if (put < 0) {
      if (errno == EINTR) continue;
      // Roll back to the previous record boundary: a failed append must
      // never leave a torn record in the middle of the log.
      ::ftruncate(fd_, static_cast<off_t>(at_offset));
      return fail(Status::kIoError,
                  path_ + ": write failed: " + std::strerror(errno));
    }
    data += put;
    left -= static_cast<std::size_t>(put);
    offset += static_cast<std::uint64_t>(put);
  }
  if (::fsync(fd_) != 0) {
    ::ftruncate(fd_, static_cast<off_t>(at_offset));
    return fail(Status::kIoError,
                path_ + ": fsync failed: " + std::strerror(errno));
  }
  return {};
}

Result Wal::open(LayeredModel& model, const std::string& path) {
  close();
  path_ = path;
  const std::uint32_t want_symmetry = model.sym_quotient_active() ? 1 : 0;

  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);

  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return fail(Status::kIoError,
                "cannot open " + path + ": " + std::strerror(errno));
  }

  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    close();
    return fail(Status::kIoError, "cannot stat " + path);
  }
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(st.st_size);

  if (file_bytes == 0) {
    // Fresh log: write the identity header and make the file itself
    // durable (data, then the directory entry).
    Writer body;
    body.u32(static_cast<std::uint32_t>(model.n()));
    body.u32(static_cast<std::uint32_t>(model.max_faulty()));
    const std::string name = model.name();
    body.u32(static_cast<std::uint32_t>(name.size()));
    body.u32(want_symmetry);
    body.raw(name.data(), name.size());
    body.pad_to_8();

    Writer file;
    file.raw(kWalMagic, sizeof kWalMagic);
    file.u32(kWalFormatVersion);
    file.u32(static_cast<std::uint32_t>(body.size()));
    file.u64(fnv1a(body.data(), body.size()));
    file.raw(body.data(), body.size());

    if (Result r = write_and_sync(file.data(), file.size(), 0); !r.ok()) {
      close();
      return r;
    }
    if (Result r = fsync_parent_dir(path); !r.ok()) {
      close();
      return r;
    }
    header_end_ = file.size();
    log_end_ = header_end_;
    seq_ = 0;
    return {};
  }

  // Existing log: the header must parse and match the model. Header damage
  // is a typed error (unlike record damage, which replay truncates away) —
  // with no trustworthy identity the whole file is suspect.
  if (file_bytes < kWalPreludeBytes) {
    close();
    return fail(Status::kTruncated, path + ": shorter than the prelude");
  }
  std::uint8_t prelude[kWalPreludeBytes];
  if (!pread_all(fd_, prelude, sizeof prelude, 0)) {
    close();
    return fail(Status::kIoError, "cannot read " + path);
  }
  if (std::memcmp(prelude, kWalMagic, sizeof kWalMagic) != 0) {
    close();
    return fail(Status::kBadMagic, path + ": not a lacon.wal file");
  }
  Reader pre(prelude + sizeof kWalMagic, sizeof prelude - sizeof kWalMagic);
  std::uint32_t version = 0, header_bytes = 0;
  std::uint64_t header_checksum = 0;
  pre.u32(&version);
  pre.u32(&header_bytes);
  pre.u64(&header_checksum);
  if (version != kWalFormatVersion) {
    close();
    return fail(Status::kBadVersion,
                path + ": wal format version " + std::to_string(version) +
                    " (this build speaks only v" +
                    std::to_string(kWalFormatVersion) + ")");
  }
  if (file_bytes < kWalPreludeBytes + header_bytes) {
    close();
    return fail(Status::kTruncated, path + ": header extends past EOF");
  }
  std::vector<std::uint8_t> header(header_bytes);
  if (!pread_all(fd_, header.data(), header.size(), kWalPreludeBytes)) {
    close();
    return fail(Status::kIoError, "cannot read " + path);
  }
  if (fnv1a(header.data(), header.size()) != header_checksum) {
    close();
    return fail(Status::kCorrupt, path + ": header checksum mismatch");
  }
  Reader r(header.data(), header.size());
  std::uint32_t n = 0, max_faulty = 0, name_len = 0, symmetry = 0;
  if (!r.u32(&n) || !r.u32(&max_faulty) || !r.u32(&name_len) ||
      !r.u32(&symmetry) || symmetry > 1 || name_len > r.remaining()) {
    close();
    return fail(Status::kCorrupt, path + ": header body too short");
  }
  std::string name(name_len, '\0');
  r.raw(name.data(), name_len);
  if (name != model.name() || n != static_cast<std::uint32_t>(model.n()) ||
      max_faulty != static_cast<std::uint32_t>(model.max_faulty())) {
    close();
    return fail(Status::kModelMismatch,
                path + ": wal is " + name + " n=" + std::to_string(n) +
                    " t=" + std::to_string(max_faulty) + ", target is " +
                    model.name() + " n=" + std::to_string(model.n()) +
                    " t=" + std::to_string(model.max_faulty()));
  }
  if (symmetry != want_symmetry) {
    close();
    return fail(Status::kSymmetryMismatch,
                path + ": wal written with the orbit quotient " +
                    (symmetry != 0 ? "on" : "off") + ", target model runs it " +
                    (want_symmetry != 0 ? "on" : "off") + " (LACON_SYMMETRY)");
  }

  header_end_ = kWalPreludeBytes + header_bytes;
  log_end_ = file_bytes;  // replay() walks the records and trims the tail
  seq_ = 0;
  return {};
}

Result Wal::replay(LayeredModel& model, ValenceEngine* engine,
                   WalReplayStats* stats_out) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("wal.replay_time"));
  LACON_TRACE_SPAN_ARG("store", "wal_replay", log_end_ - header_end_);

  WalReplayStats rs;
  if (fd_ < 0) return fail(Status::kIoError, "wal not open");

  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(log_end_ - header_end_));
  if (!bytes.empty() &&
      !pread_all(fd_, bytes.data(), bytes.size(), header_end_)) {
    return fail(Status::kIoError, "cannot read " + path_);
  }

  const int n = model.n();
  std::size_t offset = 0;  // relative to header_end_
  Result applied_error;
  while (offset < bytes.size()) {
    // Frame.
    bool valid = bytes.size() - offset >= kWalFrameBytes;
    std::uint64_t body_bytes = 0;
    const std::uint8_t* body = nullptr;
    if (valid) {
      Reader fr(bytes.data() + offset, kWalFrameBytes);
      std::uint32_t magic = 0, reserved = 0;
      std::uint64_t checksum = 0;
      fr.u32(&magic);
      fr.u32(&reserved);
      fr.u64(&body_bytes);
      fr.u64(&checksum);
      body = bytes.data() + offset + kWalFrameBytes;
      valid = magic == kWalRecordMagic && body_bytes % 8 == 0 &&
              body_bytes <= bytes.size() - offset - kWalFrameBytes &&
              fnv1a(body, static_cast<std::size_t>(body_bytes)) == checksum;
    }

    // Body: decode and validate in full before touching the model.
    DecodedRecord rec;
    if (valid) {
      valid = decode_record(body, static_cast<std::size_t>(body_bytes), n,
                            &rec);
    }

    bool skip = false;
    if (valid) {
      const std::uint64_t cur_views = model.num_views();
      const std::uint64_t cur_states = model.num_states();
      if (rec.base_views == cur_views && rec.base_states == cur_states) {
        skip = false;  // applies to exactly this model state
      } else if (rec.base_views + rec.new_views <= cur_views &&
                 rec.base_states + rec.new_states <= cur_states) {
        // Fully covered by the snapshot we recovered over (saved after this
        // record was logged, crash before the log was reset).
        skip = true;
      } else {
        valid = false;  // stale/foreign record: cut it and everything after
      }
    }

    if (!valid) {
      rs.truncated_bytes = log_end_ - header_end_ - offset;
      const std::uint64_t new_end = header_end_ + offset;
      if (::ftruncate(fd_, static_cast<off_t>(new_end)) != 0 ||
          ::fsync(fd_) != 0) {
        return fail(Status::kIoError, "cannot truncate torn tail of " + path_);
      }
      log_end_ = new_end;
      break;
    }

    if (skip) {
      ++rs.records_skipped;
    } else {
      try {
        for (std::uint64_t i = 0; i < rec.new_views; ++i) {
          const ViewId got = model.views().restore(
              std::move(rec.views[static_cast<std::size_t>(i)]));
          if (static_cast<std::uint64_t>(got) != rec.base_views + i) {
            return fail(Status::kCorrupt,
                        path_ + ": view replay diverged at id " +
                            std::to_string(rec.base_views + i));
          }
        }
        for (std::uint64_t i = 0; i < rec.new_states; ++i) {
          const StateRef s = rec.states[static_cast<std::size_t>(i)];
          const StateId got =
              model.restore_state(s, StateArena::content_hash(s));
          if (static_cast<std::uint64_t>(got) != rec.base_states + i) {
            return fail(Status::kCorrupt,
                        path_ + ": state replay diverged at id " +
                            std::to_string(rec.base_states + i));
          }
        }
        if (!rec.layers.empty()) {
          model.import_layer_cache(std::move(rec.layers));
        }
        if (rec.memo_present && engine != nullptr &&
            engine->horizon() == rec.memo_horizon &&
            (engine->mode() == Exactness::kConvergence) ==
                (rec.memo_mode == 1)) {
          engine->import_memo(rec.memo);
        }
        for (const auto& [x, row] : rec.fingerprints) {
          model.restore_fingerprint_row(x, row.data());
        }
      } catch (const std::bad_alloc&) {
        // Same contract as snapshot load: the model holds a partial replay
        // and the caller falls back to a cold start.
        return fail(Status::kIoError,
                    path_ + ": allocation failure during replay");
      }
      ++rs.records_applied;
      rs.views_applied += rec.new_views;
      rs.states_applied += rec.new_states;
    }
    seq_ = rec.seq + 1;
    offset += kWalFrameBytes + static_cast<std::size_t>(body_bytes);
  }

  // Everything the model now holds came from durable storage, and the
  // imports above queued nothing: the queues start empty from here.
  begin_epoch(model, model.num_views(), model.num_states(), engine);

  stats.counter("wal.records_replayed").add(rs.records_applied);
  stats.counter("wal.records_skipped").add(rs.records_skipped);
  stats.counter("wal.bytes_replayed").add(log_end_ - header_end_);
  if (rs.truncated_bytes > 0) {
    stats.counter("wal.truncated_bytes").add(rs.truncated_bytes);
    stats.counter("wal.tails_truncated").increment();
  }
  if (stats_out != nullptr) *stats_out = rs;
  return {};
}

Result Wal::append(LayeredModel& model, ValenceEngine* engine) {
  std::vector<ValenceEngine*> engines;
  if (engine != nullptr) engines.push_back(engine);
  return append(model, engines);
}

Result Wal::append(LayeredModel& model,
                   const std::vector<ValenceEngine*>& engines) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("wal.append_time"));
  if (fd_ < 0) return fail(Status::kIoError, "wal not open");

  // States first, then views: with S captured before V, every view a state
  // < S references exists (< V) — same ordering rule the snapshot relies
  // on. Both are settled counts: interning may race this round.
  const auto [settled_states, settled_views] = model.settled_counts();
  const std::uint64_t S = settled_states;
  const std::uint64_t V = settled_views;

  // Drain the queued cache entries. Bounds-filter against S: an entry
  // referencing a state interned after the capture stays queued for the
  // next commit.
  LayeredModel::UnpersistedCaches caches = model.drain_unpersisted(S);
  const auto& layers = caches.layers;
  const auto& fp_ids = caches.fingerprint_rows;

  // One memo batch per distinct engine; a record carries one memo block
  // (with its engine's horizon/mode), so a round touching k engines emits k
  // records — all fsync'd together below.
  std::vector<std::pair<ValenceEngine*, std::vector<ValenceEngine::MemoEntry>>>
      memos;
  for (ValenceEngine* eng : engines) {
    if (eng == nullptr) continue;
    bool seen = false;
    for (const auto& [prev, unused] : memos) seen = seen || prev == eng;
    if (seen) continue;
    std::vector<ValenceEngine::MemoEntry> memo = eng->drain_memo(S);
    if (!memo.empty()) memos.emplace_back(eng, std::move(memo));
  }

  const std::uint64_t new_views = V - persisted_views_;
  const std::uint64_t new_states = S - persisted_states_;
  if (new_views == 0 && new_states == 0 && caches.empty() && memos.empty()) {
    return {};  // nothing interned since the last commit
  }

  // The batch: the first record carries the full delta plus the first
  // engine's memo; each further engine gets a memo-only record whose base
  // counts are the NEW watermarks (zero new views/states), so sequential
  // replay applies them with no special casing.
  const int n = model.n();
  Writer batch;
  std::uint64_t records = 0;
  const auto frame = [&batch, &records](Writer& body) {
    body.pad_to_8();
    batch.u32(kWalRecordMagic);
    batch.u32(0);
    batch.u64(body.size());
    batch.u64(fnv1a(body.data(), body.size()));
    batch.raw(body.data(), body.size());
    ++records;
  };
  const auto memo_block = [](Writer& body, ValenceEngine* eng,
                             const std::vector<ValenceEngine::MemoEntry>& m) {
    body.u32(m.empty() ? 0 : 1);
    body.u32(0);
    if (m.empty()) return;
    body.i32(eng->horizon());
    body.u32(eng->mode() == Exactness::kConvergence ? 1 : 0);
    body.u64(m.size());
    for (const auto& e : m) codec::encode_memo_entry(body, e);
  };

  {
    Writer body;
    body.u64(seq_);
    body.u64(persisted_views_);
    body.u64(new_views);
    body.u64(persisted_states_);
    body.u64(new_states);
    for (std::uint64_t id = persisted_views_; id < V; ++id) {
      codec::encode_view(body, model.views().node(static_cast<ViewId>(id)));
    }
    for (std::uint64_t id = persisted_states_; id < S; ++id) {
      codec::encode_state(body, model.state(static_cast<StateId>(id)));
    }
    body.u64(layers.size());
    for (const auto& [x, succ] : layers) {
      codec::encode_layer_entry(body, x, succ);
    }
    if (memos.empty()) {
      body.u32(0);
      body.u32(0);
    } else {
      memo_block(body, memos.front().first, memos.front().second);
    }
    body.u64(fp_ids.size());
    for (StateId x : fp_ids) {
      codec::encode_fingerprint_row(body, x, model.cached_fingerprint_row(x),
                                    n);
    }
    frame(body);
  }
  for (std::size_t i = 1; i < memos.size(); ++i) {
    Writer body;
    body.u64(seq_ + records);
    body.u64(V);
    body.u64(0);
    body.u64(S);
    body.u64(0);
    body.u64(0);  // no layer entries
    memo_block(body, memos[i].first, memos[i].second);
    body.u64(0);  // no fingerprint rows
    frame(body);
  }

  // One write, one fsync, for the whole round. The watermarks advance only
  // once it is durable; a failed round hands its whole delta back.
  if (Result r = write_and_sync(batch.data(), batch.size(), log_end_);
      !r.ok()) {
    model.requeue(caches);
    for (const auto& [eng, memo] : memos) eng->requeue_memo(memo);
    return r;
  }

  log_end_ += batch.size();
  seq_ += records;
  persisted_views_ = V;
  persisted_states_ = S;

  stats.counter("wal.records_appended").add(records);
  stats.counter("wal.bytes_appended").add(batch.size());
  stats.counter("wal.views_appended").add(new_views);
  stats.counter("wal.states_appended").add(new_states);
  stats.counter("wal.group_commits").increment();
  return {};
}

bool Wal::should_compact(std::uint64_t snapshot_bytes) const noexcept {
  if (fd_ < 0) return false;
  const std::uint64_t floor =
      snapshot_bytes > kCompactFloorBytes ? snapshot_bytes : kCompactFloorBytes;
  return log_bytes() > kWalCompactRatio * floor;
}

Result Wal::reset_to(LayeredModel& model, std::uint64_t num_views,
                     std::uint64_t num_states, ValenceEngine* engine) {
  if (fd_ < 0) return fail(Status::kIoError, "wal not open");
  if (::ftruncate(fd_, static_cast<off_t>(header_end_)) != 0 ||
      ::fsync(fd_) != 0) {
    return fail(Status::kIoError, "cannot reset " + path_);
  }
  log_end_ = header_end_;
  seq_ = 0;
  begin_epoch(model, num_views, num_states, engine);
  runtime::Stats::global().counter("wal.compactions").increment();
  return {};
}

void Wal::begin_epoch(LayeredModel& model, std::uint64_t num_views,
                      std::uint64_t num_states, ValenceEngine* engine) {
  persisted_views_ = num_views;
  persisted_states_ = num_states;
  // The durable horizon may trail the live model (a snapshot races
  // interning): whatever lies at or past it is queued again. Entries still
  // queued stay queued, so nothing inserted after the snapshot's export is
  // lost. Every other engine's memo lived only in the log just reset; it
  // queues in full on that engine's next drain.
  model.begin_log_epoch(num_states);
  if (engine != nullptr) engine->sync_memo(num_states);
}

}  // namespace lacon::store
