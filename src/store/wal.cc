#include "store/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
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

constexpr codec::Format kWalFormat{kWalMagic, kWalFormatVersion, "lacon.wal",
                                   "wal"};
constexpr std::size_t kWalFrameBytes = 4 + 4 + 8 + 8;
// Floor for should_compact: a near-empty snapshot must not force a
// compaction cycle after every record.
constexpr std::uint64_t kCompactFloorBytes = 64 * 1024;

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

// Decodes one record body (FORMATS.md §2.3) into `batch` through the
// shared block decoders. False on any malformation, which the caller treats
// as a torn tail: nothing of the record reaches the model.
bool decode_body(const std::uint8_t* body, std::size_t bytes,
                 const LayeredModel& model, std::uint64_t* seq,
                 codec::RecordBatch* batch) {
  const int n = model.n();
  Reader r(body, bytes);
  std::uint64_t new_views = 0, new_states = 0, layers = 0, rows = 0;
  std::uint32_t memo_present = 0, reserved = 0;
  if (!r.u64(seq) || !r.u64(&batch->base_views) || !r.u64(&new_views) ||
      !r.u64(&batch->base_states) || !r.u64(&new_states) ||
      !codec::decode_views(r, new_views, n, batch) ||
      !codec::decode_states(r, new_states, model, batch) || !r.u64(&layers) ||
      !codec::decode_layers(r, layers, batch) || !r.u32(&memo_present) ||
      !r.u32(&reserved) || memo_present > 1 ||
      (memo_present == 1 && !codec::decode_memo(r, batch)) ||
      !r.u64(&rows) || !codec::decode_rows(r, rows, n, batch)) {
    return false;
  }
  // Lemma block: written by earlier builds, checked and dropped. Records
  // without one end here, with only zero padding (< 8 bytes) remaining.
  std::uint64_t lemmas = 0;
  if (r.remaining() >= 8 &&
      (!r.u64(&lemmas) || !codec::skip_lemmas(r, lemmas))) {
    return false;
  }
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
    body.u32(model.sym_quotient_active() ? 1 : 0);
    body.raw(name.data(), name.size());
    body.pad_to_8();

    Writer file;
    codec::write_frame(file, kWalFormat, body);

    if (Result r = write_and_sync(file.data(), file.size(), 0); !r.ok()) {
      close();
      return r;
    }
    if (Result r = codec::fsync_parent_dir(path); !r.ok()) {
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
  std::vector<std::uint8_t> header;
  if (Result r = codec::read_frame(
          kWalFormat, path, file_bytes,
          [this](std::uint64_t offset, std::uint8_t* out, std::size_t bytes) {
            return pread_all(fd_, out, bytes, offset);
          },
          &header);
      !r.ok()) {
    close();
    return r;
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
  if (Result id = codec::check_identity(kWalFormat, path, model, name, n,
                                        max_faulty, symmetry);
      !id.ok()) {
    close();
    return id;
  }

  header_end_ = codec::kPreludeBytes + header.size();
  log_end_ = file_bytes;  // replay() walks the records and trims the tail
  seq_ = 0;
  return {};
}

Result Wal::replay(LayeredModel& model, ValenceEngine* engine,
                   WalReplayStats* stats_out) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("wal.replay_time"));

  WalReplayStats rs;
  if (fd_ < 0) return fail(Status::kIoError, "wal not open");

  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(log_end_ - header_end_));
  if (!bytes.empty() &&
      !pread_all(fd_, bytes.data(), bytes.size(), header_end_)) {
    return fail(Status::kIoError, "cannot read " + path_);
  }

  std::size_t offset = 0;  // relative to header_end_
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

    // Body: decode and check in full before touching the model.
    codec::RecordBatch batch;
    std::uint64_t seq = 0;
    if (valid) {
      valid = decode_body(body, static_cast<std::size_t>(body_bytes), model,
                          &seq, &batch);
    }

    bool skip = false;
    if (valid) {
      const std::uint64_t cur_views = model.num_views();
      const std::uint64_t cur_states = model.num_states();
      if (batch.base_views == cur_views && batch.base_states == cur_states) {
        skip = false;  // applies to exactly this model state
      } else if (batch.views_end() <= cur_views &&
                 batch.states_end() <= cur_states) {
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
      if (Result r = codec::apply(model, engine, batch); !r.ok()) {
        return fail(r.status, path_ + ": " + r.detail);
      }
      ++rs.records_applied;
      rs.views_applied += batch.views.size();
      rs.states_applied += batch.states.size();
    }
    seq_ = seq + 1;
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

Result Wal::append(LayeredModel& model,
                   const std::vector<ValenceEngine*>& engines) {
  auto& stats = runtime::Stats::global();
  runtime::ScopedTimer timer(stats.timer("wal.append_time"));
  if (fd_ < 0) return fail(Status::kIoError, "wal not open");

  // States first, then views: with S captured before V, every view a state
  // < S references exists (< V) — same ordering rule the snapshot relies
  // on. Interning may race this round; every id below a count is written.
  const std::uint64_t S = model.num_states();
  const std::uint64_t V = model.num_views();

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
  Writer batch;
  const std::size_t records = memos.empty() ? 1 : memos.size();
  for (std::size_t i = 0; i < records; ++i) {
    const bool delta = i == 0;
    const std::uint64_t views_from = delta ? persisted_views_ : V;
    const std::uint64_t states_from = delta ? persisted_states_ : S;
    Writer body;
    body.u64(seq_ + i);
    body.u64(views_from);
    body.u64(V - views_from);
    body.u64(states_from);
    body.u64(S - states_from);
    codec::encode_views(body, model.views(), views_from, V);
    codec::encode_states(body, model, states_from, S);
    body.u64(delta ? layers.size() : 0);
    if (delta) codec::encode_layers(body, layers);
    body.u32(i < memos.size() ? 1 : 0);
    body.u32(0);
    if (i < memos.size()) {
      codec::encode_memo(body, *memos[i].first, memos[i].second);
    }
    body.u64(delta ? fp_ids.size() : 0);
    if (delta) codec::encode_rows(body, model, fp_ids);
    body.pad_to_8();
    batch.u32(kWalRecordMagic);
    batch.u32(0);
    batch.u64(body.size());
    batch.u64(fnv1a(body.data(), body.size()));
    batch.raw(body.data(), body.size());
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
