#include "store/codec.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <new>
#include <string>

#include "core/model.hpp"

namespace lacon::store::codec {

namespace {

constexpr std::size_t kViewMinBytes = 20;  // a view with no observations
constexpr std::size_t kLayerMinBytes = 8;  // an entry with no successors
constexpr std::size_t kMemoEntryBytes = 12;
constexpr std::size_t kLemmaBytes = 24;

// Records the arenas cannot hold in one pool region are refused.
constexpr std::size_t kMaxRegionWords = runtime::WordPool::kMaxRegionWords;

constexpr std::uint32_t kMemoV0 = 1u << 0;
constexpr std::uint32_t kMemoV1 = 1u << 1;
constexpr std::uint32_t kMemoExact = 1u << 2;
constexpr std::uint32_t kMemoDeep = 1u << 3;
constexpr std::uint32_t kLemmaFlags = (1u << 0) | (1u << 1);

// kNoView, or a view id below `id`: what a view may reference.
bool earlier(ViewId v, std::uint64_t id) {
  return v == kNoView || (v >= 0 && static_cast<std::uint64_t>(v) < id);
}

}  // namespace

void write_frame(Writer& file, const Format& format, const Writer& header) {
  file.raw(format.magic, 8);
  file.u32(format.version);
  file.u32(static_cast<std::uint32_t>(header.size()));
  file.u64(fnv1a(header.data(), header.size()));
  file.raw(header.data(), header.size());
}

Result read_frame(const Format& format, const std::string& path,
                  std::uint64_t file_bytes, const ReadAt& read_at,
                  std::vector<std::uint8_t>* header) {
  if (file_bytes < kPreludeBytes) {
    return fail(Status::kTruncated, path + ": shorter than the prelude");
  }
  std::uint8_t prelude[kPreludeBytes];
  if (!read_at(0, prelude, sizeof prelude)) {
    return fail(Status::kIoError, "cannot read " + path);
  }
  if (std::memcmp(prelude, format.magic, 8) != 0) {
    return fail(Status::kBadMagic,
                path + ": not a " + format.file + " file");
  }
  Reader pre(prelude + 8, sizeof prelude - 8);
  std::uint32_t version = 0, header_bytes = 0;
  std::uint64_t header_checksum = 0;
  pre.u32(&version);
  pre.u32(&header_bytes);
  pre.u64(&header_checksum);
  if (version != format.version) {
    return fail(Status::kBadVersion,
                path + ": " + format.noun + " format version " +
                    std::to_string(version) + " (this build speaks only v" +
                    std::to_string(format.version) + ")");
  }
  if (file_bytes < kPreludeBytes + header_bytes) {
    return fail(Status::kTruncated, path + ": header extends past EOF");
  }
  header->resize(header_bytes);
  if (!read_at(kPreludeBytes, header->data(), header->size())) {
    return fail(Status::kIoError, "cannot read " + path);
  }
  if (fnv1a(header->data(), header->size()) != header_checksum) {
    return fail(Status::kCorrupt, path + ": header checksum mismatch");
  }
  return {};
}

Result check_identity(const Format& format, const std::string& path,
                      LayeredModel& model, const std::string& name,
                      std::uint32_t n, std::uint32_t max_faulty,
                      std::uint32_t symmetry) {
  if (name != model.name() || n != static_cast<std::uint32_t>(model.n()) ||
      max_faulty != static_cast<std::uint32_t>(model.max_faulty())) {
    return fail(Status::kModelMismatch,
                path + ": " + format.noun + " is " + name + " n=" +
                    std::to_string(n) + " t=" + std::to_string(max_faulty) +
                    ", target is " + model.name() + " n=" +
                    std::to_string(model.n()) + " t=" +
                    std::to_string(model.max_faulty()));
  }
  const std::uint32_t want = model.sym_quotient_active() ? 1 : 0;
  if (symmetry != want) {
    return fail(Status::kSymmetryMismatch,
                path + ": " + format.noun +
                    " written with the orbit quotient " +
                    (symmetry != 0 ? "on" : "off") + ", target model runs it " +
                    (want != 0 ? "on" : "off") + " (LACON_SYMMETRY)");
  }
  return {};
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

bool decode_views(Reader& r, std::uint64_t count, int n, RecordBatch* batch) {
  if (count > r.remaining() / kViewMinBytes) return false;
  batch->views.resize(static_cast<std::size_t>(count));
  batch->view_hashes.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < batch->views.size(); ++i) {
    ViewRef& v = batch->views[i];
    const std::uint64_t id = batch->base_views + i;
    if (!decode_view(r, &v) || v.owner < 0 || v.owner >= n ||
        !earlier(v.prev, id) ||
        ViewArena::region_words(n, v.obs.size()) > kMaxRegionWords) {
      return false;
    }
    // Sources are process or register indices (< n): the models put them
    // into a ProcessSet, and the decision rule follows each observed view.
    for (const Obs& o : v.obs) {
      if (o.source < 0 || o.source >= n || !earlier(o.view, id)) return false;
    }
    batch->view_hashes[i] = ViewArena::content_hash(v);
  }
  return true;
}

bool decode_states(Reader& r, std::uint64_t count, const LayeredModel& model,
                   RecordBatch* batch) {
  const int n = model.n();
  const std::size_t min_bytes = 8 + 8 * static_cast<std::size_t>(n);
  if (count > r.remaining() / min_bytes) return false;
  Reader in = r;
  if (count != 0 && reinterpret_cast<std::uintptr_t>(r.pos()) % 8 != 0) {
    batch->aligned.resize(r.remaining() / 8 + 1);
    std::memcpy(batch->aligned.data(), r.pos(), r.remaining());
    in = Reader(reinterpret_cast<const std::uint8_t*>(batch->aligned.data()),
                r.remaining());
  }
  const std::uint64_t views_end = batch->views_end();
  batch->states.resize(static_cast<std::size_t>(count));
  batch->state_hashes.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < batch->states.size(); ++i) {
    StateRef& s = batch->states[i];
    if (!view_state(in, n, &s) ||
        StateArena::region_words(s.env.size(), s.locals.size()) >
            kMaxRegionWords ||
        !model.env_well_formed(s.env, views_end)) {
      return false;
    }
    for (ViewId v : s.locals) {
      if (v < 0 || static_cast<std::uint64_t>(v) >= views_end) return false;
    }
    batch->state_hashes[i] = StateArena::content_hash(s);
  }
  return r.skip(r.remaining() - in.remaining());
}

bool decode_layers(Reader& r, std::uint64_t count, RecordBatch* batch) {
  if (count > r.remaining() / kLayerMinBytes) return false;
  const std::uint64_t states_end = batch->states_end();
  batch->layers.resize(static_cast<std::size_t>(count));
  for (auto& [x, succ] : batch->layers) {
    std::uint32_t len = 0;
    if (!r.u32(&x) || !r.u32(&len) || len > r.remaining() / 4 ||
        x >= states_end) {
      return false;
    }
    succ.resize(len);
    for (StateId& y : succ) {
      if (!r.u32(&y) || y >= states_end) return false;
    }
  }
  return true;
}

bool decode_memo(Reader& r, RecordBatch* batch) {
  std::int32_t& horizon = batch->memo_horizon;
  std::uint32_t& mode = batch->memo_mode;
  std::uint64_t count = 0;
  if (!r.i32(&horizon) || !r.u32(&mode) || !r.u64(&count) || horizon < 0 ||
      mode > 1 || count > r.remaining() / kMemoEntryBytes) {
    return false;
  }
  batch->memo_present = true;
  batch->memo.resize(static_cast<std::size_t>(count));
  // What a packed memo word holds (FORMATS.md §1.7).
  for (ValenceEngine::MemoEntry& e : batch->memo) {
    std::uint32_t flags = 0;
    if (!r.u32(&e.x) || !r.i32(&e.lookahead) || !r.u32(&flags) ||
        (flags & ~(kMemoV0 | kMemoV1 | kMemoExact | kMemoDeep)) != 0 ||
        e.x >= batch->states_end()) {
      return false;
    }
    e.v0 = (flags & kMemoV0) != 0;
    e.v1 = (flags & kMemoV1) != 0;
    e.exact = (flags & kMemoExact) != 0;
    e.deep = (flags & kMemoDeep) != 0;
    if ((e.deep && mode != 1) || e.lookahead < 0 ||
        e.lookahead > std::int64_t{horizon} + (e.deep ? 1 : 0)) {
      return false;
    }
  }
  return true;
}

bool decode_rows(Reader& r, std::uint64_t count, int n, RecordBatch* batch) {
  const auto lanes = static_cast<std::size_t>(n);
  if (count > r.remaining() / (8 + 8 * lanes)) return false;
  batch->row_ids.resize(static_cast<std::size_t>(count));
  batch->rows.resize(static_cast<std::size_t>(count) * lanes);
  std::uint64_t* row = batch->rows.data();
  for (StateId& x : batch->row_ids) {
    std::uint32_t pad = 0;
    if (!r.u32(&x) || !r.u32(&pad) || x >= batch->states_end() ||
        !r.raw(row, 8 * lanes)) {
      return false;
    }
    row += lanes;
  }
  return true;
}

bool skip_lemmas(Reader& r, std::uint64_t count) {
  if (count > r.remaining() / kLemmaBytes) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    // u64 sig_hi, u64 sig_lo, i32 lookahead (>= 0), u32 flags.
    std::int32_t lookahead = 0;
    std::uint32_t flags = 0;
    if (!r.skip(16) || !r.i32(&lookahead) || !r.u32(&flags) || lookahead < 0 ||
        (flags & ~kLemmaFlags) != 0) {
      return false;
    }
  }
  return true;
}

void encode_views(Writer& w, const ViewArena& views, std::uint64_t from,
                  std::uint64_t to) {
  for (std::uint64_t id = from; id < to; ++id) {
    const std::span<const std::int32_t> record =
        views.record(static_cast<ViewId>(id));
    w.raw(record.data(), record.size_bytes());
  }
}

void encode_states(Writer& w, const LayeredModel& model, std::uint64_t from,
                   std::uint64_t to) {
  for (std::uint64_t id = from; id < to; ++id) {
    const StateRef s = model.state(static_cast<StateId>(id));
    w.u64(s.env.size());
    for (std::int64_t word : s.env) w.i64(word);
    for (ViewId v : s.locals) w.i32(static_cast<std::int32_t>(v));
    for (Value d : s.decisions) w.i32(static_cast<std::int32_t>(d));
  }
}

void encode_layers(
    Writer& w,
    const std::vector<std::pair<StateId, std::vector<StateId>>>& layers) {
  for (const auto& [x, succ] : layers) {
    w.u32(x);
    w.u32(static_cast<std::uint32_t>(succ.size()));
    for (StateId y : succ) w.u32(y);
  }
}

void encode_memo(Writer& w, const ValenceEngine& engine,
                 const std::vector<ValenceEngine::MemoEntry>& memo) {
  w.i32(engine.horizon());
  w.u32(engine.mode() == Exactness::kConvergence ? 1 : 0);
  w.u64(memo.size());
  for (const ValenceEngine::MemoEntry& e : memo) {
    w.u32(e.x);
    w.i32(e.lookahead);
    w.u32((e.v0 ? kMemoV0 : 0) | (e.v1 ? kMemoV1 : 0) |
          (e.exact ? kMemoExact : 0) | (e.deep ? kMemoDeep : 0));
  }
}

void encode_rows(Writer& w, const LayeredModel& model,
                 const std::vector<StateId>& ids) {
  for (StateId x : ids) {
    w.u32(x);
    w.u32(0);  // keeps the hashes 8-aligned within a snapshot section
    w.raw(model.cached_fingerprint_row(x),
          8 * static_cast<std::size_t>(model.n()));
  }
}

bool memo_matches(const ValenceEngine* engine, const RecordBatch& batch) {
  return batch.memo_present && engine != nullptr &&
         engine->horizon() == batch.memo_horizon &&
         (engine->mode() == Exactness::kConvergence) == (batch.memo_mode == 1);
}

Result apply(LayeredModel& model, ValenceEngine* engine, RecordBatch& batch) {
  try {
    for (std::size_t i = 0; i < batch.views.size(); ++i) {
      const ViewId got =
          model.views().restore(batch.views[i], batch.view_hashes[i]);
      if (static_cast<std::uint64_t>(got) != batch.base_views + i) {
        return {Status::kCorrupt, "view replay diverged at id " +
                                      std::to_string(batch.base_views + i)};
      }
    }
    for (std::size_t i = 0; i < batch.states.size(); ++i) {
      const StateId got =
          model.restore_state(batch.states[i], batch.state_hashes[i]);
      if (static_cast<std::uint64_t>(got) != batch.base_states + i) {
        return {Status::kCorrupt, "state replay diverged at id " +
                                      std::to_string(batch.base_states + i)};
      }
    }
    if (!batch.layers.empty()) {
      model.import_layer_cache(std::move(batch.layers));
    }
    if (memo_matches(engine, batch)) engine->import_memo(batch.memo);
    const auto lanes = static_cast<std::size_t>(model.n());
    for (std::size_t i = 0; i < batch.row_ids.size(); ++i) {
      model.restore_fingerprint_row(batch.row_ids[i], &batch.rows[i * lanes]);
    }
  } catch (const std::bad_alloc&) {
    // Covers fault::InjectedAllocError (the arenas' restore path probes the
    // injector exactly like intern) and genuine exhaustion.
    return {Status::kIoError, "allocation failure during replay"};
  }
  return {};
}

}  // namespace lacon::store::codec
