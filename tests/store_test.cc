// lacon::store — snapshot round-trips, rejection paths and env knobs.
//
// The round-trip contract under test (ISSUE: snapshot lossless for n <= 8):
// save a model after analysis, load into a fresh model, and (i) every
// restored object keeps its stored id, (ii) content hashes match position
// by position, (iii) re-running the analysis interns nothing new — the
// arena miss counters stay put while "arena.*_restored" carry the replayed
// population, (iv) canonical analysis output is identical. Rejection paths:
// truncated files, flipped bytes, wrong version, wrong model identity,
// non-empty target — each with its typed Status, never a crash (these run
// under ASan in ci.sh like every other test).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/reports.hpp"
#include "core/sym.hpp"
#include "engine/explore.hpp"
#include "engine/valence.hpp"
#include "relation/similarity.hpp"
#include "runtime/stats.hpp"
#include "store/codec.hpp"
#include "store/env.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "store_bytes.hpp"

namespace lacon {
namespace {

namespace fs = std::filesystem;
using store_bytes::as_bytes;
using store_bytes::get;
using store_bytes::lemma_facts;
using store_bytes::put;
using store_bytes::read_file;
using store_bytes::reseal_snapshot;
using store_bytes::section_at;
using store_bytes::section_count;
using store_bytes::section_entry;
using store_bytes::write_file;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lacon_store_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

struct Instance {
  std::unique_ptr<DecisionRule> rule;
  std::unique_ptr<LayeredModel> model;
  std::unique_ptr<ValenceEngine> engine;
};

Instance make_instance(ModelKind kind, int n, int t, int horizon) {
  Instance inst;
  inst.rule = min_after_round(kind == ModelKind::kSync ? t + 1 : 2);
  inst.model = make_model(kind, n, t, *inst.rule);
  inst.engine = std::make_unique<ValenceEngine>(*inst.model, horizon,
                                                default_exactness(kind));
  return inst;
}

// Explores, classifies and sweeps similarity so the snapshot has a layer
// cache, a memo and fingerprint rows to carry.
std::vector<StateId> analyze(Instance& inst, int depth) {
  const auto levels = reachable_by_depth(*inst.model, depth);
  const std::vector<StateId>& frontier = levels.back();
  inst.engine->classify_all(frontier);
  similarity_graph(*inst.model, frontier);
  return frontier;
}

std::vector<std::uint64_t> state_hashes(const LayeredModel& model) {
  std::vector<std::uint64_t> out;
  out.reserve(model.num_states());
  for (std::size_t id = 0; id < model.num_states(); ++id) {
    out.push_back(StateArena::content_hash(model.state(static_cast<StateId>(id))));
  }
  return out;
}

std::vector<std::uint64_t> view_hashes(const LayeredModel& model) {
  std::vector<std::uint64_t> out;
  out.reserve(model.num_views());
  for (std::size_t id = 0; id < model.num_views(); ++id) {
    out.push_back(ViewArena::content_hash(model.views().node(static_cast<ViewId>(id))));
  }
  return out;
}

TEST_F(StoreTest, RoundTripPreservesContentAndIds) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  analyze(cold, 2);
  const std::string file = path("mobile.store");
  ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());

  auto warm = make_instance(ModelKind::kMobile, 3, 1, 3);
  const store::Result r = store::load(*warm.model, file, warm.engine.get());
  ASSERT_TRUE(r.ok()) << r.detail;

  ASSERT_EQ(warm.model->num_states(), cold.model->num_states());
  ASSERT_EQ(warm.model->num_views(), cold.model->num_views());
  // Position-by-position content hashes: id i names the same content.
  EXPECT_EQ(state_hashes(*warm.model), state_hashes(*cold.model));
  EXPECT_EQ(view_hashes(*warm.model), view_hashes(*cold.model));
}

// PR-4/§13 invariant: the padding halves of odd-n packed locals/decisions
// words are zero at intern time AND after a snapshot restore (restore goes
// through the same intern path), so a pooled word region is a pure function
// of the state's content, whichever path put it there.
TEST_F(StoreTest, RestoredOddNStatesKeepZeroedPadding) {
  constexpr std::size_t kN = 3;  // odd: one padding lane per packed array
  auto cold = make_instance(ModelKind::kMobile, kN, 1, 3);
  analyze(cold, 2);
  const std::string file = path("padding.store");
  ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());

  auto warm = make_instance(ModelKind::kMobile, kN, 1, 3);
  const store::Result r = store::load(*warm.model, file, warm.engine.get());
  ASSERT_TRUE(r.ok()) << r.detail;
  ASSERT_GT(warm.model->num_states(), 0u);
  for (std::size_t id = 0; id < warm.model->num_states(); ++id) {
    const StateRef s = warm.model->state(static_cast<StateId>(id));
    ASSERT_EQ(s.locals.size(), kN);
    // Lane kN is the high half of the last packed word — one past the span
    // but inside the pool allocation ((n+1)/2 whole words per array).
    const auto* locals32 =
        reinterpret_cast<const std::uint32_t*>(s.locals.data());
    const auto* decisions32 =
        reinterpret_cast<const std::uint32_t*>(s.decisions.data());
    EXPECT_EQ(locals32[kN], 0u) << "state " << id;
    EXPECT_EQ(decisions32[kN], 0u) << "state " << id;
  }
}

TEST_F(StoreTest, WarmAnalysisInternsNothingNew) {
  // Odd and even n restore through the same in-place record path.
  for (const int n : {3, 4}) {
    auto cold = make_instance(ModelKind::kMobile, n, 1, 3);
    analyze(cold, 2);
    const std::string file = path("warm" + std::to_string(n) + ".store");
    ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());

    auto& stats = runtime::Stats::global();
    auto warm = make_instance(ModelKind::kMobile, n, 1, 3);
    const std::uint64_t restored_before =
        stats.counter("arena.state_restored").value();
    ASSERT_TRUE(store::load(*warm.model, file, warm.engine.get()).ok());
    // Every stored state is restored exactly once, none re-interned.
    EXPECT_EQ(stats.counter("arena.state_restored").value(),
              restored_before + cold.model->num_states())
        << "n=" << n;

    const std::uint64_t misses_before =
        stats.counter("arena.state_misses").value();
    const std::uint64_t view_misses_before =
        stats.counter("arena.view_misses").value();
    const std::uint64_t hits_before =
        stats.counter("arena.state_hits").value();

    // The full analysis replays as hits against the restored index.
    const auto frontier = analyze(warm, 2);
    EXPECT_EQ(stats.counter("arena.state_misses").value(), misses_before)
        << "n=" << n;
    EXPECT_EQ(stats.counter("arena.view_misses").value(), view_misses_before)
        << "n=" << n;
    EXPECT_GT(stats.counter("arena.state_hits").value(), hits_before);
    EXPECT_EQ(warm.model->num_states(), cold.model->num_states());

    // Valence answers agree entry for entry (memo was imported).
    const auto cold_frontier = analyze(cold, 2);
    ASSERT_EQ(frontier.size(), cold_frontier.size());
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const ValenceInfo a = warm.engine->valence(frontier[i]);
      const ValenceInfo b = cold.engine->valence(cold_frontier[i]);
      EXPECT_EQ(a.v0, b.v0);
      EXPECT_EQ(a.v1, b.v1);
      EXPECT_EQ(a.exact, b.exact);
    }
  }
}

TEST_F(StoreTest, MmapLoadRejectsTruncationAtEveryPrefix) {
  // Every proper prefix of a snapshot must be rejected, for odd and even n
  // alike: viewing state records in place skips no length or checksum
  // validation.
  for (const int n : {3, 4}) {
    auto cold = make_instance(ModelKind::kMobile, n, 1, 2);
    analyze(cold, 1);
    const std::string file = path("trunc" + std::to_string(n) + ".store");
    ASSERT_TRUE(store::save(*cold.model, file, nullptr).ok());

    std::ifstream in(file, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 0u);

    // Every prefix for small files; a deterministic stride (still covering
    // every 8-byte boundary and both ends) once the quadratic checksum work
    // would dominate the suite. A rejected prefix must leave the target
    // untouched, so one empty target serves every prefix.
    auto target = make_instance(ModelKind::kMobile, n, 1, 2);
    const std::size_t stride = bytes.size() > 8192 ? 7 : 1;
    for (std::size_t keep = 0; keep < bytes.size(); keep += stride) {
      const std::string cut = path("cut.store");
      std::ofstream out(cut, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
      out.close();

      const store::Result r = store::load(*target.model, cut, nullptr);
      EXPECT_FALSE(r.ok()) << "n=" << n << ": prefix of " << keep
                           << " bytes was accepted";
      ASSERT_EQ(target.model->num_states(), 0u) << "n=" << n << " " << keep;
      ASSERT_EQ(target.model->num_views(), 0u) << "n=" << n << " " << keep;
    }
  }
}

TEST_F(StoreTest, OddNPadsLanesAndRoundTrips) {
  // n = 3 and n = 5 exercise the odd lane-padding path in the flat arena;
  // round-trip each and re-intern a frontier state to prove id stability.
  for (const int n : {3, 5}) {
    auto cold = make_instance(ModelKind::kSync, n, 1, 2);
    analyze(cold, 1);
    const std::string file = path("odd" + std::to_string(n) + ".store");
    ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());

    auto warm = make_instance(ModelKind::kSync, n, 1, 2);
    ASSERT_TRUE(store::load(*warm.model, file, warm.engine.get()).ok());
    EXPECT_EQ(state_hashes(*warm.model), state_hashes(*cold.model));

    // Re-interning restored content yields the restored id, not a new one.
    const std::size_t before = warm.model->num_states();
    const StateRef s = warm.model->state(0);
    GlobalState copy;
    copy.env.assign(s.env.begin(), s.env.end());
    copy.locals.assign(s.locals.begin(), s.locals.end());
    copy.decisions.assign(s.decisions.begin(), s.decisions.end());
    EXPECT_EQ(warm.model->restore_state(copy, StateArena::content_hash(copy)),
              0u);
    EXPECT_EQ(warm.model->num_states(), before);
  }
}

TEST_F(StoreTest, SaveAndLoadReportIdentityAndInventory) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  analyze(cold, 2);
  const std::string file = path("meta.store");
  store::SnapshotMeta saved;
  ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get(), &saved).ok());
  EXPECT_EQ(saved.model_name, cold.model->name());
  EXPECT_EQ(saved.n, 3);
  EXPECT_EQ(saved.max_faulty, 1);
  EXPECT_EQ(saved.num_states, cold.model->num_states());
  EXPECT_EQ(saved.num_views, cold.model->num_views());
  EXPECT_GT(saved.layer_entries, 0u);
  EXPECT_GT(saved.memo_entries, 0u);
  EXPECT_GT(saved.fingerprint_rows, 0u);
  EXPECT_EQ(saved.file_bytes, fs::file_size(file));
  EXPECT_FALSE(saved.symmetry);

  // The loader reports the same inventory off the same file.
  auto warm = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::SnapshotMeta loaded;
  ASSERT_TRUE(store::load(*warm.model, file, warm.engine.get(), &loaded).ok());
  EXPECT_EQ(loaded.model_name, saved.model_name);
  EXPECT_EQ(loaded.n, saved.n);
  EXPECT_EQ(loaded.max_faulty, saved.max_faulty);
  EXPECT_EQ(loaded.num_states, saved.num_states);
  EXPECT_EQ(loaded.num_views, saved.num_views);
  EXPECT_EQ(loaded.layer_entries, saved.layer_entries);
  EXPECT_EQ(loaded.memo_entries, saved.memo_entries);
  EXPECT_EQ(loaded.fingerprint_rows, saved.fingerprint_rows);
  EXPECT_EQ(loaded.file_bytes, saved.file_bytes);
  EXPECT_EQ(loaded.symmetry, saved.symmetry);
}

TEST_F(StoreTest, TruncatedFilesAreRejectedAtEveryLength) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 2);
  analyze(cold, 1);
  const std::string file = path("trunc.store");
  ASSERT_TRUE(store::save(*cold.model, file, nullptr).ok());

  std::ifstream in(file, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  // A spread of prefix lengths: inside the prelude, inside the header,
  // inside each section region, and one byte short of complete.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{20}, std::size_t{60},
        bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    const std::string cut = path("cut.store");
    std::ofstream out(cut, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();

    auto target = make_instance(ModelKind::kMobile, 3, 1, 2);
    const store::Result r = store::load(*target.model, cut, nullptr);
    EXPECT_FALSE(r.ok()) << "prefix of " << keep << " bytes was accepted";
  }
}

TEST_F(StoreTest, CorruptPayloadFailsChecksum) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 2);
  analyze(cold, 1);
  const std::string file = path("corrupt.store");
  ASSERT_TRUE(store::save(*cold.model, file, nullptr).ok());

  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-9, std::ios::end);  // a payload byte near the tail
  char byte;
  f.seekg(-9, std::ios::end);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(-9, std::ios::end);
  f.write(&byte, 1);
  f.close();

  auto target = make_instance(ModelKind::kMobile, 3, 1, 2);
  const store::Result r = store::load(*target.model, file, nullptr);
  EXPECT_EQ(r.status, store::Status::kCorrupt) << r.detail;
}

// A header whose counts outrun the bytes that carry them (FORMATS.md §1).
// Every edit re-seals the header checksum, so only the bounds stand between
// the count and an allocation sized by it: each load must return kCorrupt
// without throwing and leave the target empty.
TEST_F(StoreTest, CraftedHeaderCountsAreRejected) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  analyze(cold, 2);
  const std::string file = path("crafted.store");
  ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());
  std::ifstream in(file, std::ios::binary);
  const std::vector<std::uint8_t> saved((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());

  // Prelude: magic, u32 version, u32 header bytes, u64 header checksum.
  // Header body: eight u32 fields, two u64 counts, the padded name, then
  // the 40-byte section entries {u32 kind, u32, u64 offset, bytes, count,
  // u64 checksum}.
  constexpr std::size_t kPrelude = 24;
  auto get32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, saved.data() + at, sizeof v);
    return v;
  };
  const std::uint32_t header_bytes = get32(12);
  const std::size_t digest_shards_at = kPrelude + 16;
  const std::size_t section_count_at = kPrelude + 24;
  const std::size_t name_len = get32(kPrelude + 20);
  const std::size_t table_at = kPrelude + 48 + (name_len + 7) / 8 * 8;
  auto count_at = [&](store::SectionKind kind) {
    for (std::uint32_t i = 0; i < get32(section_count_at); ++i) {
      const std::size_t entry = table_at + 40 * i;
      if (get32(entry) == static_cast<std::uint32_t>(kind)) return entry + 24;
    }
    ADD_FAILURE() << "no section of kind " << static_cast<int>(kind);
    return std::size_t{0};
  };

  struct Edit {
    const char* what;
    std::size_t at;
    std::uint64_t value;
    std::size_t width;
  };
  const std::vector<std::vector<Edit>> cases = {
      {{"layer-cache count 2^60", count_at(store::SectionKind::kLayerCache),
        std::uint64_t{1} << 60, 8}},
      {{"section_count 2^32-1", section_count_at, 0xffffffffu, 4}},
      {{"section_count 2^24", section_count_at, std::uint64_t{1} << 24, 4}},
      // The digest sections' counts follow the shard count, so only their
      // byte sizes disagree with it.
      {{"digest_shards 2^28", digest_shards_at, std::uint64_t{1} << 28, 4},
       {"", count_at(store::SectionKind::kStateDigests),
        std::uint64_t{1} << 28, 8},
       {"", count_at(store::SectionKind::kViewDigests),
        std::uint64_t{1} << 28, 8}},
  };
  for (const std::vector<Edit>& edits : cases) {
    const char* what = edits.front().what;
    std::vector<std::uint8_t> bytes = saved;
    for (const Edit& e : edits) {
      std::memcpy(bytes.data() + e.at, &e.value, e.width);
    }
    const std::uint64_t sum =
        store::codec::fnv1a(bytes.data() + kPrelude, header_bytes);
    std::memcpy(bytes.data() + 16, &sum, sizeof sum);
    const std::string edited = path("edited.store");
    std::ofstream out(edited, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();

    auto target = make_instance(ModelKind::kMobile, 3, 1, 3);
    store::Result r;
    EXPECT_NO_THROW(r = store::load(*target.model, edited,
                                    target.engine.get()))
        << what;
    EXPECT_EQ(r.status, store::Status::kCorrupt) << what << ": " << r.detail;
    EXPECT_EQ(target.model->num_states(), 0u) << what;
    EXPECT_EQ(target.model->num_views(), 0u) << what;
  }
}

TEST_F(StoreTest, ForwardVersionsAreRefused) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 2);
  analyze(cold, 1);
  const std::string file = path("v2.store");
  ASSERT_TRUE(store::save(*cold.model, file, nullptr).ok());

  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  const std::uint32_t v2 = 2;
  f.seekp(8);  // the u32 version right after the magic
  f.write(reinterpret_cast<const char*>(&v2), sizeof v2);
  f.close();

  auto target = make_instance(ModelKind::kMobile, 3, 1, 2);
  EXPECT_EQ(store::load(*target.model, file, nullptr).status,
            store::Status::kBadVersion);
}

TEST_F(StoreTest, BadMagicAndMissingFile) {
  const std::string file = path("not.store");
  std::ofstream(file) << "definitely not a snapshot";
  auto target = make_instance(ModelKind::kMobile, 3, 1, 2);
  EXPECT_EQ(store::load(*target.model, file, nullptr).status,
            store::Status::kBadMagic);
  EXPECT_EQ(store::load(*target.model, path("absent.store"), nullptr).status,
            store::Status::kIoError);
}

TEST_F(StoreTest, ModelMismatchAndNonEmptyTargetAreRefused) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 2);
  analyze(cold, 1);
  const std::string file = path("identity.store");
  ASSERT_TRUE(store::save(*cold.model, file, nullptr).ok());

  // Wrong n.
  auto wrong_n = make_instance(ModelKind::kMobile, 4, 1, 2);
  EXPECT_EQ(store::load(*wrong_n.model, file, nullptr).status,
            store::Status::kModelMismatch);
  // Wrong model family.
  auto wrong_kind = make_instance(ModelKind::kSync, 3, 1, 2);
  EXPECT_EQ(store::load(*wrong_kind.model, file, nullptr).status,
            store::Status::kModelMismatch);
  // Right identity, but the target has already interned content.
  auto warm = make_instance(ModelKind::kMobile, 3, 1, 2);
  warm.model->initial_states();
  EXPECT_EQ(store::load(*warm.model, file, nullptr).status,
            store::Status::kNotEmpty);
}

TEST_F(StoreTest, MemoSkippedOnHorizonMismatch) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  analyze(cold, 2);
  const std::string file = path("memo.store");
  ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());

  // A horizon-2 engine must not inherit horizon-3 entries; the load itself
  // still succeeds and the model is fully usable.
  auto warm = make_instance(ModelKind::kMobile, 3, 1, 2);
  const std::uint64_t skipped_before =
      runtime::Stats::global().counter("store.memo_skipped").value();
  ASSERT_TRUE(store::load(*warm.model, file, warm.engine.get()).ok());
  EXPECT_GT(runtime::Stats::global().counter("store.memo_skipped").value(),
            skipped_before);
  EXPECT_EQ(warm.model->num_states(), cold.model->num_states());
}

TEST_F(StoreTest, SaveWithoutEngineOmitsMemo) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 2);
  analyze(cold, 1);
  const std::string file = path("nomemo.store");
  store::SnapshotMeta meta;
  ASSERT_TRUE(store::save(*cold.model, file, nullptr, &meta).ok());
  EXPECT_EQ(meta.memo_entries, 0u);

  auto warm = make_instance(ModelKind::kMobile, 3, 1, 2);
  EXPECT_TRUE(store::load(*warm.model, file, warm.engine.get()).ok());
}

// Interns one novel state (a copy of state 0 with a perturbed decision),
// giving the WAL a deliberately tiny delta record for tail-fuzz tests.
void intern_one_extra_state(LayeredModel& model) {
  const StateRef s = model.state(0);
  GlobalState copy;
  copy.env.assign(s.env.begin(), s.env.end());
  copy.locals.assign(s.locals.begin(), s.locals.end());
  copy.decisions.assign(s.decisions.begin(), s.decisions.end());
  copy.decisions[0] = copy.decisions[0] == 7 ? 8 : 7;
  const std::size_t before = model.num_states();
  ASSERT_EQ(model.restore_state(copy, StateArena::content_hash(copy)), before);
}

// Memo bytes a packed memo word cannot hold (FORMATS.md §1.7): each edit
// re-seals the memo section's checksum and the header's, so only the
// bounds refuse it, with kCorrupt and before anything reaches the target.
TEST_F(StoreTest, CraftedMemoBytesAreRejected) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  analyze(cold, 2);
  const std::string file = path("memo.store");
  ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());
  const std::vector<char> saved = read_file(file);

  constexpr std::size_t kPrelude = 24;
  auto get32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, saved.data() + at, sizeof v);
    return v;
  };
  auto get64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, saved.data() + at, sizeof v);
    return v;
  };
  const std::uint32_t header_bytes = get32(12);
  const std::size_t table_at = kPrelude + 48 + (get32(kPrelude + 20) + 7) / 8 * 8;
  std::size_t entry = 0;
  for (std::uint32_t i = 0; i < get32(kPrelude + 24); ++i) {
    if (get32(table_at + 40 * i) ==
        static_cast<std::uint32_t>(store::SectionKind::kValenceMemo)) {
      entry = table_at + 40 * i;
    }
  }
  ASSERT_NE(entry, 0u);
  const std::size_t memo_at = get64(entry + 8);
  const std::size_t memo_bytes = get64(entry + 16);
  ASSERT_EQ(get32(memo_at), 3u);      // horizon
  ASSERT_EQ(get32(memo_at + 4), 0u);  // mode 0: kQuiescence
  ASSERT_GT(get64(memo_at + 8), 0u);  // entries
  const std::size_t lookahead_at = memo_at + 16 + 4;
  const std::size_t flags_at = memo_at + 16 + 8;

  struct Edit {
    const char* what;
    std::size_t at;
    std::uint32_t value;
  };
  const std::vector<Edit> cases = {
      {"memo mode 2", memo_at + 4, 2},
      {"memo horizon -1", memo_at, 0xffffffffu},
      {"unknown flag bit", flags_at, get32(flags_at) | 16u},
      {"deep entry in a mode-0 block", flags_at, get32(flags_at) | 8u},
      {"lookahead horizon + 1", lookahead_at, 4},
      {"lookahead -1", lookahead_at, 0xffffffffu},
  };
  for (const Edit& e : cases) {
    std::vector<char> bytes = saved;
    std::memcpy(bytes.data() + e.at, &e.value, sizeof e.value);
    const std::uint64_t section_sum =
        store::codec::fnv1a(as_bytes(bytes, memo_at), memo_bytes);
    std::memcpy(bytes.data() + entry + 32, &section_sum, sizeof section_sum);
    const std::uint64_t header_sum =
        store::codec::fnv1a(as_bytes(bytes, kPrelude), header_bytes);
    std::memcpy(bytes.data() + 16, &header_sum, sizeof header_sum);
    const std::string edited = path("edited.store");
    write_file(edited, bytes.data(), bytes.size());

    auto target = make_instance(ModelKind::kMobile, 3, 1, 3);
    const store::Result r =
        store::load(*target.model, edited, target.engine.get());
    EXPECT_EQ(r.status, store::Status::kCorrupt) << e.what << ": " << r.detail;
    EXPECT_EQ(target.model->num_states(), 0u) << e.what;
    EXPECT_EQ(target.model->num_views(), 0u) << e.what;
    EXPECT_TRUE(target.engine->export_memo().empty()) << e.what;
  }
}

// --- WAL (lacon.wal.v1): crash-durable deltas over snapshots --------------

TEST_F(StoreTest, WalAppendReplayRoundTrip) {
  const std::string file = path("roundtrip.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  {
    store::Wal wal;
    ASSERT_TRUE(wal.open(*cold.model, file).ok());
    ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
    analyze(cold, 2);
    ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
    EXPECT_EQ(wal.records_appended(), 1u);
    // Nothing new interned since the commit: append is a no-op.
    ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
    EXPECT_EQ(wal.records_appended(), 1u);
  }

  auto& stats = runtime::Stats::global();
  auto warm = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::Wal wal;
  ASSERT_TRUE(wal.open(*warm.model, file).ok());
  store::WalReplayStats rs;
  const store::Result r = wal.replay(*warm.model, warm.engine.get(), &rs);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(rs.records_applied, 1u);
  EXPECT_EQ(rs.truncated_bytes, 0u);
  EXPECT_EQ(rs.states_applied, cold.model->num_states());

  ASSERT_EQ(warm.model->num_states(), cold.model->num_states());
  ASSERT_EQ(warm.model->num_views(), cold.model->num_views());
  EXPECT_EQ(state_hashes(*warm.model), state_hashes(*cold.model));
  EXPECT_EQ(view_hashes(*warm.model), view_hashes(*cold.model));

  // Re-running the analysis interns nothing new (zero re-interns contract)
  // and the imported memo answers agree entry for entry.
  const std::uint64_t misses_before =
      stats.counter("arena.state_misses").value();
  const auto frontier = analyze(warm, 2);
  EXPECT_EQ(stats.counter("arena.state_misses").value(), misses_before);
  EXPECT_EQ(warm.model->num_states(), cold.model->num_states());
  const auto cold_frontier = analyze(cold, 2);
  ASSERT_EQ(frontier.size(), cold_frontier.size());
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const ValenceInfo a = warm.engine->valence(frontier[i]);
    const ValenceInfo b = cold.engine->valence(cold_frontier[i]);
    EXPECT_EQ(a.v0, b.v0);
    EXPECT_EQ(a.v1, b.v1);
  }
}

TEST_F(StoreTest, WalReplaysDeltaOverSnapshot) {
  const std::string snap = path("delta.store");
  const std::string file = path("delta.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  // Snapshot bare depth-1 exploration (no valence lookahead yet), so the
  // full analysis afterwards is guaranteed to intern past it.
  reachable_by_depth(*cold.model, 1);
  ASSERT_TRUE(store::save(*cold.model, snap, nullptr).ok());
  {
    // The WAL opens over the snapshot-covered model and logs only what the
    // deeper analysis adds past it.
    store::Wal wal;
    ASSERT_TRUE(wal.open(*cold.model, file).ok());
    ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
    analyze(cold, 2);
    ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  }

  auto warm = make_instance(ModelKind::kMobile, 3, 1, 3);
  ASSERT_TRUE(store::load(*warm.model, snap, warm.engine.get()).ok());
  const std::size_t from_snapshot = warm.model->num_states();
  store::Wal wal;
  ASSERT_TRUE(wal.open(*warm.model, file).ok());
  store::WalReplayStats rs;
  ASSERT_TRUE(wal.replay(*warm.model, warm.engine.get(), &rs).ok());
  EXPECT_EQ(rs.records_applied, 1u);
  EXPECT_GT(warm.model->num_states(), from_snapshot);
  ASSERT_EQ(warm.model->num_states(), cold.model->num_states());
  EXPECT_EQ(state_hashes(*warm.model), state_hashes(*cold.model));
  EXPECT_EQ(view_hashes(*warm.model), view_hashes(*cold.model));
}

TEST_F(StoreTest, WalSkipsRecordsCoveredBySnapshot) {
  const std::string snap = path("covered.store");
  const std::string file = path("covered.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  {
    store::Wal wal;
    ASSERT_TRUE(wal.open(*cold.model, file).ok());
    ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
    analyze(cold, 1);
    ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
    intern_one_extra_state(*cold.model);
    ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
    // Snapshot saved AFTER both records, crash before the log was reset:
    // replay must recognize both records as covered and skip them.
    ASSERT_TRUE(store::save(*cold.model, snap, cold.engine.get()).ok());
  }

  auto warm = make_instance(ModelKind::kMobile, 3, 1, 3);
  ASSERT_TRUE(store::load(*warm.model, snap, warm.engine.get()).ok());
  const std::size_t from_snapshot = warm.model->num_states();
  store::Wal wal;
  ASSERT_TRUE(wal.open(*warm.model, file).ok());
  store::WalReplayStats rs;
  ASSERT_TRUE(wal.replay(*warm.model, warm.engine.get(), &rs).ok());
  EXPECT_EQ(rs.records_applied, 0u);
  EXPECT_EQ(rs.records_skipped, 2u);
  EXPECT_EQ(warm.model->num_states(), from_snapshot);
  EXPECT_EQ(state_hashes(*warm.model), state_hashes(*cold.model));
}

// Satellite (d): SIGKILL can land mid-write, so the final record may end at
// ANY byte. Fuzz every truncation point of the last record and demand the
// same answer each time: kOk, everything before the tear intact, the torn
// tail physically truncated, and the log usable for appends again.
TEST_F(StoreTest, WalTornTailRecoversAtEveryByteOffset) {
  const std::string file = path("torn.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::Wal wal;
  ASSERT_TRUE(wal.open(*cold.model, file).ok());
  ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
  analyze(cold, 1);
  ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  const std::size_t record1_states = cold.model->num_states();
  const auto boundary = static_cast<std::size_t>(fs::file_size(file));
  intern_one_extra_state(*cold.model);
  ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  wal.close();
  const std::vector<char> bytes = read_file(file);
  ASSERT_GT(bytes.size(), boundary);

  for (std::size_t keep = boundary; keep < bytes.size(); ++keep) {
    const std::string cut = path("torn.cut.wal");
    write_file(cut, bytes.data(), keep);

    auto target = make_instance(ModelKind::kMobile, 3, 1, 3);
    store::Wal w;
    ASSERT_TRUE(w.open(*target.model, cut).ok()) << "keep=" << keep;
    store::WalReplayStats rs;
    const store::Result r = w.replay(*target.model, target.engine.get(), &rs);
    ASSERT_TRUE(r.ok()) << "keep=" << keep << ": " << r.detail;
    EXPECT_EQ(rs.records_applied, 1u) << "keep=" << keep;
    EXPECT_EQ(rs.truncated_bytes, keep - boundary) << "keep=" << keep;
    EXPECT_EQ(target.model->num_states(), record1_states) << "keep=" << keep;
    // Replay physically cut the tail back to the last valid record...
    EXPECT_EQ(fs::file_size(cut), boundary) << "keep=" << keep;
    // ...so the log keeps working: the next commit lands cleanly.
    intern_one_extra_state(*target.model);
    ASSERT_TRUE(w.append(*target.model, {target.engine.get()}).ok())
        << "keep=" << keep;
  }
}

TEST_F(StoreTest, WalBitFlippedTailIsTruncatedNotFatal) {
  const std::string file = path("flip.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::Wal wal;
  ASSERT_TRUE(wal.open(*cold.model, file).ok());
  ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
  analyze(cold, 1);
  ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  const std::size_t record1_states = cold.model->num_states();
  const auto boundary = static_cast<std::size_t>(fs::file_size(file));
  intern_one_extra_state(*cold.model);
  ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  wal.close();

  std::vector<char> bytes = read_file(file);
  // Flip one byte in the final record's body: the frame parses but the
  // checksum refutes it, so replay truncates the record, not the process.
  bytes[boundary + 30] = static_cast<char>(bytes[boundary + 30] ^ 0x10);
  write_file(file, bytes.data(), bytes.size());

  auto target = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::Wal w;
  ASSERT_TRUE(w.open(*target.model, file).ok());
  store::WalReplayStats rs;
  ASSERT_TRUE(w.replay(*target.model, target.engine.get(), &rs).ok());
  EXPECT_EQ(rs.records_applied, 1u);
  EXPECT_EQ(rs.truncated_bytes, bytes.size() - boundary);
  EXPECT_EQ(target.model->num_states(), record1_states);
  EXPECT_EQ(fs::file_size(file), boundary);
}

// The WAL half of FORMATS.md §1.7's memo bounds: a record whose memo block
// a packed memo word cannot hold counts as damaged even with a valid
// checksum, and the torn-tail rule truncates the log from it.
TEST_F(StoreTest, WalRecordWithUnboundedMemoIsTruncated) {
  const std::string file = path("memo.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  ValenceEngine second(*cold.model, 2, Exactness::kQuiescence);
  store::Wal wal;
  ASSERT_TRUE(wal.open(*cold.model, file).ok());
  ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
  const auto header_end = static_cast<std::size_t>(fs::file_size(file));
  second.classify_all(analyze(cold, 1));
  // Two engines, one round: a full delta record, then a memo-only record.
  ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get(), &second}).ok());
  const std::size_t record1_states = cold.model->num_states();
  wal.close();
  const std::vector<char> saved = read_file(file);

  auto get32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, saved.data() + at, sizeof v);
    return v;
  };
  auto get64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, saved.data() + at, sizeof v);
    return v;
  };
  // Frame: u32 magic, u32 reserved, u64 body bytes, u64 body checksum.
  const std::size_t boundary = header_end + 24 + get64(header_end + 8);
  ASSERT_LT(boundary, saved.size());
  const std::size_t body_at = boundary + 24;
  const std::size_t body_bytes = get64(boundary + 8);
  // A memo-only body: seq, four id counts and an empty layer count, then
  // the memo block (u32 present, u32 reserved, i32 horizon, u32 mode,
  // u64 count, entries).
  const std::size_t memo_at = body_at + 48;
  ASSERT_EQ(get32(memo_at), 1u);
  ASSERT_EQ(get32(memo_at + 8), 2u);   // horizon
  ASSERT_EQ(get32(memo_at + 12), 0u);  // mode 0: kQuiescence
  ASSERT_GT(get64(memo_at + 16), 0u);
  const std::size_t lookahead_at = memo_at + 24 + 4;
  const std::size_t flags_at = memo_at + 24 + 8;

  struct Edit {
    const char* what;
    std::size_t at;
    std::uint32_t value;
  };
  const std::vector<Edit> cases = {
      {"memo horizon -1", memo_at + 8, 0xffffffffu},
      {"unknown flag bit", flags_at, get32(flags_at) | 16u},
      {"deep entry in a mode-0 block", flags_at, get32(flags_at) | 8u},
      {"lookahead horizon + 1", lookahead_at, 3},
      {"lookahead -1", lookahead_at, 0xffffffffu},
  };
  for (const Edit& e : cases) {
    std::vector<char> bytes = saved;
    std::memcpy(bytes.data() + e.at, &e.value, sizeof e.value);
    const std::uint64_t sum =
        store::codec::fnv1a(as_bytes(bytes, body_at), body_bytes);
    std::memcpy(bytes.data() + boundary + 16, &sum, sizeof sum);
    const std::string edited = path("edited.wal");
    write_file(edited, bytes.data(), bytes.size());

    auto target = make_instance(ModelKind::kMobile, 3, 1, 3);
    ValenceEngine target_second(*target.model, 2, Exactness::kQuiescence);
    store::Wal w;
    ASSERT_TRUE(w.open(*target.model, edited).ok()) << e.what;
    store::WalReplayStats rs;
    const store::Result r =
        w.replay(*target.model, &target_second, &rs);
    ASSERT_TRUE(r.ok()) << e.what << ": " << r.detail;
    EXPECT_EQ(rs.records_applied, 1u) << e.what;
    EXPECT_EQ(rs.truncated_bytes, bytes.size() - boundary) << e.what;
    EXPECT_EQ(target.model->num_states(), record1_states) << e.what;
    EXPECT_EQ(fs::file_size(edited), boundary) << e.what;
    EXPECT_TRUE(target_second.export_memo().empty()) << e.what;
  }
}

TEST_F(StoreTest, WalHeaderDamageIsTyped) {
  const std::string file = path("header.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 2);
  {
    store::Wal wal;
    ASSERT_TRUE(wal.open(*cold.model, file).ok());
  }
  const std::vector<char> bytes = read_file(file);

  // Wrong identity: same file, different instance.
  auto wrong_n = make_instance(ModelKind::kMobile, 4, 1, 2);
  store::Wal w1;
  EXPECT_EQ(w1.open(*wrong_n.model, file).status,
            store::Status::kModelMismatch);
  auto wrong_kind = make_instance(ModelKind::kSync, 3, 1, 2);
  store::Wal w2;
  EXPECT_EQ(w2.open(*wrong_kind.model, file).status,
            store::Status::kModelMismatch);

  // Garbage prelude.
  write_file(file, "not a write-ahead log....", 25);
  store::Wal w3;
  EXPECT_EQ(w3.open(*cold.model, file).status, store::Status::kBadMagic);

  // Future version.
  std::vector<char> versioned = bytes;
  versioned[8] = 2;  // the u32 version right after the magic
  write_file(file, versioned.data(), versioned.size());
  store::Wal w4;
  EXPECT_EQ(w4.open(*cold.model, file).status, store::Status::kBadVersion);

  // Corrupted header body (checksum mismatch).
  std::vector<char> flipped = bytes;
  flipped[26] = static_cast<char>(flipped[26] ^ 0x04);
  write_file(file, flipped.data(), flipped.size());
  store::Wal w5;
  EXPECT_EQ(w5.open(*cold.model, file).status, store::Status::kCorrupt);

  // Header prefixes: every cut inside prelude+header is a typed refusal
  // (unlike a torn record tail, which is recovery).
  for (std::size_t keep = 1; keep < bytes.size(); ++keep) {
    write_file(file, bytes.data(), keep);
    store::Wal w;
    const store::Result r = w.open(*cold.model, file);
    EXPECT_FALSE(r.ok()) << "header prefix of " << keep << " bytes accepted";
    EXPECT_FALSE(w.is_open());
  }
}

TEST_F(StoreTest, WalResetToAfterSnapshotLogsOnlyNewWork) {
  const std::string snap = path("compact.store");
  const std::string file = path("compact.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::Wal wal;
  ASSERT_TRUE(wal.open(*cold.model, file).ok());
  ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
  analyze(cold, 1);
  ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  EXPECT_GT(wal.log_bytes(), 0u);

  // Compaction: fold the log into a snapshot, then reset the log to it.
  store::SnapshotMeta meta;
  ASSERT_TRUE(store::save(*cold.model, snap, cold.engine.get(), &meta).ok());
  ASSERT_TRUE(
      wal.reset_to(*cold.model, meta.num_views, meta.num_states,
                   cold.engine.get())
          .ok());
  EXPECT_EQ(wal.log_bytes(), 0u);
  EXPECT_EQ(wal.records_appended(), 0u);

  // Post-compaction commits log only the new work; snapshot + log together
  // still recover the full space.
  analyze(cold, 2);
  ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  EXPECT_EQ(wal.records_appended(), 1u);
  wal.close();

  auto warm = make_instance(ModelKind::kMobile, 3, 1, 3);
  ASSERT_TRUE(store::load(*warm.model, snap, warm.engine.get()).ok());
  store::Wal w;
  ASSERT_TRUE(w.open(*warm.model, file).ok());
  store::WalReplayStats rs;
  ASSERT_TRUE(w.replay(*warm.model, warm.engine.get(), &rs).ok());
  EXPECT_EQ(rs.records_applied, 1u);
  ASSERT_EQ(warm.model->num_states(), cold.model->num_states());
  EXPECT_EQ(state_hashes(*warm.model), state_hashes(*cold.model));

  // should_compact has a 64 KiB floor: a small log never forces compaction
  // just because the snapshot is tiny.
  EXPECT_FALSE(w.should_compact(/*snapshot_bytes=*/1));
}

// Every published fingerprint row, by state id.
std::vector<std::vector<std::uint64_t>> fingerprint_rows(
    const LayeredModel& model) {
  std::vector<std::vector<std::uint64_t>> out(model.num_states());
  for (std::size_t id = 0; id < out.size(); ++id) {
    if (const std::uint64_t* row =
            model.cached_fingerprint_row(static_cast<StateId>(id))) {
      out[id].assign(row, row + model.n());
    }
  }
  return out;
}

// Memo entries as comparable tuples.
std::vector<std::tuple<StateId, std::int32_t, bool, bool, bool, bool>>
memo_tuples(const std::vector<ValenceEngine::MemoEntry>& memo) {
  std::vector<std::tuple<StateId, std::int32_t, bool, bool, bool, bool>> out;
  for (const auto& e : memo) {
    out.emplace_back(e.x, e.lookahead, e.v0, e.v1, e.exact, e.deep);
  }
  return out;
}

// A model no log drains records nothing, and a replay's imports queue
// nothing: both leave every queue empty.
TEST_F(StoreTest, CachesQueueOnlyWhatALogWillDrain) {
  const auto expect_nothing_queued = [](Instance& inst, ValenceEngine& other) {
    EXPECT_TRUE(inst.model->drain_unpersisted(UINT64_MAX).empty());
    EXPECT_TRUE(inst.engine->drain_memo(UINT64_MAX).empty());
    EXPECT_TRUE(other.drain_memo(UINT64_MAX).empty());
  };
  // Analysis through two engines: the instance's and one at horizon 2.
  const auto analyze_twice = [](Instance& inst, ValenceEngine& other) {
    analyze(inst, 2);
    other.classify_all(inst.model->initial_states());
  };

  auto plain = make_instance(ModelKind::kMobile, 3, 1, 3);
  ValenceEngine plain_other(*plain.model, 2, Exactness::kQuiescence);
  analyze_twice(plain, plain_other);
  ASSERT_FALSE(plain_other.export_memo().empty());
  expect_nothing_queued(plain, plain_other);

  const std::string file = path("imports.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  ValenceEngine cold_other(*cold.model, 2, Exactness::kQuiescence);
  {
    store::Wal wal;
    ASSERT_TRUE(wal.open(*cold.model, file).ok());
    ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
    analyze_twice(cold, cold_other);
    ASSERT_TRUE(
        wal.append(*cold.model, {cold.engine.get(), &cold_other}).ok());
  }
  auto warm = make_instance(ModelKind::kMobile, 3, 1, 3);
  ValenceEngine warm_other(*warm.model, 2, Exactness::kQuiescence);
  store::Wal wal;
  ASSERT_TRUE(wal.open(*warm.model, file).ok());
  ASSERT_TRUE(wal.replay(*warm.model, warm.engine.get()).ok());
  EXPECT_EQ(warm.model->num_states(), cold.model->num_states());
  expect_nothing_queued(warm, warm_other);
}

// Compaction saves a snapshot, then resets the log to it, and nothing fences
// other connections' analysis in between. An entry inserted in that window
// is on neither file unless it stays queued through the reset.
TEST_F(StoreTest, WalResetKeepsEntriesInsertedAfterTheSnapshot) {
  const std::string snap = path("window.store");
  const std::string file = path("window.wal");
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  // Horizon 0 under kQuiescence: valence() memoizes without expanding a
  // layer, so it interns nothing.
  ValenceEngine engine(*model, 0, Exactness::kQuiescence);
  store::Wal wal;
  ASSERT_TRUE(wal.open(*model, file).ok());
  ASSERT_TRUE(wal.replay(*model, &engine).ok());
  const std::vector<StateId> frontier = reachable_by_depth(*model, 2).back();
  ASSERT_GE(frontier.size(), 2u);
  engine.valence(frontier[0]);
  ASSERT_TRUE(wal.append(*model, {&engine}).ok());

  store::SnapshotMeta meta;
  ASSERT_TRUE(store::save(*model, snap, &engine, &meta).ok());
  // The window: a fingerprint row for a state the snapshot holds and a memo
  // entry of the engine it carries.
  const StateId x = frontier[1];
  ASSERT_LT(x, meta.num_states);
  ASSERT_EQ(model->cached_fingerprint_row(x), nullptr);
  model->fingerprint_row(x);
  engine.valence(x);
  ASSERT_EQ(model->num_states(), meta.num_states);
  ASSERT_TRUE(
      wal.reset_to(*model, meta.num_views, meta.num_states, &engine).ok());
  ASSERT_TRUE(wal.append(*model, {&engine}).ok());
  wal.close();

  auto rule2 = min_after_round(2);
  auto fresh = make_model(ModelKind::kMobile, 3, 1, *rule2);
  ValenceEngine fresh_engine(*fresh, 0, Exactness::kQuiescence);
  ASSERT_TRUE(store::load(*fresh, snap, &fresh_engine).ok());
  store::Wal w;
  ASSERT_TRUE(w.open(*fresh, file).ok());
  ASSERT_TRUE(w.replay(*fresh, &fresh_engine).ok());
  EXPECT_NE(fresh->cached_fingerprint_row(x), nullptr);
  EXPECT_EQ(fingerprint_rows(*fresh), fingerprint_rows(*model));
  EXPECT_EQ(memo_tuples(fresh_engine.export_memo()),
            memo_tuples(engine.export_memo()));
}

// The same window when the other connections intern: states, their views,
// layer entries reaching past the snapshot, rows and memo entries all land
// after store::save captured its counts, and a commit may drain them into
// the log that reset_to then truncates. reset_to's epoch walk
// (LayeredModel::begin_log_epoch) must queue again every cache entry the
// snapshot lacks, so the snapshot and the new log recover the live model.
TEST_F(StoreTest, WalResetQueuesWhatWasInternedAfterTheSnapshot) {
  const std::string snap = path("race.store");
  const std::string file = path("race.wal");
  auto live = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::Wal wal;
  ASSERT_TRUE(wal.open(*live.model, file).ok());
  ASSERT_TRUE(wal.replay(*live.model, live.engine.get()).ok());
  analyze(live, 1);
  ASSERT_TRUE(wal.append(*live.model, {live.engine.get()}).ok());

  store::SnapshotMeta meta;
  ASSERT_TRUE(store::save(*live.model, snap, live.engine.get(), &meta).ok());
  analyze(live, 3);
  ASSERT_GT(live.model->num_states(), meta.num_states);
  ASSERT_GT(live.model->num_views(), meta.num_views);
  ASSERT_TRUE(wal.append(*live.model, {live.engine.get()}).ok());
  ASSERT_TRUE(live.model->drain_unpersisted(UINT64_MAX).empty());
  ASSERT_TRUE(wal.reset_to(*live.model, meta.num_views, meta.num_states,
                           live.engine.get())
                  .ok());
  ASSERT_TRUE(wal.append(*live.model, {live.engine.get()}).ok());
  wal.close();

  auto fresh = make_instance(ModelKind::kMobile, 3, 1, 3);
  ASSERT_TRUE(store::load(*fresh.model, snap, fresh.engine.get()).ok());
  store::Wal w;
  ASSERT_TRUE(w.open(*fresh.model, file).ok());
  ASSERT_TRUE(w.replay(*fresh.model, fresh.engine.get()).ok());
  EXPECT_EQ(view_hashes(*fresh.model), view_hashes(*live.model));
  EXPECT_EQ(state_hashes(*fresh.model), state_hashes(*live.model));
  EXPECT_EQ(fresh.model->export_layer_cache(),
            live.model->export_layer_cache());
  EXPECT_EQ(fingerprint_rows(*fresh.model), fingerprint_rows(*live.model));
  EXPECT_EQ(memo_tuples(fresh.engine->export_memo()),
            memo_tuples(live.engine->export_memo()));
}

// Body of WalFailedWriteKeepsDelta, run in a death-test child so the file
// size limit stays there. Returns 0 when every check holds.
int failed_write_child(const std::string& file) {
  const auto check = [](bool ok, const char* what) {
    if (!ok) std::fprintf(stderr, "failed_write_child: %s\n", what);
    return ok;
  };
  std::signal(SIGXFSZ, SIG_IGN);
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::Wal wal;
  if (!check(wal.open(*cold.model, file).ok(), "open") ||
      !check(wal.replay(*cold.model, cold.engine.get()).ok(), "replay")) {
    return 1;
  }
  const auto header_bytes = fs::file_size(file);
  rlimit old_limit{};
  if (!check(::getrlimit(RLIMIT_FSIZE, &old_limit) == 0, "getrlimit")) {
    return 1;
  }
  rlimit tight = old_limit;
  tight.rlim_cur = static_cast<rlim_t>(header_bytes);
  if (!check(::setrlimit(RLIMIT_FSIZE, &tight) == 0, "setrlimit")) return 1;

  // Every cache queues something: the layer cache, the memo and
  // fingerprint rows (the similarity sweep).
  analyze(cold, 2);
  const auto rows = fingerprint_rows(*cold.model);
  if (!check(std::any_of(rows.begin(), rows.end(),
                         [](const auto& row) { return !row.empty(); }),
             "rows to log")) {
    return 1;
  }
  const store::Result failed = wal.append(*cold.model, {cold.engine.get()});
  if (!check(failed.status == store::Status::kIoError, "append must fail") ||
      !check(fs::file_size(file) == header_bytes, "file kept its length")) {
    return 1;
  }
  if (!check(::setrlimit(RLIMIT_FSIZE, &old_limit) == 0, "restore limit") ||
      !check(wal.append(*cold.model, {cold.engine.get()}).ok(), "append")) {
    return 1;
  }
  wal.close();

  auto warm = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::Wal w;
  if (!check(w.open(*warm.model, file).ok(), "reopen") ||
      !check(w.replay(*warm.model, warm.engine.get()).ok(), "replay log")) {
    return 1;
  }
  const bool same =
      check(state_hashes(*warm.model) == state_hashes(*cold.model),
            "states") &&
      check(warm.model->export_layer_cache() ==
                cold.model->export_layer_cache(),
            "layer cache") &&
      check(memo_tuples(warm.engine->export_memo()) ==
                memo_tuples(cold.engine->export_memo()),
            "memo") &&
      check(fingerprint_rows(*warm.model) == fingerprint_rows(*cold.model),
            "fingerprint rows");
  return same ? 0 : 1;
}

// A write that fails (here: past the file-size limit) must hand its whole
// drained delta back — layer entries, memo entries and fingerprint rows —
// so the next append still logs all of it.
TEST_F(StoreTest, WalFailedWriteKeepsDelta) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string file = path("failed.wal");
  EXPECT_EXIT(std::exit(failed_write_child(file)),
              ::testing::ExitedWithCode(0), "");
}

// --- symmetry mode recording ------------------------------------------------

// A snapshot saved over the full space must never replay into an
// orbit-quotiented model (or vice versa): the file records the mode and
// mode-mismatched loads are refused typed, leaving the target untouched.
// msgpass declares kFull symmetry, so the knob genuinely flips its mode.
TEST_F(StoreTest, SymmetryMismatchedSnapshotRejected) {
  const std::string file = path("fullspace.store");
  {
    sym::ScopedSymmetry off(false);
    auto cold = make_instance(ModelKind::kMsgPass, 3, 1, 2);
    analyze(cold, 1);
    ASSERT_FALSE(cold.model->sym_quotient_active());
    store::SnapshotMeta meta;
    ASSERT_TRUE(
        store::save(*cold.model, file, cold.engine.get(), &meta).ok());
    EXPECT_FALSE(meta.symmetry);
  }
  sym::ScopedSymmetry on(true);
  auto warm = make_instance(ModelKind::kMsgPass, 3, 1, 2);
  ASSERT_TRUE(warm.model->sym_quotient_active());
  const store::Result r = store::load(*warm.model, file, warm.engine.get());
  EXPECT_EQ(r.status, store::Status::kSymmetryMismatch);
  EXPECT_EQ(warm.model->num_states(), 0u);
  EXPECT_EQ(warm.model->num_views(), 0u);
}

TEST_F(StoreTest, QuotientSnapshotRejectedByFullSpaceModel) {
  const std::string file = path("quotient.store");
  {
    sym::ScopedSymmetry on(true);
    auto cold = make_instance(ModelKind::kMsgPass, 3, 1, 2);
    analyze(cold, 1);
    ASSERT_TRUE(cold.model->sym_quotient_active());
    store::SnapshotMeta meta;
    ASSERT_TRUE(
        store::save(*cold.model, file, cold.engine.get(), &meta).ok());
    EXPECT_TRUE(meta.symmetry);
    // Same mode loads fine.
    auto same = make_instance(ModelKind::kMsgPass, 3, 1, 2);
    ASSERT_TRUE(store::load(*same.model, file, same.engine.get()).ok());
  }
  sym::ScopedSymmetry off(false);
  auto warm = make_instance(ModelKind::kMsgPass, 3, 1, 2);
  const store::Result r = store::load(*warm.model, file, warm.engine.get());
  EXPECT_EQ(r.status, store::Status::kSymmetryMismatch);
  EXPECT_EQ(warm.model->num_states(), 0u);
}

TEST_F(StoreTest, SymmetryMismatchedWalRefusedOnOpen) {
  const std::string file = path("fullspace.wal");
  {
    sym::ScopedSymmetry off(false);
    auto cold = make_instance(ModelKind::kMsgPass, 3, 1, 2);
    store::Wal wal;
    ASSERT_TRUE(wal.open(*cold.model, file).ok());
    ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
    analyze(cold, 1);
    ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  }
  sym::ScopedSymmetry on(true);
  auto warm = make_instance(ModelKind::kMsgPass, 3, 1, 2);
  store::Wal wal;
  const store::Result r = wal.open(*warm.model, file);
  EXPECT_EQ(r.status, store::Status::kSymmetryMismatch);
  EXPECT_FALSE(wal.is_open());
}

// --- files written by earlier builds: lemma facts are checked, then dropped

// Expects `a` and `b` to hold the same views, states, layer entries, memo
// entries and fingerprint rows.
void expect_same_content(Instance& a, Instance& b) {
  EXPECT_EQ(view_hashes(*a.model), view_hashes(*b.model));
  EXPECT_EQ(state_hashes(*a.model), state_hashes(*b.model));
  EXPECT_EQ(a.model->export_layer_cache(), b.model->export_layer_cache());
  EXPECT_EQ(memo_tuples(a.engine->export_memo()),
            memo_tuples(b.engine->export_memo()));
  EXPECT_EQ(fingerprint_rows(*a.model), fingerprint_rows(*b.model));
}

// A snapshot with a kLemmas section, laid out and sealed as earlier builds
// wrote it, loads exactly like the same content without the section.
TEST_F(StoreTest, SnapshotLemmaSectionIsCheckedAndDropped) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  analyze(cold, 2);
  const std::string plain = path("plain.store");
  ASSERT_TRUE(store::save(*cold.model, plain, cold.engine.get()).ok());
  const std::vector<char> crafted =
      store_bytes::with_lemma_section(read_file(plain), lemma_facts(5), 5);
  const std::string old = path("lemmas.store");
  write_file(old, crafted.data(), crafted.size());

  auto without = make_instance(ModelKind::kMobile, 3, 1, 3);
  ASSERT_TRUE(store::load(*without.model, plain, without.engine.get()).ok());
  ASSERT_FALSE(without.engine->export_memo().empty());
  auto& skipped = runtime::Stats::global().counter("store.lemmas_skipped");
  const std::uint64_t skipped_before = skipped.value();
  auto with = make_instance(ModelKind::kMobile, 3, 1, 3);
  store::SnapshotMeta meta;
  const store::Result r = store::load(*with.model, old, with.engine.get(), &meta);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(skipped.value(), skipped_before + 5);
  EXPECT_EQ(meta.file_bytes, crafted.size());
  expect_same_content(without, with);
}

// Lemma sections no earlier build wrote: each is refused kCorrupt before
// anything reaches the target. A count raised by 2^61 passes a size check
// of the form bytes == count * 24, because the product wraps.
TEST_F(StoreTest, CraftedLemmaSectionsAreRejected) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  analyze(cold, 2);
  const std::string file = path("plain.store");
  ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());
  const std::vector<char> saved = read_file(file);

  // Fact 1's lookahead sits at byte 24 + 16 of the payload, its flags at
  // 24 + 20.
  const std::vector<char> facts = lemma_facts(3);
  std::vector<char> bad_flag = facts;
  put<std::uint32_t>(bad_flag, 44, 4u | 1u);
  std::vector<char> bad_lookahead = facts;
  put<std::int32_t>(bad_lookahead, 40, -1);
  std::vector<char> ragged = facts;
  ragged.resize(facts.size() + 8, 0);
  struct Case {
    const char* what;
    std::vector<char> facts;
    std::uint64_t count;
  };
  const std::vector<Case> cases = {
      {"unknown flag bit", bad_flag, 3},
      {"lookahead -1", bad_lookahead, 3},
      {"count past its section", facts, 4},
      {"count wrapped by 2^61", facts, 3 + (std::uint64_t{1} << 61)},
      {"size not a whole number of facts", ragged, 3},
  };
  for (const Case& c : cases) {
    const std::vector<char> bytes =
        store_bytes::with_lemma_section(saved, c.facts, c.count);
    const std::string edited = path("edited.store");
    write_file(edited, bytes.data(), bytes.size());

    auto target = make_instance(ModelKind::kMobile, 3, 1, 3);
    store::Result r;
    EXPECT_NO_THROW(r = store::load(*target.model, edited,
                                    target.engine.get()))
        << c.what;
    EXPECT_EQ(r.status, store::Status::kCorrupt) << c.what << ": " << r.detail;
    EXPECT_EQ(target.model->num_states(), 0u) << c.what;
    EXPECT_EQ(target.model->num_views(), 0u) << c.what;
    EXPECT_TRUE(target.engine->export_memo().empty()) << c.what;
  }
}

// Where a WAL record body's fingerprint rows end, walking it the way replay
// decodes it: the offset at which earlier builds wrote the lemma block.
std::size_t fingerprints_end(const std::vector<char>& body,
                             const LayeredModel& model) {
  namespace codec = store::codec;
  const int n = model.n();
  codec::Reader r(as_bytes(body, 0), body.size());
  codec::RecordBatch batch;
  std::uint64_t seq = 0, new_views = 0, new_states = 0, layers = 0, rows = 0;
  std::uint32_t memo_present = 0, reserved = 0;
  const bool ok =
      r.u64(&seq) && r.u64(&batch.base_views) && r.u64(&new_views) &&
      r.u64(&batch.base_states) && r.u64(&new_states) &&
      codec::decode_views(r, new_views, n, &batch) &&
      codec::decode_states(r, new_states, model, &batch) && r.u64(&layers) &&
      codec::decode_layers(r, layers, &batch) && r.u32(&memo_present) &&
      r.u32(&reserved) &&
      (memo_present == 0 || codec::decode_memo(r, &batch)) && r.u64(&rows) &&
      codec::decode_rows(r, rows, n, &batch);
  EXPECT_TRUE(ok) << "record " << seq;
  return body.size() - r.remaining();
}

// A lemma block as earlier builds ended every WAL record: u64 count, then
// the facts.
std::vector<char> lemma_block(std::uint64_t count,
                              const std::vector<char>& facts) {
  std::vector<char> out(8 + facts.size());
  put<std::uint64_t>(out, 0, count);
  std::copy(facts.begin(), facts.end(), out.begin() + 8);
  return out;
}

// `wal`, whose records start at `header_end`, with record i ended by
// `blocks[i]`: each block goes right after the fingerprint rows, the body
// is padded to 8 again and its frame re-sealed.
std::vector<char> with_lemma_blocks(const std::vector<char>& wal,
                                    std::size_t header_end,
                                    const LayeredModel& model,
                                    const std::vector<std::vector<char>>& blocks) {
  std::vector<char> out(wal.begin(), wal.begin() + header_end);
  std::size_t at = header_end;
  for (const std::vector<char>& block : blocks) {
    const auto body_bytes = get<std::uint64_t>(wal, at + 8);
    std::vector<char> frame(wal.begin() + at, wal.begin() + at + 24);
    std::vector<char> body(wal.begin() + at + 24,
                           wal.begin() + at + 24 + body_bytes);
    body.resize(fingerprints_end(body, model));
    body.insert(body.end(), block.begin(), block.end());
    body.resize((body.size() + 7) / 8 * 8, 0);
    put<std::uint64_t>(frame, 8, body.size());
    put<std::uint64_t>(frame, 16,
                       store::codec::fnv1a(as_bytes(body, 0), body.size()));
    out.insert(out.end(), frame.begin(), frame.end());
    out.insert(out.end(), body.begin(), body.end());
    at += 24 + body_bytes;
  }
  EXPECT_EQ(at, wal.size()) << "a record without a block";
  return out;
}

// A log of three records: a full delta and a memo-only record (one round
// over the instance's engine and `second`, at horizon 2), then a second
// delta. Returns where the records start.
std::size_t write_three_records(Instance& cold, ValenceEngine& second,
                                const std::string& file) {
  store::Wal wal;
  EXPECT_TRUE(wal.open(*cold.model, file).ok());
  EXPECT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
  const auto header_end = static_cast<std::size_t>(fs::file_size(file));
  second.classify_all(analyze(cold, 1));
  EXPECT_TRUE(wal.append(*cold.model, {cold.engine.get(), &second}).ok());
  analyze(cold, 2);
  EXPECT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  EXPECT_EQ(wal.records_appended(), 3u);
  return header_end;
}

// A WAL whose records end in lemma blocks, as earlier builds ended every
// record, replays exactly like the same records without them.
TEST_F(StoreTest, WalLemmaBlocksAreCheckedAndDropped) {
  const std::string file = path("plain.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  ValenceEngine second(*cold.model, 2, Exactness::kQuiescence);
  const std::size_t header_end = write_three_records(cold, second, file);
  const std::vector<char> crafted = with_lemma_blocks(
      read_file(file), header_end, *cold.model,
      {lemma_block(2, lemma_facts(2)), lemma_block(0, {}),
       lemma_block(3, lemma_facts(3))});
  const std::string old = path("lemmas.wal");
  write_file(old, crafted.data(), crafted.size());

  // Each horizon's engine takes its own memo blocks from the same records.
  for (const int horizon : {3, 2}) {
    auto without = make_instance(ModelKind::kMobile, 3, 1, horizon);
    store::Wal plain_wal;
    ASSERT_TRUE(plain_wal.open(*without.model, file).ok());
    ASSERT_TRUE(plain_wal.replay(*without.model, without.engine.get()).ok());
    ASSERT_FALSE(without.engine->export_memo().empty()) << horizon;

    auto with = make_instance(ModelKind::kMobile, 3, 1, horizon);
    store::Wal old_wal;
    ASSERT_TRUE(old_wal.open(*with.model, old).ok());
    store::WalReplayStats rs;
    const store::Result r = old_wal.replay(*with.model, with.engine.get(), &rs);
    ASSERT_TRUE(r.ok()) << r.detail;
    EXPECT_EQ(rs.records_applied, 3u) << horizon;
    EXPECT_EQ(rs.truncated_bytes, 0u) << horizon;
    expect_same_content(without, with);
  }
}

// Lemma blocks no earlier build wrote count as damage even with a valid
// checksum: the torn-tail rule truncates the log from that record.
TEST_F(StoreTest, WalRecordWithMalformedLemmaBlockIsTruncated) {
  const std::string file = path("plain.wal");
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 3);
  ValenceEngine second(*cold.model, 2, Exactness::kQuiescence);
  const std::size_t header_end = write_three_records(cold, second, file);
  const std::vector<char> saved = read_file(file);

  const std::vector<char> facts = lemma_facts(3);
  std::vector<char> bad_flag = facts;
  put<std::uint32_t>(bad_flag, 44, 4u | 1u);
  std::vector<char> bad_lookahead = facts;
  put<std::int32_t>(bad_lookahead, 40, -1);
  struct Case {
    const char* what;
    std::vector<char> block;
  };
  const std::vector<Case> cases = {
      {"unknown flag bit", lemma_block(3, bad_flag)},
      {"lookahead -1", lemma_block(3, bad_lookahead)},
      {"count past its body", lemma_block(4, facts)},
      {"count wrapped by 2^61",
       lemma_block(3 + (std::uint64_t{1} << 61), facts)},
  };
  for (const Case& c : cases) {
    // The second record, the memo-only one, carries the damage.
    const std::vector<char> bytes =
        with_lemma_blocks(saved, header_end, *cold.model,
                          {lemma_block(1, lemma_facts(1)), c.block,
                           lemma_block(0, {})});
    const std::size_t boundary =
        header_end + 24 + get<std::uint64_t>(bytes, header_end + 8);
    const std::string edited = path("edited.wal");
    write_file(edited, bytes.data(), bytes.size());

    auto target = make_instance(ModelKind::kMobile, 3, 1, 3);
    ValenceEngine target_second(*target.model, 2, Exactness::kQuiescence);
    store::Wal w;
    ASSERT_TRUE(w.open(*target.model, edited).ok()) << c.what;
    store::WalReplayStats rs;
    const store::Result r = w.replay(*target.model, &target_second, &rs);
    ASSERT_TRUE(r.ok()) << c.what << ": " << r.detail;
    EXPECT_EQ(rs.records_applied, 1u) << c.what;
    EXPECT_EQ(rs.truncated_bytes, bytes.size() - boundary) << c.what;
    EXPECT_EQ(fs::file_size(edited), boundary) << c.what;
    EXPECT_TRUE(target_second.export_memo().empty()) << c.what;
  }
}

// --- one record path: the shared rules, through both formats ---------------

// Where the records a rule edit targets sit in a snapshot or in one log
// record, and the id horizons those records must respect.
struct Targets {
  std::size_t view = 0;  // a view record with observations
  std::uint64_t view_id = 0;
  std::size_t state = 0;  // the first state record
  std::uint64_t states = 0;  // records in the state block
  std::size_t layer = 0;  // the first layer-cache entry
  std::size_t memo = 0;   // the first memo entry
  std::size_t row = 0;    // the first fingerprint row
  std::uint64_t views_end = 0;
  std::uint64_t states_end = 0;
};

// Walks `count` view records from `at`: the first one with observations
// goes into `t`; returns where the block ends.
std::size_t walk_views(const std::vector<char>& bytes, std::size_t at,
                       std::uint64_t first_id, std::uint64_t count,
                       Targets* t) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto obs = get<std::uint32_t>(bytes, at + 16);
    if (obs > 0 && t->view == 0) {
      t->view = at;
      t->view_id = first_id + i;
    }
    at += 20 + 8 * std::size_t{obs};
  }
  EXPECT_NE(t->view, 0u) << "no view with observations";
  return at;
}

// One edit per rule the shared block decoders check (FORMATS.md §1.4–1.8).
struct Rule {
  const char* what;
  void (*edit)(std::vector<char>&, const Targets&);
};
const Rule kRules[] = {
    {"view owner n",
     [](std::vector<char>& b, const Targets& t) {
       put<std::int32_t>(b, t.view, 3);
     }},
    {"view prev = own id",
     [](std::vector<char>& b, const Targets& t) {
       put<std::int32_t>(b, t.view + 12, static_cast<std::int32_t>(t.view_id));
     }},
    {"view observes view 5,000,000",
     [](std::vector<char>& b, const Targets& t) {
       put<std::int32_t>(b, t.view + 24, 5'000'000);
     }},
    {"observation source n",
     [](std::vector<char>& b, const Targets& t) {
       put<std::int32_t>(b, t.view + 20, 3);
     }},
    {"state local past the views",
     [](std::vector<char>& b, const Targets& t) {
       const auto env = get<std::uint64_t>(b, t.state);
       put<std::int32_t>(b, t.state + 8 + 8 * env,
                         static_cast<std::int32_t>(t.views_end));
     }},
    {"layer key past the states",
     [](std::vector<char>& b, const Targets& t) {
       put<std::uint32_t>(b, t.layer, static_cast<std::uint32_t>(t.states_end));
     }},
    {"layer successor past the states",
     [](std::vector<char>& b, const Targets& t) {
       ASSERT_GT(get<std::uint32_t>(b, t.layer + 4), 0u);
       put<std::uint32_t>(b, t.layer + 8,
                          static_cast<std::uint32_t>(t.states_end));
     }},
    {"memo key past the states",
     [](std::vector<char>& b, const Targets& t) {
       put<std::uint32_t>(b, t.memo, static_cast<std::uint32_t>(t.states_end));
     }},
    {"row key past the states",
     [](std::vector<char>& b, const Targets& t) {
       put<std::uint32_t>(b, t.row, static_cast<std::uint32_t>(t.states_end));
     }},
};

// A snapshot of a `kind` instance (n=3) analyzed to depth 1, saved to
// `file`, and where its record blocks sit.
void save_rules_snapshot(ModelKind kind, const std::string& file,
                         std::vector<char>* bytes, Targets* t) {
  using store::SectionKind;
  auto cold = make_instance(kind, 3, 1, 2);
  analyze(cold, 1);
  ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());
  *bytes = read_file(file);
  t->views_end = section_count(*bytes, SectionKind::kViews);
  t->states_end = section_count(*bytes, SectionKind::kStates);
  t->states = t->states_end;
  walk_views(*bytes, section_at(*bytes, SectionKind::kViews), 0, t->views_end,
             t);
  t->state = section_at(*bytes, SectionKind::kStates);
  t->layer = section_at(*bytes, SectionKind::kLayerCache);
  t->memo = section_at(*bytes, SectionKind::kValenceMemo) + 16;
  t->row = section_at(*bytes, SectionKind::kFingerprints);
}

// Loading the edited snapshot `bytes` into a fresh `kind` instance is
// refused kCorrupt with nothing restored.
void expect_snapshot_refused(ModelKind kind, const std::vector<char>& bytes,
                             const std::string& file,
                             const std::string& what) {
  write_file(file, bytes.data(), bytes.size());
  auto target = make_instance(kind, 3, 1, 2);
  const store::Result r = store::load(*target.model, file, target.engine.get());
  EXPECT_EQ(r.status, store::Status::kCorrupt) << what << ": " << r.detail;
  EXPECT_EQ(target.model->num_views(), 0u) << what;
  EXPECT_EQ(target.model->num_states(), 0u) << what;
  EXPECT_TRUE(target.engine->export_memo().empty()) << what;
}

// Every rule, in a snapshot whose checksums and digests are re-sealed
// around the edit: refused kCorrupt with nothing restored. So are the two
// digest mismatches, which only a snapshot carries.
TEST_F(StoreTest, SnapshotRecordRulesRefuseAndRestoreNothing) {
  using store::SectionKind;
  std::vector<char> saved;
  Targets t;
  save_rules_snapshot(ModelKind::kMobile, path("rules.store"), &saved, &t);
  for (const Rule& rule : kRules) {
    std::vector<char> bytes = saved;
    rule.edit(bytes, t);
    reseal_snapshot(bytes);
    expect_snapshot_refused(ModelKind::kMobile, bytes, path("edited.store"),
                            rule.what);
  }
  for (const SectionKind kind :
       {SectionKind::kViewDigests, SectionKind::kStateDigests}) {
    std::vector<char> bytes = saved;
    const std::size_t at = section_at(bytes, kind);
    put<std::uint64_t>(bytes, at, get<std::uint64_t>(bytes, at) + 1);
    reseal_snapshot(bytes, /*digests=*/false);
    expect_snapshot_refused(ModelKind::kMobile, bytes, path("edited.store"),
                            "digest mismatch in section kind " +
                                std::to_string(static_cast<int>(kind)));
  }
}

// A log of two records for a `kind` instance (n=3): the initial states,
// then a depth-1 analysis. What replay must keep when record 2 is cut.
struct RulesLog {
  std::vector<char> bytes;
  std::size_t boundary = 0;  // where record 2 starts
  std::size_t first_views = 0;
  std::size_t first_states = 0;
  Targets t;  // in record 2
};

void write_rules_log(ModelKind kind, const std::string& file, RulesLog* log) {
  auto cold = make_instance(kind, 3, 1, 2);
  store::Wal wal;
  ASSERT_TRUE(wal.open(*cold.model, file).ok());
  ASSERT_TRUE(wal.replay(*cold.model, cold.engine.get()).ok());
  reachable_by_depth(*cold.model, 0);
  ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  log->first_views = cold.model->num_views();
  log->first_states = cold.model->num_states();
  log->boundary = static_cast<std::size_t>(fs::file_size(file));
  analyze(cold, 1);
  ASSERT_TRUE(wal.append(*cold.model, {cold.engine.get()}).ok());
  wal.close();
  log->bytes = read_file(file);

  // Record 2's body (FORMATS.md §2.3): seq and the four id counts, then
  // the view, state, layer, memo and row blocks.
  const std::vector<char>& saved = log->bytes;
  Targets& t = log->t;
  const std::size_t body = log->boundary + 24;
  const auto base_views = get<std::uint64_t>(saved, body + 8);
  const auto new_views = get<std::uint64_t>(saved, body + 16);
  const auto base_states = get<std::uint64_t>(saved, body + 24);
  t.states = get<std::uint64_t>(saved, body + 32);
  t.views_end = base_views + new_views;
  t.states_end = base_states + t.states;
  t.state = walk_views(saved, body + 40, base_views, new_views, &t);
  std::size_t at = t.state;
  for (std::uint64_t i = 0; i < t.states; ++i) {
    at += 8 + 8 * get<std::uint64_t>(saved, at) + 8 * 3;
  }
  const auto layers = get<std::uint64_t>(saved, at);
  ASSERT_GT(layers, 0u);
  t.layer = at + 8;
  at = t.layer;
  for (std::uint64_t i = 0; i < layers; ++i) {
    at += 8 + 4 * std::size_t{get<std::uint32_t>(saved, at + 4)};
  }
  ASSERT_EQ(get<std::uint32_t>(saved, at), 1u);  // memo present
  ASSERT_GT(get<std::uint64_t>(saved, at + 16), 0u);
  t.memo = at + 24;
  at = t.memo + 12 * get<std::uint64_t>(saved, at + 16);
  ASSERT_GT(get<std::uint64_t>(saved, at), 0u);
  t.row = at + 8;
}

// Re-seals the body checksum of the log record framed at `boundary`.
void reseal_record(std::vector<char>& bytes, std::size_t boundary) {
  const auto body_bytes = get<std::uint64_t>(bytes, boundary + 8);
  put<std::uint64_t>(
      bytes, boundary + 16,
      store::codec::fnv1a(as_bytes(bytes, boundary + 24), body_bytes));
}

// `bytes`, `log` with record 2 edited, its body checksum re-sealed: replay
// into a fresh `kind` instance cuts the log at record 2 and keeps record 1.
void expect_log_cut(ModelKind kind, std::vector<char> bytes,
                    const RulesLog& log, const std::string& file,
                    const std::string& what) {
  reseal_record(bytes, log.boundary);
  write_file(file, bytes.data(), bytes.size());

  auto target = make_instance(kind, 3, 1, 2);
  store::Wal w;
  ASSERT_TRUE(w.open(*target.model, file).ok()) << what;
  store::WalReplayStats rs;
  const store::Result r = w.replay(*target.model, target.engine.get(), &rs);
  ASSERT_TRUE(r.ok()) << what << ": " << r.detail;
  EXPECT_EQ(rs.records_applied, 1u) << what;
  EXPECT_EQ(rs.truncated_bytes, bytes.size() - log.boundary) << what;
  EXPECT_EQ(fs::file_size(file), log.boundary) << what;
  EXPECT_EQ(target.model->num_views(), log.first_views) << what;
  EXPECT_EQ(target.model->num_states(), log.first_states) << what;
}

// Every rule, in the second record of a log whose body checksum is
// re-sealed around the edit: replay cuts the log at that record and keeps
// the first.
TEST_F(StoreTest, WalRecordRulesCutTheLogAtTheRecord) {
  RulesLog log;
  write_rules_log(ModelKind::kMobile, path("rules.wal"), &log);
  for (const Rule& rule : kRules) {
    std::vector<char> bytes = log.bytes;
    rule.edit(bytes, log.t);
    expect_log_cut(ModelKind::kMobile, bytes, log, path("edited.wal"),
                   rule.what);
  }
}

// Environment words the model reads as view ids and process indices
// (FORMATS.md §1.3, LayeredModel::env_well_formed): edits the first state
// record of the block `t` names that has an environment. A shared-memory
// register file's first register comes to name view t.views_end, past the
// horizon; a message-passing env's first message comes to be addressed to
// process n.
void craft_env(std::vector<char>& bytes, const Targets& t, ModelKind kind) {
  constexpr int n = 3;
  std::size_t at = t.state;
  for (std::uint64_t i = 0; i < t.states; ++i) {
    const auto env = get<std::uint64_t>(bytes, at);
    if (env == 0) {
      at += 8 + 8 * n;
      continue;
    }
    const auto word = get<std::int64_t>(bytes, at + 8);
    put<std::int64_t>(bytes, at + 8,
                      kind == ModelKind::kSharedMem
                          ? static_cast<std::int64_t>(t.views_end)
                          : (word & ~(std::int64_t{0xff} << 32)) |
                                std::int64_t{n} << 32);
    return;
  }
  ADD_FAILURE() << "no state record with an environment";
}

void expect_snapshot_refuses_env(const std::string& dir, ModelKind kind) {
  std::vector<char> bytes;
  Targets t;
  save_rules_snapshot(kind, dir + "/env.store", &bytes, &t);
  craft_env(bytes, t, kind);
  reseal_snapshot(bytes);
  expect_snapshot_refused(kind, bytes, dir + "/edited.store", "env word");
}

void expect_log_cut_at_env(const std::string& dir, ModelKind kind) {
  RulesLog log;
  write_rules_log(kind, dir + "/env.wal", &log);
  std::vector<char> bytes = log.bytes;
  craft_env(bytes, log.t, kind);
  expect_log_cut(kind, bytes, log, dir + "/edited.wal", "env word");
}

TEST_F(StoreTest, SnapshotRegisterPastTheViewsIsRefused) {
  expect_snapshot_refuses_env(dir_.string(), ModelKind::kSharedMem);
}

TEST_F(StoreTest, SnapshotMessageToProcessNIsRefused) {
  expect_snapshot_refuses_env(dir_.string(), ModelKind::kMsgPass);
}

TEST_F(StoreTest, WalRegisterPastTheViewsCutsTheLog) {
  expect_log_cut_at_env(dir_.string(), ModelKind::kSharedMem);
}

TEST_F(StoreTest, WalMessageToProcessNCutsTheLog) {
  expect_log_cut_at_env(dir_.string(), ModelKind::kMsgPass);
}

// --- records larger than one arena pool region (FORMATS.md §1.3) ---------

// An interned view or state is one pool region of at most
// WordPool::kMaxRegionWords = 65,536 words. At n = 3 a view of 65,532
// observations ((3 known-input lanes + 5 head lanes + 2 * 65,532 + 1) / 2
// words) and a state of 65,532 env words (plus 2 * 2 lane words) fill one
// exactly; one more observation or env word is one too many.
constexpr std::uint32_t kLargestFit = 65'532;

// Grows the view record at `at` to `obs` observations, appending
// (source 2, kNoView) pairs after its own so they stay sorted by source.
// Returns the bytes inserted, 8 per pair, so every later record keeps its
// alignment.
std::size_t grow_view(std::vector<char>& bytes, std::size_t at,
                      std::uint32_t obs) {
  const auto had = get<std::uint32_t>(bytes, at + 16);
  std::vector<char> pairs(8 * std::size_t{obs - had});
  for (std::size_t i = 0; i < pairs.size(); i += 8) {
    put<std::int32_t>(pairs, i, 2);
    put<std::int32_t>(pairs, i + 4, kNoView);
  }
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at + 20 + 8 * had),
               pairs.begin(), pairs.end());
  put<std::uint32_t>(bytes, at + 16, obs);
  return pairs.size();
}

// Grows the state record at `at` to `env_len` environment words (zeros
// after its own; the mobile model takes any environment). Returns the
// bytes inserted.
std::size_t grow_env(std::vector<char>& bytes, std::size_t at,
                     std::uint64_t env_len) {
  const auto had = get<std::uint64_t>(bytes, at);
  const std::size_t extra = 8 * static_cast<std::size_t>(env_len - had);
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at + 8 + 8 * had),
               extra, 0);
  put<std::uint64_t>(bytes, at, env_len);
  return extra;
}

// The snapshot `saved` (save_rules_snapshot, targets `t`) with its first
// view with observations (`view`) or its first state grown to `size`: the
// section grows, every section after it moves, and the file is re-sealed.
std::vector<char> with_grown_record(const std::vector<char>& saved,
                                    const Targets& t, bool view,
                                    std::uint32_t size) {
  using store::SectionKind;
  std::vector<char> bytes = saved;
  const std::size_t extra = view ? grow_view(bytes, t.view, size)
                                 : grow_env(bytes, t.state, size);
  const std::size_t grown = section_entry(
      bytes, view ? SectionKind::kViews : SectionKind::kStates);
  const auto from = get<std::uint64_t>(bytes, grown + 8);
  put<std::uint64_t>(bytes, grown + 16,
                     get<std::uint64_t>(bytes, grown + 16) + extra);
  const auto sections = get<std::uint32_t>(bytes, store_bytes::kPrelude + 24);
  const std::size_t table_at = store_bytes::kPrelude +
                               get<std::uint32_t>(bytes, 12) -
                               store_bytes::kEntry * sections;
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::size_t offset_at = table_at + store_bytes::kEntry * i + 8;
    const auto offset = get<std::uint64_t>(bytes, offset_at);
    if (offset > from) put<std::uint64_t>(bytes, offset_at, offset + extra);
  }
  reseal_snapshot(bytes);
  return bytes;
}

TEST_F(StoreTest, SnapshotRecordLargerThanAPoolRegionIsRefused) {
  std::vector<char> saved;
  Targets t;
  save_rules_snapshot(ModelKind::kMobile, path("big.store"), &saved, &t);
  expect_snapshot_refused(ModelKind::kMobile,
                          with_grown_record(saved, t, true, kLargestFit + 1),
                          path("edited.store"), "view one observation over");
  expect_snapshot_refused(ModelKind::kMobile,
                          with_grown_record(saved, t, false, kLargestFit + 1),
                          path("edited.store"), "state one env word over");
  for (const bool view : {true, false}) {
    const std::vector<char> bytes =
        with_grown_record(saved, t, view, kLargestFit);
    const std::string file = path("largest.store");
    write_file(file, bytes.data(), bytes.size());
    auto target = make_instance(ModelKind::kMobile, 3, 1, 2);
    const store::Result r =
        store::load(*target.model, file, target.engine.get());
    ASSERT_TRUE(r.ok()) << r.detail;
    ASSERT_EQ(target.model->num_views(), t.views_end);
    ASSERT_EQ(target.model->num_states(), t.states_end);
    EXPECT_EQ(view ? target.model->views()
                         .node(static_cast<ViewId>(t.view_id))
                         .obs.size()
                   : target.model->state(0).env.size(),
              kLargestFit);
  }
}

TEST_F(StoreTest, WalRecordLargerThanAPoolRegionCutsTheLog) {
  RulesLog log;
  write_rules_log(ModelKind::kMobile, path("big.wal"), &log);
  for (const std::uint32_t size : {kLargestFit + 1, kLargestFit}) {
    for (const bool view : {true, false}) {
      std::vector<char> bytes = log.bytes;
      const std::size_t extra = view ? grow_view(bytes, log.t.view, size)
                                     : grow_env(bytes, log.t.state, size);
      put<std::uint64_t>(
          bytes, log.boundary + 8,
          get<std::uint64_t>(bytes, log.boundary + 8) + extra);
      const std::string what = std::string(view ? "view" : "state") +
                               " of size " + std::to_string(size);
      if (size > kLargestFit) {
        expect_log_cut(ModelKind::kMobile, bytes, log, path("edited.wal"),
                       what);
        continue;
      }
      reseal_record(bytes, log.boundary);
      const std::string file = path("largest.wal");
      write_file(file, bytes.data(), bytes.size());
      auto target = make_instance(ModelKind::kMobile, 3, 1, 2);
      store::Wal w;
      ASSERT_TRUE(w.open(*target.model, file).ok()) << what;
      store::WalReplayStats rs;
      const store::Result r =
          w.replay(*target.model, target.engine.get(), &rs);
      ASSERT_TRUE(r.ok()) << what << ": " << r.detail;
      EXPECT_EQ(rs.records_applied, 2u) << what;
      EXPECT_EQ(rs.truncated_bytes, 0u) << what;
      EXPECT_EQ(target.model->num_views(), log.t.views_end) << what;
      EXPECT_EQ(target.model->num_states(), log.t.states_end) << what;
    }
  }
}

// v1 knows section kinds 1..8, each once (FORMATS.md §1.3): a kind-99
// section and a second layer-cache section are refused, with the header
// checksum re-sealed around the edit.
TEST_F(StoreTest, UnknownOrRepeatedSectionKindsAreRefused) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 2);
  analyze(cold, 1);
  const std::string file = path("kinds.store");
  ASSERT_TRUE(store::save(*cold.model, file, cold.engine.get()).ok());
  const std::vector<char> saved = read_file(file);
  const std::size_t entry =
      section_entry(saved, store::SectionKind::kFingerprints);
  ASSERT_NE(entry, 0u);
  for (const std::uint32_t kind :
       {99u, static_cast<std::uint32_t>(store::SectionKind::kLayerCache)}) {
    std::vector<char> bytes = saved;
    put<std::uint32_t>(bytes, entry, kind);
    reseal_snapshot(bytes, /*digests=*/false);
    const std::string edited = path("edited.store");
    write_file(edited, bytes.data(), bytes.size());
    auto target = make_instance(ModelKind::kMobile, 3, 1, 2);
    const store::Result r =
        store::load(*target.model, edited, target.engine.get());
    EXPECT_EQ(r.status, store::Status::kCorrupt) << kind << ": " << r.detail;
    EXPECT_EQ(target.model->num_views(), 0u) << kind;
  }
}

// A record that repeats an earlier record's content passes every record
// rule and is caught only while applying (FORMATS.md §1.3): kCorrupt, with
// the records before it restored, so the target must be discarded.
TEST_F(StoreTest, DuplicateRecordIsRefusedWhileApplying) {
  auto cold = make_instance(ModelKind::kMobile, 3, 1, 2);
  analyze(cold, 1);
  const std::string file = path("duplicate.store");
  ASSERT_TRUE(store::save(*cold.model, file, nullptr).ok());
  std::vector<char> bytes = read_file(file);
  // Views 0 and 1 are 20-byte initial views; view 1 becomes a copy of 0.
  const std::size_t views = section_at(bytes, store::SectionKind::kViews);
  ASSERT_EQ(get<std::uint32_t>(bytes, views + 16), 0u);
  ASSERT_EQ(get<std::uint32_t>(bytes, views + 36), 0u);
  std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(views), 20,
              bytes.begin() + static_cast<std::ptrdiff_t>(views + 20));
  reseal_snapshot(bytes);
  const std::string edited = path("edited.store");
  write_file(edited, bytes.data(), bytes.size());

  auto target = make_instance(ModelKind::kMobile, 3, 1, 2);
  const store::Result r = store::load(*target.model, edited, nullptr);
  EXPECT_EQ(r.status, store::Status::kCorrupt) << r.detail;
  EXPECT_NE(r.detail.find("view replay diverged at id 1"), std::string::npos)
      << r.detail;
  EXPECT_EQ(target.model->num_views(), 1u);
}

// --- files an earlier build wrote ------------------------------------------

// tests/golden/store/ holds a snapshot and its log as an earlier build wrote
// them: mobile n=3 t=1 explored to depth 1, a horizon-1 memo of the initial
// states and the depth-1 fingerprint rows; then a log of three records — the
// depth-2 exploration, the valence and similarity of its frontier, and one
// novel view with a state holding it, whose odd view count leaves the
// record's state block 4-aligned (FORMATS.md §2.3). Both load and replay in
// full, the snapshot re-saves byte for byte, and the replayed space answers
// a depth-2 layers query as the writing build did without interning
// anything.
TEST_F(StoreTest, FilesAnEarlierBuildWroteLoadReplayAndResave) {
  const std::string golden =
      std::string(LACON_GOLDEN_STORE_DIR) + "/mobile_n3_t1.lacon.store";
  const std::string snap = path("golden.store");
  const std::string log = snap + ".wal";
  fs::copy_file(golden, snap);
  fs::copy_file(golden + ".wal", log);

  auto warm = make_instance(ModelKind::kMobile, 3, 1, 1);
  store::SnapshotMeta meta;
  const store::Result r =
      store::load(*warm.model, snap, warm.engine.get(), &meta);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(meta.num_views, 54u);
  EXPECT_EQ(meta.num_states, 64u);
  EXPECT_EQ(meta.layer_entries, 8u);
  EXPECT_EQ(meta.memo_entries, 64u);
  EXPECT_EQ(meta.fingerprint_rows, 56u);
  const std::string resaved = path("resaved.store");
  ASSERT_TRUE(store::save(*warm.model, resaved, warm.engine.get()).ok());
  EXPECT_TRUE(read_file(resaved) == read_file(golden));

  store::Wal wal;
  ASSERT_TRUE(wal.open(*warm.model, log).ok());
  store::WalReplayStats rs;
  const store::Result replayed =
      wal.replay(*warm.model, warm.engine.get(), &rs);
  ASSERT_TRUE(replayed.ok()) << replayed.detail;
  EXPECT_EQ(rs.records_applied, 3u);
  EXPECT_EQ(rs.records_skipped, 0u);
  EXPECT_EQ(rs.truncated_bytes, 0u);
  EXPECT_EQ(warm.model->num_views(), 439u);
  EXPECT_EQ(warm.model->num_states(), 457u);

  auto& misses = runtime::Stats::global().counter("arena.state_misses");
  const std::uint64_t misses_before = misses.value();
  std::vector<std::size_t> sizes;
  for (const auto& level : reachable_by_depth(*warm.model, 2)) {
    sizes.push_back(level.size());
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{8, 56, 392}));
  EXPECT_EQ(misses.value(), misses_before);
}

// --- env knob parsing (the warn-once contract) ----------------------------

TEST(StoreEnvTest, ParseDirLengthGuard) {
  EXPECT_EQ(store::parse_dir(nullptr, "fallback"), "fallback");
  EXPECT_EQ(store::parse_dir("", "fallback"), "fallback");
  EXPECT_EQ(store::parse_dir("/var/lib/lacon", "fallback"), "/var/lib/lacon");
  // The ERANGE analogue: a plausible prefix of absurd length falls back.
  const std::string absurd(store::kMaxDirLength + 1, 'x');
  EXPECT_EQ(store::parse_dir(absurd.c_str(), "fallback"), "fallback");
  const std::string exactly_max(store::kMaxDirLength, 'x');
  EXPECT_EQ(store::parse_dir(exactly_max.c_str(), "fallback"), exactly_max);
}

TEST(StoreEnvTest, SnapshotFilenameSanitizes) {
  EXPECT_EQ(store::snapshot_filename("M^mf/S1", 3, 1),
            "M_mf_S1.n3.t1.lacon.store");
  EXPECT_EQ(store::snapshot_filename("Sync/S^t", 4, 2),
            "Sync_S_t.n4.t2.lacon.store");
  EXPECT_EQ(store::snapshot_path("/data", "M^mf/S1", 3, 1),
            "/data/M_mf_S1.n3.t1.lacon.store");
  EXPECT_EQ(store::snapshot_path("/data/", "M^mf/S1", 3, 1),
            "/data/M_mf_S1.n3.t1.lacon.store");
}

TEST(StoreEnvTest, ParseWalKeywords) {
  EXPECT_FALSE(store::parse_wal("off", true));
  EXPECT_TRUE(store::parse_wal("on", false));
  // Null/empty fall back silently; malformed values fall back with a warn.
  EXPECT_TRUE(store::parse_wal(nullptr, true));
  EXPECT_FALSE(store::parse_wal("", false));
  EXPECT_FALSE(store::parse_wal("ON", false));
  EXPECT_FALSE(store::parse_wal("1", false));
  EXPECT_FALSE(store::parse_wal("yes", false));
}

TEST(StoreEnvTest, WalPathRidesSnapshotPath) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  EXPECT_EQ(store::wal_path(*model), store::snapshot_path(*model) + ".wal");
}

}  // namespace
}  // namespace lacon
