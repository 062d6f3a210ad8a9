// T12 — Runtime-dispatched SIMD kernels (util/simd.hpp, DESIGN.md §13).
//
// Per-kernel scalar-vs-dispatched A/B over the four hot loops the kernel
// table serves — agree_modulo word/lane compares, erase-one fingerprint
// rows, DenseBitset bulk sweeps, and the BFS frontier-advance step behind
// Graph::diameter — plus an end-to-end n=8 explore + similarity + diameter
// workload per table. Benchmarks are registered once per kernel table the
// host can execute (always "scalar"; "avx2" where supported), so
// names stay stable per host family and the ci.sh baseline gate compares
// like with like. The printed T12 table reports the per-kernel speedup of
// each dispatched table over scalar; the identity of the *results* is the
// tests' job (tests/simd_test.cc), not this harness's.
#include <benchmark/benchmark.h>

#include "bench_flags.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "analysis/reports.hpp"
#include "core/state.hpp"
#include "engine/explore.hpp"
#include "relation/graph.hpp"
#include "relation/similarity_index.hpp"
#include "runtime/simd_dispatch.hpp"
#include "runtime/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/table.hpp"

namespace lacon {
namespace {

using simd::Kernels;

std::vector<const Kernels*> available_tables() {
  std::vector<const Kernels*> out = {&simd::scalar_kernels()};
  if (const Kernels* k = simd::kernels_for(simd::Isa::kAvx2)) {
    out.push_back(k);
  }
  return out;
}

// --- Kernel workloads (shared by the benchmarks and the speedup table) ------

constexpr std::size_t kStates = 2048;     // agree/fingerprint population
constexpr std::size_t kEnvWords = 3;      // env prefix, as in exploration
constexpr std::size_t kN = 8;             // lanes per state (n = 8)
constexpr std::size_t kBitWords = 4096;   // bitset sweep width (256 Kbit)

struct StatePayload {
  std::vector<std::int64_t> env;
  std::vector<std::int32_t> locals;
  std::vector<std::int32_t> decisions;
};

std::vector<StatePayload> make_states() {
  std::vector<StatePayload> out(kStates);
  for (std::size_t s = 0; s < kStates; ++s) {
    auto& p = out[s];
    p.env.resize(kEnvWords);
    p.locals.resize(kN);
    p.decisions.resize(kN);
    // Near-identical neighbors: consecutive states differ in one lane, so
    // the compares mostly run to the end — the hot case agree_modulo's
    // callers (the similarity index's candidate confirmation) produce.
    for (std::size_t e = 0; e < kEnvWords; ++e) {
      p.env[e] = static_cast<std::int64_t>(mix64(e + 1));
    }
    for (std::size_t i = 0; i < kN; ++i) {
      p.locals[i] = static_cast<std::int32_t>(i * 17);
      p.decisions[i] = -1;
    }
    p.locals[s % kN] = static_cast<std::int32_t>(mix64(s) & 0xffff);
  }
  return out;
}

std::uint64_t agree_pass(const Kernels& k,
                         const std::vector<StatePayload>& states) {
  std::uint64_t agreed = 0;
  for (std::size_t s = 0; s + 1 < states.size(); ++s) {
    const auto& a = states[s];
    const auto& b = states[s + 1];
    const auto j = s % kN;
    agreed += static_cast<std::uint64_t>(
        k.words_equal(a.env.data(), b.env.data(), kEnvWords) &&
        k.lanes_equal_skip(a.locals.data(), b.locals.data(), kN, j) &&
        k.lanes_equal_skip(a.decisions.data(), b.decisions.data(), kN, j));
  }
  return agreed;
}

std::uint64_t fingerprint_pass(const Kernels& k,
                               const std::vector<StatePayload>& states) {
  std::uint64_t acc = 0;
  std::uint64_t row[kN];
  for (std::size_t s = 0; s < states.size(); ++s) {
    k.fingerprint_lanes(mix64(s), states[s].locals.data(),
                        states[s].decisions.data(), kN, row);
    acc ^= row[s % kN];
  }
  return acc;
}

struct BitsetPayload {
  std::vector<std::uint64_t> dst;
  std::vector<std::uint64_t> src;
};

BitsetPayload make_bitsets() {
  BitsetPayload p;
  p.dst.resize(kBitWords);
  p.src.resize(kBitWords);
  for (std::size_t i = 0; i < kBitWords; ++i) {
    p.dst[i] = mix64(i);
    p.src[i] = mix64(i + kBitWords);
  }
  return p;
}

std::uint64_t bitset_pass(const Kernels& k, BitsetPayload& p) {
  k.bitset_or(p.dst.data(), p.src.data(), kBitWords);
  k.bitset_andnot(p.dst.data(), p.src.data(), kBitWords);
  k.bitset_and(p.dst.data(), p.src.data(), kBitWords);
  return k.bitset_popcount(p.dst.data(), kBitWords) ^
         k.bitset_find_first(p.dst.data(), kBitWords);
}

struct FrontierPayload {
  std::vector<std::uint64_t> next0;     // pristine wave, copied per pass
  std::vector<std::uint64_t> visited0;
  std::vector<std::uint64_t> next;
  std::vector<std::uint64_t> visited;
  std::vector<std::uint32_t> out;
};

FrontierPayload make_frontier() {
  FrontierPayload p;
  p.next0.assign(kBitWords, 0);
  p.visited0.assign(kBitWords, 0);
  std::mt19937_64 rng(0x7431325f73696dULL);
  // A sparse wave over a mostly-unvisited space: ~1/16 of the words carry
  // frontier bits, matching the mid-BFS shape of the diameter sweeps.
  for (std::size_t i = 0; i < kBitWords / 16; ++i) {
    p.next0[rng() % kBitWords] = rng();
    p.visited0[rng() % kBitWords] = rng();
  }
  p.next.resize(kBitWords);
  p.visited.resize(kBitWords);
  p.out.resize(kBitWords * 64);
  return p;
}

std::uint64_t frontier_pass(const Kernels& k, FrontierPayload& p) {
  p.next = p.next0;
  p.visited = p.visited0;
  return k.frontier_advance(p.next.data(), p.visited.data(), kBitWords,
                            p.out.data());
}

// --- google-benchmark registrations, one per available table ----------------

void register_per_kernel(const Kernels* k) {
  const std::string suffix = std::string("/") + k->name;
  benchmark::RegisterBenchmark(
      ("BM_AgreeModulo" + suffix).c_str(),
      [k](benchmark::State& state) {
        const auto states = make_states();
        for (auto _ : state) {
          benchmark::DoNotOptimize(agree_pass(*k, states));
        }
        state.counters["pairs_per_iter"] =
            static_cast<double>(kStates - 1);
      })
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      ("BM_FingerprintRow" + suffix).c_str(),
      [k](benchmark::State& state) {
        const auto states = make_states();
        for (auto _ : state) {
          benchmark::DoNotOptimize(fingerprint_pass(*k, states));
        }
        state.counters["rows_per_iter"] = static_cast<double>(kStates);
      })
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      ("BM_BitsetSweep" + suffix).c_str(),
      [k](benchmark::State& state) {
        auto payload = make_bitsets();
        for (auto _ : state) {
          benchmark::DoNotOptimize(bitset_pass(*k, payload));
        }
        state.counters["words_per_iter"] = static_cast<double>(kBitWords);
      })
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      ("BM_FrontierAdvance" + suffix).c_str(),
      [k](benchmark::State& state) {
        auto payload = make_frontier();
        for (auto _ : state) {
          benchmark::DoNotOptimize(frontier_pass(*k, payload));
        }
        state.counters["words_per_iter"] = static_cast<double>(kBitWords);
      })
      ->Unit(benchmark::kMicrosecond);
}

// End-to-end acceptance workload per table: explore the n=8 mobile model one
// layer below Con_0 (agree_modulo in the interning path), build the indexed
// similarity graph of the frontier (fingerprint rows + candidate
// confirmation), check its connectivity and fold the s-diameters of the
// first initial layers (bitmap BFS). One worker: this measures kernels, not
// scheduling.
void register_end_to_end(const Kernels* k) {
  benchmark::RegisterBenchmark(
      (std::string("BM_ExploreSimilarityDiameterN8/") + k->name).c_str(),
      [k](benchmark::State& state) {
        runtime::WorkerCountOverride workers(1);
        simd::KernelOverride override_k(*k);
        auto rule = never_decide();
        for (auto _ : state) {
          auto model = make_model(ModelKind::kMobile, 8, 1, *rule);
          const auto levels = reachable_by_depth(*model, 1);
          const Graph g = similarity_graph_indexed(*model, levels.back());
          benchmark::DoNotOptimize(g.connected());
          std::size_t worst = 0;
          const auto& initial = model->initial_states();
          for (std::size_t i = 0; i < 16 && i < initial.size(); ++i) {
            const Graph layer_graph = similarity_graph_indexed(
                *model, model->layer(initial[i]));
            if (const auto d = layer_graph.diameter()) {
              worst = std::max(worst, *d);
            }
          }
          benchmark::DoNotOptimize(worst);
        }
      })
      ->Unit(benchmark::kMillisecond);
}

// --- T12 table: per-kernel speedup of each dispatched table over scalar -----

template <typename Fn>
double time_ns_per_pass(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  // One warmup, then best-of-3 timed batches to shrug off scheduler noise.
  fn();
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    constexpr int kBatch = 20;
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) fn();
    const auto t1 = Clock::now();
    best = std::min(
        best,
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kBatch);
  }
  return best;
}

void print_table() {
  const auto tables = available_tables();
  const auto states = make_states();
  auto bits = make_bitsets();
  auto frontier = make_frontier();
  std::uint64_t sink = 0;

  Table table({"kernel", "table", "ns/pass", "speedup vs scalar"});
  const char* kernel_names[] = {"agree_modulo", "fingerprint_row",
                                "bitset_sweep", "frontier_advance"};
  for (int which = 0; which < 4; ++which) {
    double scalar_ns = 0;
    for (const Kernels* k : tables) {
      const double ns = time_ns_per_pass([&] {
        switch (which) {
          case 0: sink ^= agree_pass(*k, states); break;
          case 1: sink ^= fingerprint_pass(*k, states); break;
          case 2: sink ^= bitset_pass(*k, bits); break;
          default: sink ^= frontier_pass(*k, frontier); break;
        }
      });
      if (k == &simd::scalar_kernels()) scalar_ns = ns;
      char ns_text[32], speedup[32];
      std::snprintf(ns_text, sizeof ns_text, "%.0f", ns);
      std::snprintf(speedup, sizeof speedup, "%.2fx",
                    ns > 0 ? scalar_ns / ns : 0.0);
      table.add_row({kernel_names[which], k->name, ns_text, speedup});
    }
  }
  benchmark::DoNotOptimize(sink);
  std::fputs(table
                 .to_string(std::string("T12: SIMD kernel A/B (active() "
                                        "dispatch would pick '") +
                            simd::active_name() + "')")
                 .c_str(),
             stdout);
}

}  // namespace
}  // namespace lacon

int main(int argc, char** argv) {
  lacon::benchflags::init(&argc, argv);
  lacon::print_table();
  for (const lacon::simd::Kernels* k : lacon::available_tables()) {
    lacon::register_per_kernel(k);
    lacon::register_end_to_end(k);
  }
  lacon::benchflags::add_json_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  lacon::benchflags::finish();
  return 0;
}
