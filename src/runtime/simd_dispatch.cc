#include "runtime/simd_dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LACON_SIMD_X86 1
#endif

namespace lacon::simd {

namespace {

constexpr Kernels kScalarTable = {
    "scalar",
    &scalar::words_equal,
    &scalar::lanes_equal_skip,
    &scalar::fingerprint_lanes,
    &scalar::bitset_or,
    &scalar::bitset_and,
    &scalar::bitset_andnot,
    &scalar::bitset_popcount,
    &scalar::bitset_find_first,
    &scalar::hash_words,
    &scalar::hash_lanes,
    &scalar::frontier_advance,
};

#if LACON_SIMD_X86

// The AVX2 kernels carry per-function target attributes so this translation
// unit builds without -mavx2 and stays loadable on pre-AVX2 hosts; only the
// dispatcher below ever takes their address, and only after the CPUID
// check. AVX2 silicon universally ships BMI2 + POPCNT (Haswell/Excavator
// onward), but host_supports() verifies each flag anyway before this table
// is eligible.
#define LACON_TARGET_AVX2 __attribute__((target("avx2,bmi,bmi2,popcnt")))

LACON_TARGET_AVX2
bool words_equal_avx2(const std::int64_t* a, const std::int64_t* b,
                      std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i diff = _mm256_xor_si256(va, vb);
    if (!_mm256_testz_si256(diff, diff)) return false;
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

LACON_TARGET_AVX2
bool lanes_equal_skip_avx2(const std::int32_t* a, const std::int32_t* b,
                           std::size_t n, std::size_t skip) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i eq = _mm256_cmpeq_epi32(va, vb);
    auto mismatch = static_cast<unsigned>(
                        _mm256_movemask_ps(_mm256_castsi256_ps(eq))) ^
                    0xffu;
    if (skip >= i && skip - i < 8) {
      mismatch &= ~(1u << (skip - i));  // the erased lane may differ
    }
    if (mismatch != 0) return false;
  }
  for (; i < n; ++i) {
    if (i != skip && a[i] != b[i]) return false;
  }
  return true;
}

// Exact low-64 product per lane: AVX2 has no vpmullq, so compose it from
// 32x32->64 partial products. lo(a*b) = lo32(a)*lo32(b)
// + ((hi32(a)*lo32(b) + lo32(a)*hi32(b)) << 32), all mod 2^64.
LACON_TARGET_AVX2
inline __m256i mullo64_avx2(__m256i a, __m256i b) noexcept {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// mix64 (util/hash.hpp), four lanes at a time. Shifts, xors and adds map
// 1:1; the two multiplies go through mullo64_avx2, so every lane computes
// exactly the scalar value.
LACON_TARGET_AVX2
inline __m256i mix64_avx2(__m256i z) noexcept {
  z = _mm256_add_epi64(z, _mm256_set1_epi64x(0x9e3779b97f4a7c15LL));
  z = mullo64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                   _mm256_set1_epi64x(static_cast<long long>(
                       0xbf58476d1ce4e5b9ULL)));
  z = mullo64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                   _mm256_set1_epi64x(static_cast<long long>(
                       0x94d049bb133111ebULL)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

// hash_combine (util/hash.hpp): mix64(seed ^ (v + C + (seed<<6) + (seed>>2))).
LACON_TARGET_AVX2
inline __m256i hash_combine_avx2(__m256i seed, __m256i value) noexcept {
  __m256i t =
      _mm256_add_epi64(value, _mm256_set1_epi64x(0x9e3779b97f4a7c15LL));
  t = _mm256_add_epi64(t, _mm256_slli_epi64(seed, 6));
  t = _mm256_add_epi64(t, _mm256_srli_epi64(seed, 2));
  return mix64_avx2(_mm256_xor_si256(seed, t));
}

// Keeps lane `lane` (0..3) of `combined` at its pre-item value `prev` —
// the vector form of the fold's "skip item i in row entry i".
LACON_TARGET_AVX2
inline __m256i blend_keep_lane(__m256i combined, __m256i prev,
                               std::size_t lane) noexcept {
  switch (lane) {
    case 0: return _mm256_blend_epi32(combined, prev, 0x03);
    case 1: return _mm256_blend_epi32(combined, prev, 0x0c);
    case 2: return _mm256_blend_epi32(combined, prev, 0x30);
    default: return _mm256_blend_epi32(combined, prev, 0xc0);
  }
}

LACON_TARGET_AVX2
inline void store_lanes(std::uint64_t* out, std::size_t base, std::size_t n,
                        __m256i h) noexcept {
  if (n - base >= 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + base), h);
  } else {
    alignas(32) std::uint64_t tail[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tail), h);
    for (std::size_t j = base; j < n; ++j) out[j] = tail[j - base];
  }
}

LACON_TARGET_AVX2
void fingerprint_lanes_avx2(std::uint64_t seed, const std::int32_t* locals,
                            const std::int32_t* decisions, std::size_t n,
                            std::uint64_t* out) noexcept {
  // Four output lanes (erased coordinates j) per vector; each item i is
  // broadcast and combined into every lane, then a blend restores lane i's
  // previous hash so the item is skipped exactly where the per-j fold skips
  // it. Lane-for-lane the operation sequence equals the scalar fold.
  //
  // Two blocks (8 lanes) advance through the item loop together: each
  // block's fold is one serial dependency chain through the emulated 64-bit
  // multiplies of mix64, so a lone block is latency-bound — the paired
  // chains interleave in the multiply pipes and roughly double throughput
  // (this is what makes the kernel beat the scalar fold, whose n
  // independent row entries already enjoy full ILP).
  const __m256i seedv = _mm256_set1_epi64x(static_cast<long long>(seed));
  for (std::size_t base = 0; base < n; base += 8) {
    const bool two = base + 4 < n;
    __m256i h0 = seedv;
    __m256i h1 = seedv;
    for (std::size_t i = 0; i < n; ++i) {
      const __m256i l = _mm256_set1_epi64x(
          static_cast<long long>(static_cast<std::int64_t>(locals[i])));
      const __m256i d = _mm256_set1_epi64x(
          static_cast<long long>(static_cast<std::int64_t>(decisions[i])));
      __m256i c0 = hash_combine_avx2(hash_combine_avx2(h0, l), d);
      __m256i c1 = two ? hash_combine_avx2(hash_combine_avx2(h1, l), d) : h1;
      if (i >= base && i - base < 8) {
        if (i - base < 4) {
          c0 = blend_keep_lane(c0, h0, i - base);
        } else {
          c1 = blend_keep_lane(c1, h1, i - base - 4);
        }
      }
      h0 = c0;
      h1 = c1;
    }
    store_lanes(out, base, n, h0);
    if (two) store_lanes(out, base + 4, n, h1);
  }
}

LACON_TARGET_AVX2
void bitset_or_avx2(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(d, s));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

LACON_TARGET_AVX2
void bitset_and_avx2(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(d, s));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

LACON_TARGET_AVX2
void bitset_andnot_avx2(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // andnot(s, d) = d & ~s.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(s, d));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

// Nibble-LUT popcount (the classic vpshufb scheme): per-byte counts via two
// table lookups, summed into 64-bit lanes with SAD against zero.
LACON_TARGET_AVX2
std::uint64_t bitset_popcount_avx2(const std::uint64_t* w,
                                   std::size_t n) noexcept {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    const __m256i lo = _mm256_and_si256(v, low_nibble);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi32(v, 4), low_nibble);
    const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                           _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts,
                                                _mm256_setzero_si256()));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

LACON_TARGET_AVX2
std::size_t bitset_find_first_avx2(const std::uint64_t* w,
                                   std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    if (!_mm256_testz_si256(v, v)) break;  // hit inside this block
  }
  for (; i < n; ++i) {
    if (w[i] != 0) {
      return i * 64 + static_cast<std::size_t>(__builtin_ctzll(w[i]));
    }
  }
  return kNpos;
}

// Shared tail of hash_words/hash_lanes: reduce the four vector accumulator
// lanes, finish the scalar remainder, fold in the length. The per-position
// mixes feed a wrapping sum, so lane order inside the reduction is free —
// the result equals the scalar left-to-right fold exactly.
LACON_TARGET_AVX2
inline std::uint64_t hash_reduce_avx2(__m256i acc, std::uint64_t partial,
                                      std::size_t n,
                                      std::uint64_t seed) noexcept {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  partial += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  return hash_combine(hash_combine(seed, n), partial);
}

LACON_TARGET_AVX2
std::uint64_t hash_words_avx2(const std::int64_t* w, std::size_t n,
                              std::uint64_t seed) noexcept {
  // Position keys seed + (i+1)*phi for four consecutive i per vector; the
  // key vector strides by 4*phi (mod 2^64, matching the scalar wrap).
  __m256i key = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(seed)),
      _mm256_setr_epi64x(static_cast<long long>(1 * kHashPhi),
                         static_cast<long long>(2 * kHashPhi),
                         static_cast<long long>(3 * kHashPhi),
                         static_cast<long long>(4 * kHashPhi)));
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * kHashPhi));
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    acc = _mm256_add_epi64(acc, mix64_avx2(_mm256_xor_si256(v, key)));
    key = _mm256_add_epi64(key, step);
  }
  std::uint64_t tail = 0;
  for (; i < n; ++i) {
    tail += mix64(static_cast<std::uint64_t>(w[i]) ^
                  (seed + (static_cast<std::uint64_t>(i) + 1) * kHashPhi));
  }
  return hash_reduce_avx2(acc, tail, n, seed);
}

LACON_TARGET_AVX2
std::uint64_t hash_lanes_avx2(const std::int32_t* v, std::size_t n,
                              std::uint64_t seed) noexcept {
  __m256i key = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(seed)),
      _mm256_setr_epi64x(static_cast<long long>(1 * kHashPhi),
                         static_cast<long long>(2 * kHashPhi),
                         static_cast<long long>(3 * kHashPhi),
                         static_cast<long long>(4 * kHashPhi)));
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * kHashPhi));
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Sign-extend four 32-bit lanes to 64 bits — the scalar cast chain
    // int32 -> int64 -> uint64.
    const __m256i wide = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i)));
    acc = _mm256_add_epi64(acc, mix64_avx2(_mm256_xor_si256(wide, key)));
    key = _mm256_add_epi64(key, step);
  }
  std::uint64_t tail = 0;
  for (; i < n; ++i) {
    tail +=
        mix64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v[i])) ^
              (seed + (static_cast<std::uint64_t>(i) + 1) * kHashPhi));
  }
  return hash_reduce_avx2(acc, tail, n, seed);
}

LACON_TARGET_AVX2
std::size_t frontier_advance_avx2(std::uint64_t* next, std::uint64_t* visited,
                                  std::size_t nwords,
                                  std::uint32_t* out) noexcept {
  std::size_t count = 0;
  std::size_t w = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; w + 4 <= nwords; w += 4) {
    const __m256i nx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(next + w));
    // Frontiers are sparse in the word space; skipping all-zero blocks with
    // one test is where the vector path earns its keep.
    if (_mm256_testz_si256(nx, nx)) continue;
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(visited + w));
    const __m256i fresh = _mm256_andnot_si256(vs, nx);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(visited + w),
                        _mm256_or_si256(vs, fresh));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(next + w), zero);
    alignas(32) std::uint64_t block[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(block), fresh);
    for (std::size_t k = 0; k < 4; ++k) {
      std::uint64_t bits = block[k];
      const auto base = static_cast<std::uint32_t>((w + k) * 64);
      while (bits != 0) {
        out[count++] =
            base + static_cast<std::uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
      }
    }
  }
  for (; w < nwords; ++w) {
    std::uint64_t fresh = next[w] & ~visited[w];
    next[w] = 0;
    if (fresh == 0) continue;
    visited[w] |= fresh;
    const auto base = static_cast<std::uint32_t>(w * 64);
    do {
      out[count++] =
          base + static_cast<std::uint32_t>(__builtin_ctzll(fresh));
      fresh &= fresh - 1;
    } while (fresh != 0);
  }
  return count;
}

const Kernels kAvx2Table = {
    "avx2",
    &words_equal_avx2,
    &lanes_equal_skip_avx2,
    &fingerprint_lanes_avx2,
    &bitset_or_avx2,
    &bitset_and_avx2,
    &bitset_andnot_avx2,
    &bitset_popcount_avx2,
    &bitset_find_first_avx2,
    &hash_words_avx2,
    &hash_lanes_avx2,
    &frontier_advance_avx2,
};

#endif  // LACON_SIMD_X86

void warn_once(const char* text, const char* detail,
               const char* used) noexcept {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr,
               "lacon: ignoring LACON_SIMD='%s' (%s); using '%s'\n",
               text, detail, used);
}

// Best table the host can execute, ignoring the knob.
const Kernels& auto_table() noexcept {
#if LACON_SIMD_X86
  if (host_supports(Isa::kAvx2)) return kAvx2Table;
#endif
  return kScalarTable;
}

const Kernels& select_table() noexcept {
  const char* text = std::getenv("LACON_SIMD");
  const Choice choice = parse_choice(text);
  switch (choice) {
    case Choice::kAuto:
      return auto_table();
    case Choice::kScalar:
      return kScalarTable;
    case Choice::kAvx2:
      if (const Kernels* k = kernels_for(Isa::kAvx2)) return *k;
      warn_once(text, "host cannot execute AVX2", auto_table().name);
      return auto_table();
    case Choice::kMalformed:
      warn_once(text, "want auto|scalar|avx2", auto_table().name);
      return auto_table();
  }
  return kScalarTable;  // unreachable
}

std::atomic<const Kernels*> override_table{nullptr};

}  // namespace

Choice parse_choice(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return Choice::kAuto;
  if (std::strcmp(text, "auto") == 0) return Choice::kAuto;
  if (std::strcmp(text, "scalar") == 0) return Choice::kScalar;
  if (std::strcmp(text, "avx2") == 0) return Choice::kAvx2;
  return Choice::kMalformed;
}

bool host_supports(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if LACON_SIMD_X86
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("bmi2") &&
             __builtin_cpu_supports("popcnt");
#else
      return false;
#endif
  }
  return false;
}

const Kernels& scalar_kernels() noexcept { return kScalarTable; }

const Kernels* kernels_for(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarTable;
    case Isa::kAvx2:
#if LACON_SIMD_X86
      if (host_supports(Isa::kAvx2)) return &kAvx2Table;
#endif
      return nullptr;
  }
  return nullptr;
}

const Kernels& active() noexcept {
  if (const Kernels* o = override_table.load(std::memory_order_relaxed)) {
    return *o;
  }
  static const Kernels& selected = select_table();
  return selected;
}

const char* active_name() noexcept { return active().name; }

KernelOverride::KernelOverride(const Kernels& k) noexcept
    : previous_(override_table.exchange(&k, std::memory_order_relaxed)) {}

KernelOverride::~KernelOverride() {
  override_table.store(previous_, std::memory_order_relaxed);
}

}  // namespace lacon::simd
