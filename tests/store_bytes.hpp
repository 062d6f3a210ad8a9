// Byte-level helpers for tests that read, edit and re-seal store files
// (FORMATS.md): whole-file reads and writes, little-endian field access,
// re-sealing an edited snapshot, and the lemma facts that files written by
// earlier builds carry (FORMATS.md §1.9), which this build checks and
// drops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/state.hpp"
#include "core/view.hpp"
#include "store/codec.hpp"
#include "store/snapshot.hpp"

namespace lacon::store_bytes {

inline std::vector<char> read_file(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

inline void write_file(const std::string& file, const char* data,
                       std::size_t len) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(data, static_cast<std::streamsize>(len));
}

// Snapshot layout (FORMATS.md §1.1–1.3): the prelude, then the header,
// which ends with the 40-byte section entries {u32 kind, u32 reserved, u64
// offset, u64 bytes, u64 count, u64 checksum}.
constexpr std::size_t kPrelude = 24;
constexpr std::size_t kEntry = 40;

inline const std::uint8_t* as_bytes(const std::vector<char>& bytes,
                                    std::size_t at) {
  return reinterpret_cast<const std::uint8_t*>(bytes.data() + at);
}

template <typename T>
T get(const std::vector<char>& bytes, std::size_t at) {
  T v{};
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

template <typename T>
void put(std::vector<char>& bytes, std::size_t at, T v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

// One 24-byte lemma fact: u64 sig_hi, u64 sig_lo, i32 lookahead, u32 flags
// (bit 0 = v0, bit 1 = v1).
inline void append_fact(std::vector<char>& out, std::uint64_t sig_hi,
                        std::uint64_t sig_lo, std::int32_t lookahead,
                        std::uint32_t flags) {
  store::codec::Writer w;
  w.u64(sig_hi);
  w.u64(sig_lo);
  w.i32(lookahead);
  w.u32(flags);
  out.insert(out.end(), w.data(), w.data() + w.size());
}

// `count` well-formed facts, one of each valence set in turn.
inline std::vector<char> lemma_facts(std::uint32_t count) {
  std::vector<char> out;
  for (std::uint32_t i = 0; i < count; ++i) {
    append_fact(out, 0x9e3779b97f4a7c15ULL * (i + 1),
                0x5bd1e9955bd1e995ULL ^ i, static_cast<std::int32_t>(i % 4),
                1 + i % 3);
  }
  return out;
}

// `snapshot` with a kLemmas section (kind 8) holding `facts` under the
// section count `count`, laid out as earlier builds wrote it: the payload
// after the last section, its entry last in the section table, every other
// section moved past the longer header, and the header checksum re-sealed.
inline std::vector<char> with_lemma_section(const std::vector<char>& snapshot,
                                            const std::vector<char>& facts,
                                            std::uint64_t count) {
  const auto header_bytes = get<std::uint32_t>(snapshot, 12);
  const auto sections = get<std::uint32_t>(snapshot, kPrelude + 24);
  // The section table ends the header.
  const std::size_t table_at = header_bytes - kEntry * sections;

  std::vector<char> header(snapshot.begin() + kPrelude,
                           snapshot.begin() + kPrelude + header_bytes);
  put<std::uint32_t>(header, 24, sections + 1);
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::size_t offset_at = table_at + kEntry * i + 8;
    put<std::uint64_t>(header, offset_at,
                       get<std::uint64_t>(header, offset_at) + kEntry);
  }
  std::vector<char> payload(snapshot.begin() + kPrelude + header_bytes,
                            snapshot.end());
  payload.resize((payload.size() + 7) / 8 * 8, 0);

  store::codec::Writer entry;
  entry.u32(static_cast<std::uint32_t>(store::SectionKind::kLemmas));
  entry.u32(0);
  entry.u64(kPrelude + header.size() + kEntry + payload.size());
  entry.u64(facts.size());
  entry.u64(count);
  entry.u64(store::codec::fnv1a(as_bytes(facts, 0), facts.size()));
  header.insert(header.end(), entry.data(), entry.data() + entry.size());
  payload.insert(payload.end(), facts.begin(), facts.end());

  std::vector<char> out(kPrelude + header.size() + payload.size());
  std::copy(snapshot.begin(), snapshot.begin() + kPrelude, out.begin());
  put<std::uint32_t>(out, 12, static_cast<std::uint32_t>(header.size()));
  put<std::uint64_t>(out, 16,
                     store::codec::fnv1a(as_bytes(header, 0), header.size()));
  const auto payload_at =
      out.begin() + static_cast<std::ptrdiff_t>(kPrelude + header.size());
  std::copy(header.begin(), header.end(), out.begin() + kPrelude);
  std::copy(payload.begin(), payload.end(), payload_at);
  return out;
}

// Where the section entry of `kind` starts in `snapshot` (0 when absent).
inline std::size_t section_entry(const std::vector<char>& snapshot,
                                 store::SectionKind kind) {
  const auto header_bytes = get<std::uint32_t>(snapshot, 12);
  const auto sections = get<std::uint32_t>(snapshot, kPrelude + 24);
  const std::size_t table_at = kPrelude + header_bytes - kEntry * sections;
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::size_t entry = table_at + kEntry * i;
    if (get<std::uint32_t>(snapshot, entry) ==
        static_cast<std::uint32_t>(kind)) {
      return entry;
    }
  }
  return 0;
}

// Offset and record count of the section of `kind`.
inline std::size_t section_at(const std::vector<char>& snapshot,
                              store::SectionKind kind) {
  return get<std::uint64_t>(snapshot, section_entry(snapshot, kind) + 8);
}
inline std::uint64_t section_count(const std::vector<char>& snapshot,
                                   store::SectionKind kind) {
  return get<std::uint64_t>(snapshot, section_entry(snapshot, kind) + 24);
}

// Re-seals an edited snapshot so that only the record rules can refuse the
// edit: recomputes the view and state digests from the records (unless
// `digests` is false), then every section checksum and the header
// checksum.
inline void reseal_snapshot(std::vector<char>& bytes, bool digests = true) {
  using store::SectionKind;
  const auto n = static_cast<int>(get<std::uint32_t>(bytes, kPrelude));
  const auto shards = get<std::uint32_t>(bytes, kPrelude + 16);
  if (digests) {
    std::vector<std::uint64_t> view_sums(shards, 0), state_sums(shards, 0);
    const auto add = [&](std::vector<std::uint64_t>& sums, std::uint64_t h) {
      sums[(h >> 40) & (shards - 1)] += h;
    };
    store::codec::Reader views(
        as_bytes(bytes, section_at(bytes, SectionKind::kViews)), bytes.size());
    for (std::uint64_t i = 0; i < section_count(bytes, SectionKind::kViews);
         ++i) {
      ViewRef v;
      store::codec::decode_view(views, &v);
      add(view_sums, ViewArena::content_hash(v));
    }
    store::codec::Reader states(
        as_bytes(bytes, section_at(bytes, SectionKind::kStates)), bytes.size());
    for (std::uint64_t i = 0; i < section_count(bytes, SectionKind::kStates);
         ++i) {
      StateRef s;
      store::codec::view_state(states, n, &s);
      add(state_sums, StateArena::content_hash(s));
    }
    std::memcpy(bytes.data() + section_at(bytes, SectionKind::kViewDigests),
                view_sums.data(), 8 * shards);
    std::memcpy(bytes.data() + section_at(bytes, SectionKind::kStateDigests),
                state_sums.data(), 8 * shards);
  }
  const auto header_bytes = get<std::uint32_t>(bytes, 12);
  const auto sections = get<std::uint32_t>(bytes, kPrelude + 24);
  const std::size_t table_at = kPrelude + header_bytes - kEntry * sections;
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::size_t entry = table_at + kEntry * i;
    const auto at = get<std::uint64_t>(bytes, entry + 8);
    const auto size = get<std::uint64_t>(bytes, entry + 16);
    put<std::uint64_t>(bytes, entry + 32,
                       store::codec::fnv1a(as_bytes(bytes, at), size));
  }
  put<std::uint64_t>(
      bytes, 16, store::codec::fnv1a(as_bytes(bytes, kPrelude), header_bytes));
}

}  // namespace lacon::store_bytes
