// Environment knobs for the persistent store (lacon::store).
//
//   LACON_WAL          off | on                       (default: off)
//   LACON_STORE_DIR    directory the files live in    (default: lacon_store)
//
// With LACON_WAL=on, laconrd loads a session's snapshot as the base of its
// write-ahead log, replays the log over it and commits every request to
// the log before responding; the log compacts into a fresh snapshot
// (DESIGN.md §14). Off, nothing is loaded or written. A malformed value
// earns one stderr warning per process and falls back to the default — it
// never aborts and never silently changes meaning. The parse_* functions are
// pure (testable without touching the environment); dir()/wal_enabled()
// read the environment on every call so harnesses can retarget the store
// between phases.
#pragma once

#include <cstddef>
#include <string>

namespace lacon {
class LayeredModel;
}  // namespace lacon

namespace lacon::store {

// Parses a LACON_STORE_DIR-style value. Empty/null yields the fallback
// silently; a value longer than kMaxDirLength (the ERANGE analogue for a
// path-valued knob: plausible prefix, absurd length) warns once per process
// and yields the fallback.
inline constexpr std::size_t kMaxDirLength = 3072;
std::string parse_dir(const char* text, const std::string& fallback);

// Parses a LACON_WAL-style value: "off"/"on". Empty/null yields the
// fallback silently; anything else warns once per process and yields the
// fallback.
bool parse_wal(const char* text, bool fallback) noexcept;

// The knobs as configured by the environment right now.
std::string dir();
bool wal_enabled();

// Canonical snapshot filename for a model instance:
// <dir>/<sanitized-model-name>.n<n>.t<max_faulty>.lacon.store — model names
// contain '/' and '^', which sanitize to '_' so every instance maps to one
// flat file per directory.
std::string snapshot_filename(const std::string& model_name, int n,
                              int max_faulty);
std::string snapshot_path(const std::string& directory,
                          const std::string& model_name, int n,
                          int max_faulty);
// Convenience overload reading name/n/max_faulty off the model and the
// directory off LACON_STORE_DIR.
std::string snapshot_path(const LayeredModel& model);

// The WAL lives next to the snapshot it replays over: snapshot path + ".wal".
std::string wal_path(const LayeredModel& model);

}  // namespace lacon::store
