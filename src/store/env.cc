#include "store/env.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/model.hpp"

namespace lacon::store {

namespace {

void warn_dir_once(std::size_t length, const std::string& used) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr,
               "lacon: ignoring overlong LACON_STORE_DIR (%zu bytes, max "
               "%zu); using '%s'\n",
               length, kMaxDirLength, used.c_str());
}

void warn_wal_once(const char* text, bool used) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr,
               "lacon: ignoring malformed LACON_WAL='%s' (want off|on); "
               "using '%s'\n",
               text, used ? "on" : "off");
}

}  // namespace

std::string parse_dir(const char* text, const std::string& fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  const std::size_t length = std::strlen(text);
  if (length > kMaxDirLength) {
    warn_dir_once(length, fallback);
    return fallback;
  }
  return std::string(text);
}

bool parse_wal(const char* text, bool fallback) noexcept {
  if (text == nullptr || *text == '\0') return fallback;
  if (std::strcmp(text, "off") == 0) return false;
  if (std::strcmp(text, "on") == 0) return true;
  warn_wal_once(text, fallback);
  return fallback;
}

std::string dir() {
  return parse_dir(std::getenv("LACON_STORE_DIR"), "lacon_store");
}

bool wal_enabled() { return parse_wal(std::getenv("LACON_WAL"), false); }

std::string snapshot_filename(const std::string& model_name, int n,
                              int max_faulty) {
  std::string sanitized;
  sanitized.reserve(model_name.size());
  for (char c : model_name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    sanitized.push_back(keep ? c : '_');
  }
  return sanitized + ".n" + std::to_string(n) + ".t" +
         std::to_string(max_faulty) + ".lacon.store";
}

std::string snapshot_path(const std::string& directory,
                          const std::string& model_name, int n,
                          int max_faulty) {
  std::string out = directory;
  if (!out.empty() && out.back() != '/') out.push_back('/');
  return out + snapshot_filename(model_name, n, max_faulty);
}

std::string snapshot_path(const LayeredModel& model) {
  return snapshot_path(dir(), model.name(), model.n(), model.max_faulty());
}

std::string wal_path(const LayeredModel& model) {
  return snapshot_path(model) + ".wal";
}

}  // namespace lacon::store
