// Minimal JSON for the laconrd wire protocol (service/protocol.hpp).
//
// The daemon speaks newline-delimited JSON over a Unix socket; pulling in a
// JSON library is off the table (the repo vendors nothing), and the protocol
// needs only the core data model. This is a small recursive-descent parser
// plus a serializer over a variant value type:
//
//  * Numbers parse as double; integral values serialize without a decimal
//    point, so ids and counts round-trip as written.
//  * Object member order is preserved (vector of pairs, not a map), so a
//    response serializes in the order it was assembled — stable output for
//    golden tests.
//  * Json::raw() splices pre-serialized text verbatim into dump() output;
//    the protocol uses it to embed a runtime::metrics_snapshot_json()
//    document without re-parsing it.
//  * parse() rejects trailing garbage and caps nesting depth, so a
//    malformed or adversarial request line cannot recurse the daemon into
//    a stack overflow.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace lacon::service {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject, kRaw };

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}  // NOLINT: implicit by design
  Json(bool b) : v_(b) {}                // NOLINT
  Json(double d) : v_(d) {}              // NOLINT
  Json(int i) : v_(static_cast<double>(i)) {}            // NOLINT
  Json(std::int64_t i) : v_(static_cast<double>(i)) {}   // NOLINT
  Json(std::uint64_t u) : v_(static_cast<double>(u)) {}  // NOLINT
  Json(const char* s) : v_(std::string(s)) {}            // NOLINT
  Json(std::string s) : v_(std::move(s)) {}              // NOLINT
  Json(Array a) : v_(std::move(a)) {}                    // NOLINT
  Json(Object o) : v_(std::move(o)) {}                   // NOLINT

  // Pre-serialized JSON text, spliced verbatim by dump().
  static Json raw(std::string text);

  Type type() const noexcept;
  bool is_null() const noexcept { return type() == Type::kNull; }
  bool is_bool() const noexcept { return type() == Type::kBool; }
  bool is_number() const noexcept { return type() == Type::kNumber; }
  bool is_string() const noexcept { return type() == Type::kString; }
  bool is_array() const noexcept { return type() == Type::kArray; }
  bool is_object() const noexcept { return type() == Type::kObject; }

  bool as_bool(bool fallback = false) const noexcept;
  double as_number(double fallback = 0.0) const noexcept;
  const std::string& as_string() const;  // empty string when not a string
  const Array& as_array() const;         // empty array when not an array
  const Object& as_object() const;       // empty object when not an object

  // First member named `key`, or nullptr.
  const Json* find(std::string_view key) const;

  // Member access for building objects/arrays in place.
  Object& object();  // converts to an (empty) object if not one
  Array& array();    // converts to an (empty) array if not one
  void set(std::string key, Json value);

  std::string dump() const;

  // Parses exactly one JSON document; trailing non-whitespace, invalid
  // escapes, or nesting beyond an internal depth cap yield nullopt and (if
  // `error` is non-null) a one-line description with a byte offset.
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

 private:
  struct RawTag {
    std::string text;
  };
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object,
               RawTag>
      v_;
};

// Escapes `s` for inclusion in a JSON string literal (no surrounding
// quotes). Exposed for hand-assembled fragments in tests.
std::string json_escape(std::string_view s);

}  // namespace lacon::service
