#include "service/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lacon::service {

namespace {

const std::string kEmptyString;
const Json::Array kEmptyArray;
const Json::Object kEmptyObject;

// Nesting cap for the parser: a request line is a flat object with at most
// one level of structure, so 64 is generous while keeping recursion bounded.
constexpr int kMaxDepth = 64;

}  // namespace

Json Json::raw(std::string text) {
  Json j;
  j.v_ = RawTag{std::move(text)};
  return j;
}

Json::Type Json::type() const noexcept {
  return static_cast<Type>(v_.index());
}

bool Json::as_bool(bool fallback) const noexcept {
  if (const bool* b = std::get_if<bool>(&v_)) return *b;
  return fallback;
}

double Json::as_number(double fallback) const noexcept {
  if (const double* d = std::get_if<double>(&v_)) return *d;
  return fallback;
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&v_)) return *s;
  return kEmptyString;
}

const Json::Array& Json::as_array() const {
  if (const Array* a = std::get_if<Array>(&v_)) return *a;
  return kEmptyArray;
}

const Json::Object& Json::as_object() const {
  if (const Object* o = std::get_if<Object>(&v_)) return *o;
  return kEmptyObject;
}

const Json* Json::find(std::string_view key) const {
  if (const Object* o = std::get_if<Object>(&v_)) {
    for (const auto& [k, v] : *o) {
      if (k == key) return &v;
    }
  }
  return nullptr;
}

Json::Object& Json::object() {
  if (!std::holds_alternative<Object>(v_)) v_ = Object{};
  return std::get<Object>(v_);
}

Json::Array& Json::array() {
  if (!std::holds_alternative<Array>(v_)) v_ = Array{};
  return std::get<Array>(v_);
}

void Json::set(std::string key, Json value) {
  object().emplace_back(std::move(key), std::move(value));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string Json::dump() const {
  switch (type()) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return std::get<bool>(v_) ? "true" : "false";
    case Type::kNumber: {
      const double d = std::get<double>(v_);
      // Integral values (ids, counts) print without a decimal point.
      if (std::isfinite(d) && d == std::floor(d) &&
          std::abs(d) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(d));
        return buf;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      return buf;
    }
    case Type::kString:
      return "\"" + json_escape(std::get<std::string>(v_)) + "\"";
    case Type::kArray: {
      std::string out = "[";
      const Array& a = std::get<Array>(v_);
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i != 0) out += ",";
        out += a[i].dump();
      }
      return out + "]";
    }
    case Type::kObject: {
      std::string out = "{";
      const Object& o = std::get<Object>(v_);
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i != 0) out += ",";
        out += "\"" + json_escape(o[i].first) + "\":" + o[i].second.dump();
      }
      return out + "}";
    }
    case Type::kRaw:
      return std::get<RawTag>(v_).text;
  }
  return "null";
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> run() {
    skip_ws();
    std::optional<Json> v = value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      set_error("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void set_error(const char* what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string(what) + " at byte " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> value(int depth) {
    if (depth > kMaxDepth) {
      set_error("nesting too deep");
      return std::nullopt;
    }
    if (pos_ >= text_.size()) {
      set_error("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') {
      std::optional<std::string> s = string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (literal("null")) return Json(nullptr);
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    return number();
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      set_error("expected a value");
      return std::nullopt;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      set_error("malformed number");
      return std::nullopt;
    }
    // strtod answers an overflowing token with ±HUGE_VAL, which no JSON
    // text can carry back out.
    if (!std::isfinite(d)) {
      pos_ = start;
      set_error("number out of range");
      return std::nullopt;
    }
    return Json(d);
  }

  std::optional<std::string> string() {
    if (!eat('"')) {
      set_error("expected a string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        set_error("raw control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            set_error("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              set_error("malformed \\u escape");
              return std::nullopt;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by the protocol; lone surrogates encode as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          set_error("invalid escape");
          return std::nullopt;
      }
    }
    set_error("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> array(int depth) {
    eat('[');
    Json out{Json::Array{}};
    skip_ws();
    if (eat(']')) return out;
    while (true) {
      skip_ws();
      std::optional<Json> v = value(depth + 1);
      if (!v) return std::nullopt;
      out.array().push_back(std::move(*v));
      skip_ws();
      if (eat(']')) return out;
      if (!eat(',')) {
        set_error("expected ',' or ']'");
        return std::nullopt;
      }
    }
  }

  std::optional<Json> object(int depth) {
    eat('{');
    Json out{Json::Object{}};
    skip_ws();
    if (eat('}')) return out;
    while (true) {
      skip_ws();
      std::optional<std::string> key = string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) {
        set_error("expected ':'");
        return std::nullopt;
      }
      skip_ws();
      std::optional<Json> v = value(depth + 1);
      if (!v) return std::nullopt;
      out.set(std::move(*key), std::move(*v));
      skip_ws();
      if (eat('}')) return out;
      if (!eat(',')) {
        set_error("expected ',' or '}'");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).run();
}

}  // namespace lacon::service
