#include "http/http_json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace longtail {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  kind_ = Kind::kObject;
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::Append(JsonValue value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
  return *this;
}

Result<int64_t> JsonValue::AsInt64(int64_t lo, int64_t hi) const {
  if (kind_ != Kind::kNumber) {
    return Status::InvalidArgument("expected a number");
  }
  const double v = number_;
  if (std::nearbyint(v) != v || std::isnan(v)) {
    return Status::InvalidArgument("expected an integer, got a fraction");
  }
  // 2^53 bounds the integers a double holds exactly; the schema ranges
  // passed in are far smaller, but the guard keeps the cast defined.
  if (v < -9007199254740992.0 || v > 9007199254740992.0) {
    return Status::InvalidArgument("integer out of exact double range");
  }
  const int64_t i = static_cast<int64_t>(v);
  if (i < lo || i > hi) {
    return Status::InvalidArgument(
        "integer " + std::to_string(i) + " outside [" + std::to_string(lo) +
        ", " + std::to_string(hi) + "]");
  }
  return i;
}

namespace {

/// Strict single-pass parser over the document bytes. Methods return false
/// after setting `error_`; the public entry wraps that into a Status.
class JsonParser {
 public:
  JsonParser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    if (!ParseValue(&root, 0)) {
      return Status::InvalidArgument("JSON parse error at byte " +
                                     std::to_string(pos_) + ": " + error_);
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          "JSON parse error at byte " + std::to_string(pos_) +
          ": trailing content after document");
    }
    return root;
  }

 private:
  bool Fail(const char* why) {
    error_ = why;
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Expect(char c, const char* why) {
    if (AtEnd() || text_[pos_] != c) return Fail(why);
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    SkipWhitespace();
    if (AtEnd()) return Fail("unexpected end of document");
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = JsonValue::String(std::move(s));
        return true;
      }
      case 't':
        if (!ConsumeLiteral("true")) return false;
        *out = JsonValue::Bool(true);
        return true;
      case 'f':
        if (!ConsumeLiteral("false")) return false;
        *out = JsonValue::Bool(false);
        return true;
      case 'n':
        if (!ConsumeLiteral("null")) return false;
        *out = JsonValue::Null();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ConsumeLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool ParseObject(JsonValue* out, int depth) {
    if (depth >= max_depth_) return Fail("nesting too deep");
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key");
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Expect(':', "expected ':' after object key")) return false;
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    if (depth >= max_depth_) return Fail("nesting too deep");
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->Append(std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool HexDigit(char c, uint32_t* out) {
    if (c >= '0' && c <= '9') {
      *out = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      *out = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      *out = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return false;
    }
    return true;
  }

  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      uint32_t digit = 0;
      if (!HexDigit(text_[pos_ + i], &digit)) {
        return Fail("invalid \\u escape digit");
      }
      value = value << 4 | digit;
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (AtEnd()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return Fail("bare control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (AtEnd()) return Fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("lone high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    // Integer part: 0, or [1-9][0-9]* — leading zeros are invalid JSON.
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Fail("invalid number");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("invalid number fraction");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("invalid number exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    // The validated slice is NUL-free ASCII, so strtod on a copied buffer
    // parses exactly the slice (correctly-rounded on glibc, which makes
    // shortest-form output round-trip bit-identically).
    const std::string slice(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(slice.c_str(), &end);
    if (end != slice.c_str() + slice.size()) return Fail("invalid number");
    *out = JsonValue::Number(value);
    return true;
  }

  std::string_view text_;
  const int max_depth_;
  size_t pos_ = 0;
  const char* error_ = "";
};

void WriteString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(raw);  // UTF-8 bytes pass through unmodified
        }
    }
  }
  out->push_back('"');
}

void WriteNumber(double v, std::string* out) {
  if (std::isnan(v) || std::isinf(v)) {
    // JSON has no non-finite numbers; the serving schemas never produce
    // them (kUnreachableScore is finite), so this is pure defense.
    *out += "null";
    return;
  }
  if (std::nearbyint(v) == v && v >= -9007199254740992.0 &&
      v <= 9007199254740992.0) {
    // The integer cast drops the sign of -0.0; keep it so the value
    // round-trips bit-identically (JSON's "-0" parses back as -0.0).
    if (std::signbit(v) && v == 0.0) out->push_back('-');
    *out += std::to_string(static_cast<int64_t>(v));
    return;
  }
  // Shortest round-trip form: parsing it back yields the identical double.
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, ptr);
  (void)ec;  // to_chars cannot fail on a 32-byte buffer for doubles
}

void WriteValue(const JsonValue& value, std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += value.bool_value() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      WriteNumber(value.number_value(), out);
      break;
    case JsonValue::Kind::kString:
      WriteString(value.string_value(), out);
      break;
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out->push_back(',');
        first = false;
        WriteString(key, out);
        out->push_back(':');
        WriteValue(member, out);
      }
      out->push_back('}');
      break;
    }
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) out->push_back(',');
        first = false;
        WriteValue(item, out);
      }
      out->push_back(']');
      break;
    }
  }
}

}  // namespace

Result<JsonValue> ParseJson(std::string_view text, int max_depth) {
  return JsonParser(text, max_depth).Parse();
}

std::string WriteJson(const JsonValue& value) {
  std::string out;
  WriteValue(value, &out);
  return out;
}

}  // namespace longtail
