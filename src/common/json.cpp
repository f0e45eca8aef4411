#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/require.hpp"

namespace decor::common {

std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "nan";
  } else if (std::isinf(v)) {
    out += v > 0.0 ? "inf" : "-inf";
  } else {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    DECOR_ASSERT(res.ec == std::errc{});
    out.append(buf, res.ptr);
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::pre_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (!stack_.back().first) os_ << ',';
    stack_.back().first = false;
  }
}

void JsonWriter::begin_object() {
  pre_value();
  os_ << '{';
  stack_.push_back(Level{});
}

void JsonWriter::end_object() {
  DECOR_ASSERT(!stack_.empty() && !after_key_);
  os_ << '}';
  stack_.pop_back();
}

void JsonWriter::begin_array() {
  pre_value();
  os_ << '[';
  stack_.push_back(Level{});
}

void JsonWriter::end_array() {
  DECOR_ASSERT(!stack_.empty() && !after_key_);
  os_ << ']';
  stack_.pop_back();
}

void JsonWriter::key(std::string_view k) {
  DECOR_ASSERT(!stack_.empty() && !after_key_);
  if (!stack_.back().first) os_ << ',';
  stack_.back().first = false;
  os_ << '"' << json_escape(k) << "\":";
  after_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  pre_value();
  os_ << '"' << json_escape(s) << '"';
}

void JsonWriter::raw_value(std::string_view json) {
  pre_value();
  os_ << json;
}

void JsonWriter::value(double v) {
  pre_value();
  if (!std::isfinite(v)) {
    os_ << "null";
    return;
  }
  os_ << format_double(v);
}

void JsonWriter::value(std::uint64_t v) {
  pre_value();
  os_ << v;
}

void JsonWriter::value(std::int64_t v) {
  pre_value();
  os_ << v;
}

void JsonWriter::value(bool v) {
  pre_value();
  os_ << (v ? "true" : "false");
}

void JsonWriter::null_value() {
  pre_value();
  os_ << "null";
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.arr_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::vector<Member> members) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.obj_ = std::move(members);
  return v;
}

namespace {

/// Recursive-descent JSON reader over a string_view. Fails soft (bool
/// returns) so a truncated line never throws; parse_json turns the
/// failure into nullopt.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  static constexpr int kMaxDepth = 128;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eof() const noexcept { return pos_ >= text_.size(); }
  char peek() const noexcept { return text_[pos_]; }

  bool consume(char expected) {
    if (eof() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth || eof()) return false;
    switch (peek()) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue::make_string(std::move(s));
        return true;
      }
      case 't':
        if (!consume_literal("true")) return false;
        out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (!consume_literal("false")) return false;
        out = JsonValue::make_bool(false);
        return true;
      case 'n':
        if (!consume_literal("null")) return false;
        out = JsonValue::make_null();
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    if (!consume('{')) return false;
    std::vector<JsonValue::Member> members;
    skip_ws();
    if (consume('}')) {
      out = JsonValue::make_object(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      return false;
    }
    out = JsonValue::make_object(std::move(members));
    return true;
  }

  bool parse_array(JsonValue& out, int depth) {
    if (!consume('[')) return false;
    std::vector<JsonValue> items;
    skip_ws();
    if (consume(']')) {
      out = JsonValue::make_array(std::move(items));
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      items.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      return false;
    }
    out = JsonValue::make_array(std::move(items));
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (true) {
      if (eof()) return false;
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
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
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          append_utf8(out, cp);
          break;
        }
        default:
          return false;
      }
    }
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return false;
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    out = v;
    return true;
  }

  /// Encodes one BMP code point (what \uXXXX can express; surrogate
  /// pairs are passed through as two 3-byte sequences — the repo's own
  /// writers never emit them).
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
      // fallthrough to digits
    }
    if (eof() || peek() < '0' || peek() > '9') return false;
    while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') return false;
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') return false;
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    double v = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec != std::errc{}) return false;
    out = JsonValue::make_number(v);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) {
  JsonParser parser(text);
  JsonValue v;
  if (!parser.parse(v)) return std::nullopt;
  return v;
}

std::optional<JsonValue> parse_json_file(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) return std::nullopt;
  std::stringstream buf;
  buf << f.rdbuf();
  return parse_json(buf.str());
}

std::optional<double> data_row_time(const JsonValue& row) noexcept {
  if (!row.is_object() || row.find("schema") != nullptr) return std::nullopt;
  const JsonValue* t = row.find("t");
  return t != nullptr ? t->number_as<double>() : std::nullopt;
}

}  // namespace decor::common
