// Minimal streaming JSON writer for the telemetry layer.
//
// Every machine-readable artifact the repo emits (bench --json reports,
// metrics snapshots, trace JSONL sinks) goes through this writer so the
// output is byte-stable: keys are written in the order the caller chooses,
// doubles are formatted with std::to_chars (shortest round-trippable form,
// locale-independent), and non-finite doubles become null (JSON has no
// NaN/Inf literals).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace decor::common {

/// Shortest round-trippable, locale-independent decimal form of `v`
/// (std::to_chars). NaN renders as "nan" and infinities as "inf"/"-inf";
/// JSON callers must map those to null (JsonWriter::value does).
std::string format_double(double v);

/// `s` with JSON string escapes applied (quotes, backslash, control
/// characters as \u00XX), without surrounding quotes.
std::string json_escape(std::string_view s);

/// Structure-tracking streaming writer. The caller provides well-formed
/// nesting (key before every value inside an object); the writer inserts
/// commas and key quoting.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Writes the key of the next value; only valid inside an object.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(bool v);
  void null_value();

  /// Emits a pre-rendered JSON value verbatim (comma and key bookkeeping
  /// still apply). For embedding documents another layer already
  /// serialized — the caller guarantees `json` is well-formed.
  void raw_value(std::string_view json);

 private:
  /// Comma/position bookkeeping before a value or container start.
  void pre_value();

  struct Level {
    bool first = true;
  };
  std::ostream& os_;
  std::vector<Level> stack_;
  bool after_key_ = false;
};

/// Parsed JSON document tree: the reader counterpart of JsonWriter, used
/// by the artifact consumers (`decor bench diff`, `decor report html`,
/// `decor trace report`). Objects preserve key order (the writers emit
/// keys in a deliberate order and the diff/report output should match).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool(bool def = false) const noexcept {
    return is_bool() ? bool_ : def;
  }
  double as_number(double def = 0.0) const noexcept {
    return is_number() ? num_ : def;
  }
  /// String content; `def` for non-strings.
  const std::string& as_string(const std::string& def = empty_string()) const
      noexcept {
    return is_string() ? str_ : def;
  }

  /// Array elements (empty for non-arrays).
  const std::vector<JsonValue>& items() const noexcept { return arr_; }
  /// Object members in document order (empty for non-objects).
  const std::vector<Member>& members() const noexcept { return obj_; }

  /// First member named `key`, or nullptr (also for non-objects).
  const JsonValue* find(std::string_view key) const noexcept;
  /// Member `key` as a number converted to T; `def` when the member is
  /// absent, not a number, or (integral T) outside T's range, where the
  /// conversion would be undefined.
  template <typename T = double>
  T number_at(std::string_view key, T def = T{}) const noexcept {
    const JsonValue* v = find(key);
    if (v == nullptr || !v->is_number()) return def;
    if constexpr (std::is_integral_v<T>) {
      // [min, max + 1), both bounds exact in a double.
      constexpr auto lo = static_cast<double>(std::numeric_limits<T>::min());
      constexpr double hi =
          2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
      if (!(v->num_ >= lo && v->num_ < hi)) return def;
    }
    return static_cast<T>(v->num_);
  }
  /// Member `key` as a string; empty when absent or not a string.
  const std::string& string_at(std::string_view key) const noexcept {
    const JsonValue* v = find(key);
    return v != nullptr ? v->as_string() : empty_string();
  }
  /// find() chained over a path of keys, e.g. get("setup", "seed").
  template <typename... Keys>
  const JsonValue* get(std::string_view key, Keys... rest) const noexcept {
    const JsonValue* v = find(key);
    if constexpr (sizeof...(rest) == 0) {
      return v;
    } else {
      return v ? v->get(rest...) : nullptr;
    }
  }

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<Member> members);

 private:
  static const std::string& empty_string() noexcept {
    static const std::string kEmpty;
    return kEmpty;
  }

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<Member> obj_;
};

/// Parses one complete JSON document (leading/trailing whitespace
/// allowed). Returns nullopt on any syntax error or trailing garbage —
/// exactly what the skip-and-count consumers of possibly-truncated JSONL
/// lines need. Depth is bounded (128) so corrupt input cannot blow the
/// stack.
std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace decor::common
