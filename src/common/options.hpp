// Minimal command-line option parser for the bench harness and examples.
//
// Accepts --key=value, --key value (next token not itself a flag) and
// bare --flag forms; anything else is a positional argument. Typed
// getters fall back to supplied defaults, so every harness binary runs
// with sensible parameters when invoked bare (as the top-level "run
// everything in build/bench" loop does).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace decor::common {

class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& def) const;
  /// For an option that names a file or directory: its value, or `def`
  /// when it is absent, empty (--key=) or bare (--key, which get() reads
  /// as "true" and would otherwise name a file "true"). A bare flag with
  /// no default (`def` empty) names nothing, so it throws
  /// std::invalid_argument naming the --key=PATH form.
  std::string get_path(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> kv_;
  /// Keys whose last occurrence was a bare --flag.
  std::set<std::string> bare_;
  std::vector<std::string> positional_;
};

}  // namespace decor::common
