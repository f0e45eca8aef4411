#include "common/options.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace decor::common {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      const std::string key = arg.substr(2, eq - 2);
      bare_.erase(key);
      if (eq != std::string::npos) {
        kv_[key] = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        // "--key value" form: the next token is the value unless it is
        // itself a flag (negative numbers bind as values, as expected).
        kv_[key] = argv[++i];
      } else {
        kv_[key] = "true";
        bare_.insert(key);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Options::get(const std::string& key, const std::string& def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

std::string Options::get_path(const std::string& key,
                              const std::string& def) const {
  if (bare_.count(key) > 0) {
    if (def.empty()) {
      throw std::invalid_argument("--" + key + " needs a path: --" + key +
                                  "=PATH");
    }
    return def;
  }
  const std::string v = get(key, "");
  return v.empty() ? def : v;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Options::get_double(const std::string& key, double def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Options::get_bool(const std::string& key, bool def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace decor::common
