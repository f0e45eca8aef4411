#include "decor/artifacts.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/require.hpp"

namespace decor::core {

namespace {

namespace fs = std::filesystem;

Artifact load_document(const fs::path& path, const std::string& rel,
                       const std::string& kind) {
  Artifact a;
  a.rel = rel;
  a.kind = kind;
  std::ifstream f(path);
  std::stringstream buf;
  buf << f.rdbuf();
  auto parsed = common::parse_json(buf.str());
  if (parsed) {
    a.header = std::move(*parsed);
  } else {
    a.malformed = 1;
    a.kind = "other";
  }
  return a;
}

}  // namespace

Artifact load_jsonl_artifact(const std::string& path, const std::string& rel) {
  Artifact a;
  a.rel = rel;
  a.kind = "other";
  std::ifstream f(path);
  std::string line;
  bool first = true;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    auto parsed = common::parse_json(line);
    if (!parsed) {
      ++a.malformed;
      continue;
    }
    if (first) {
      first = false;
      if (const auto* schema = parsed->find("schema");
          schema != nullptr && schema->is_string()) {
        const std::string& s = schema->as_string();
        if (s == "decor.field.v1") a.kind = "field";
        if (s == "decor.timeline.v1") a.kind = "timeline";
        if (s == "decor.audit.v1") a.kind = "audit";
        if (s == "decor.metrics.v1") a.kind = "metrics-stream";
        a.header = std::move(*parsed);
        a.header_line = line;
        continue;
      }
      if (parsed->find("seq") != nullptr && parsed->find("kind") != nullptr) {
        a.kind = "trace";
      }
    }
    a.records.push_back(std::move(*parsed));
    a.lines.push_back(line);
  }
  return a;
}

std::vector<Artifact> load_run_artifacts(const std::string& dir,
                                         const std::string& context) {
  std::error_code ec;
  DECOR_REQUIRE_MSG(fs::is_directory(dir, ec),
                    context + ": not a readable directory: " + dir);

  std::vector<fs::path> paths;
  for (fs::recursive_directory_iterator
           it(dir, fs::directory_options::skip_permission_denied, ec),
       end;
       it != end; it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) paths.push_back(it->path());
  }
  std::vector<std::pair<std::string, fs::path>> files;
  files.reserve(paths.size());
  for (const auto& p : paths) {
    files.emplace_back(fs::relative(p, dir, ec).generic_string(), p);
  }
  std::sort(files.begin(), files.end());

  std::vector<Artifact> artifacts;
  for (const auto& [rel, path] : files) {
    const std::string name = path.filename().string();
    if (name.size() > 6 && name.ends_with(".jsonl")) {
      artifacts.push_back(load_jsonl_artifact(path.string(), rel));
    } else if (name == "manifest.json") {
      artifacts.push_back(load_document(path, rel, "manifest"));
    } else if (name == "metrics.json") {
      artifacts.push_back(load_document(path, rel, "metrics"));
    }
  }
  return artifacts;
}

std::vector<ArtifactWarning> collect_artifact_warnings(
    const std::vector<Artifact>& artifacts) {
  std::vector<ArtifactWarning> warnings;
  for (const auto& a : artifacts) {
    const bool document = a.kind == "manifest" || a.kind == "metrics";
    if (a.kind == "other" && a.records.empty()) {
      warnings.push_back({a.rel, a.malformed > 0 ? "unparseable" : "empty"});
      continue;
    }
    if (!document && a.records.empty()) {
      warnings.push_back({a.rel, "no records (empty or truncated)"});
      continue;
    }
    if (a.malformed > 0) {
      warnings.push_back({a.rel, std::to_string(a.malformed) +
                                     " malformed line" +
                                     (a.malformed == 1 ? "" : "s")});
    }
  }
  return warnings;
}

}  // namespace decor::core
