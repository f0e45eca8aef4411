#include "decor/artifacts.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
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
  auto parsed = common::parse_json_file(path.string());
  if (parsed) {
    a.header = std::move(*parsed);
  } else {
    a.malformed = 1;
    a.kind = "other";
  }
  return a;
}

/// Appends `row` when its reader accepted it; false when it did not.
template <typename T>
bool keep(std::vector<T>& rows, std::optional<T> row) {
  if (!row) return false;
  rows.push_back(std::move(*row));
  return true;
}

/// Decodes one data line of `a` through the reader of its kind.
bool decode_row(Artifact& a, common::JsonValue row) {
  if (a.kind == "timeline") {
    return keep(a.timeline, sim::timeline_sample_from_json(row));
  }
  if (a.kind == "field") {
    return a.field_header.has_value() &&
           keep(a.field,
                coverage::field_snapshot_from_json(row, *a.field_header));
  }
  if (a.kind == "audit") return keep(a.audit, sim::audit_record_from_json(row));
  if (a.kind == "trace") return keep(a.trace, sim::trace_record_from_json(row));
  a.records.push_back(std::move(row));
  return true;
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
        if (a.kind == "field") {
          a.field_header = coverage::field_header_from_json(*parsed);
        }
        a.header = std::move(*parsed);
        continue;
      }
      if (parsed->find("seq") != nullptr && parsed->find("kind") != nullptr) {
        a.kind = "trace";
      }
    }
    if (!decode_row(a, std::move(*parsed))) ++a.malformed;
  }
  return a;
}

std::vector<Artifact> load_run_artifacts(const std::string& dir,
                                         const std::string& context) {
  std::error_code ec;
  DECOR_REQUIRE_MSG(fs::is_directory(dir, ec),
                    context + ": not a readable directory: " + dir);

  std::vector<std::pair<std::string, fs::path>> files;
  for (fs::recursive_directory_iterator
           it(dir, fs::directory_options::skip_permission_denied, ec),
       end;
       it != end; it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    files.emplace_back(fs::relative(it->path(), dir, ec).generic_string(),
                       it->path());
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

std::vector<std::size_t> even_subsample(std::size_t n, std::size_t cap) {
  const std::size_t m = cap == 0 ? n : std::min(n, cap);
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < m; ++i) {
    picks.push_back(m == n ? i : m > 1 ? i * (n - 1) / (m - 1) : n - 1);
  }
  picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
  return picks;
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
    if (a.kind == "field" && !a.field_header) {
      warnings.push_back({a.rel, "rejected decor.field.v1 header"});
      continue;
    }
    if (!document && a.rows() == 0) {
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
