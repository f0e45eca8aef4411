#include "sim/fault.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "common/require.hpp"
#include "sim/radio.hpp"
#include "sim/world.hpp"

namespace decor::sim {

namespace {

std::optional<FaultEvent::Kind> kind_from_name(const std::string& name) {
  if (name == "reboot") return FaultEvent::Kind::kReboot;
  if (name == "partition") return FaultEvent::Kind::kPartition;
  if (name == "corruption") return FaultEvent::Kind::kCorruption;
  if (name == "sink_outage") return FaultEvent::Kind::kSinkOutage;
  return std::nullopt;
}

void fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

}  // namespace

const char* fault_kind_name(FaultEvent::Kind kind) noexcept {
  switch (kind) {
    case FaultEvent::Kind::kReboot:
      return "reboot";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kCorruption:
      return "corruption";
    case FaultEvent::Kind::kSinkOutage:
      return "sink_outage";
  }
  return "unknown";
}

std::string FaultPlan::to_json() const {
  std::ostringstream os;
  common::JsonWriter w(os);
  w.begin_object();
  w.key("schema");
  w.value("decor.faults.v1");
  w.key("events");
  w.begin_array();
  for (const FaultEvent& ev : events) {
    w.begin_object();
    w.key("kind");
    w.value(fault_kind_name(ev.kind));
    w.key("at");
    w.value(ev.at);
    switch (ev.kind) {
      case FaultEvent::Kind::kReboot:
        if (ev.count > 0) {
          w.key("count");
          w.value(static_cast<std::uint64_t>(ev.count));
        } else {
          w.key("fraction");
          w.value(ev.fraction);
        }
        w.key("downtime");
        w.value(ev.downtime);
        break;
      case FaultEvent::Kind::kPartition:
        w.key("axis");
        w.value(ev.axis == 'y' ? "y" : "x");
        w.key("threshold");
        w.value(ev.threshold);
        w.key("until");
        w.value(ev.until);
        break;
      case FaultEvent::Kind::kCorruption:
        w.key("ber");
        w.value(ev.ber);
        w.key("until");
        w.value(ev.until);
        break;
      case FaultEvent::Kind::kSinkOutage:
        w.key("downtime");
        w.value(ev.downtime);
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

std::optional<FaultPlan> FaultPlan::parse(const common::JsonValue& doc,
                                          std::string* error) {
  if (!doc.is_object()) {
    fail(error, "fault plan must be a JSON object");
    return std::nullopt;
  }
  if (const common::JsonValue* schema = doc.find("schema");
      schema != nullptr && schema->as_string() != "decor.faults.v1") {
    fail(error, "unsupported fault plan schema: " + schema->as_string());
    return std::nullopt;
  }
  const common::JsonValue* events = doc.find("events");
  if (events == nullptr || !events->is_array()) {
    fail(error, "fault plan needs an \"events\" array");
    return std::nullopt;
  }
  FaultPlan plan;
  std::size_t idx = 0;
  for (const common::JsonValue& e : events->items()) {
    const std::string at_event = "event " + std::to_string(idx) + ": ";
    ++idx;
    if (!e.is_object()) {
      fail(error, at_event + "must be an object");
      return std::nullopt;
    }
    const auto parsed_kind = kind_from_name(e.string_at("kind"));
    if (!parsed_kind) {
      fail(error, at_event + "unknown \"kind\"");
      return std::nullopt;
    }
    FaultEvent ev;
    ev.kind = *parsed_kind;
    ev.at = e.number_at("at", 0.0);
    if (ev.at < 0.0) {
      fail(error, at_event + "\"at\" must be >= 0");
      return std::nullopt;
    }
    switch (ev.kind) {
      case FaultEvent::Kind::kReboot: {
        ev.fraction = e.number_at("fraction", 0.0);
        if (const common::JsonValue* count = e.find("count")) {
          const auto n = count->number_as<std::uint32_t>();
          if (!n || *n != count->as_number()) {
            fail(error,
                 at_event + "\"count\" must be a whole number in [0, 2^32)");
            return std::nullopt;
          }
          ev.count = *n;
        }
        ev.downtime = e.number_at("downtime", 5.0);
        if (ev.count == 0 && !(ev.fraction > 0.0 && ev.fraction <= 1.0)) {
          fail(error,
               at_event + "reboot needs \"count\" or \"fraction\" in (0,1]");
          return std::nullopt;
        }
        if (ev.downtime <= 0.0) {
          fail(error, at_event + "\"downtime\" must be > 0");
          return std::nullopt;
        }
        break;
      }
      case FaultEvent::Kind::kPartition: {
        const common::JsonValue* axis = e.find("axis");
        const std::string axis_name =
            axis != nullptr ? axis->as_string("x") : "x";
        if (axis_name != "x" && axis_name != "y") {
          fail(error, at_event + "\"axis\" must be \"x\" or \"y\"");
          return std::nullopt;
        }
        ev.axis = axis_name == "y" ? 'y' : 'x';
        ev.threshold = e.number_at("threshold", 0.0);
        ev.until = e.number_at("until", 0.0);
        if (ev.until <= ev.at) {
          fail(error, at_event + "partition \"until\" must be > \"at\"");
          return std::nullopt;
        }
        break;
      }
      case FaultEvent::Kind::kCorruption: {
        ev.ber = e.number_at("ber", 0.0);
        ev.until = e.number_at("until", 0.0);
        if (!(ev.ber > 0.0 && ev.ber < 1.0)) {
          fail(error, at_event + "\"ber\" must be in (0,1)");
          return std::nullopt;
        }
        if (ev.until <= ev.at) {
          fail(error, at_event + "corruption \"until\" must be > \"at\"");
          return std::nullopt;
        }
        break;
      }
      case FaultEvent::Kind::kSinkOutage: {
        ev.downtime = e.number_at("downtime", 5.0);
        if (ev.downtime <= 0.0) {
          fail(error, at_event + "\"downtime\" must be > 0");
          return std::nullopt;
        }
        break;
      }
    }
    plan.events.push_back(ev);
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::load(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    fail(error, "cannot open fault plan: " + path);
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = common::parse_json(text.str());
  if (!doc) {
    fail(error, "fault plan is not valid JSON: " + path);
    return std::nullopt;
  }
  return parse(*doc, error);
}

FaultInjector::FaultInjector(World& world, FaultPlan plan, Hooks hooks)
    : world_(world), plan_(std::move(plan)), hooks_(std::move(hooks)) {
  DECOR_REQUIRE_MSG(hooks_.kill != nullptr, "fault injector needs a kill hook");
  DECOR_REQUIRE_MSG(hooks_.reboot != nullptr,
                    "fault injector needs a reboot hook");
}

void FaultInjector::arm() {
  DECOR_REQUIRE_MSG(!armed_, "fault plan already armed");
  armed_ = true;
  for (const FaultEvent& ev : plan_.events) {
    world_.sim().schedule_at(ev.at, [this, &ev] { fire(ev); });
  }
}

void FaultInjector::note_fired(const FaultEvent& ev,
                               const std::string& detail) {
  std::string line = "t=" + common::format_double(world_.sim().now());
  line += " ";
  line += fault_kind_name(ev.kind);
  if (!detail.empty()) {
    line += " ";
    line += detail;
  }
  fired_.push_back(line);
  world_.trace().record(world_.sim().now(), TraceKind::kProtocol, 0,
                        "fault:" + std::string(fault_kind_name(ev.kind)) +
                            (detail.empty() ? "" : " " + detail));
}

void FaultInjector::fire(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::kReboot:
      fire_reboot(ev);
      break;
    case FaultEvent::Kind::kPartition:
      fire_partition(ev);
      break;
    case FaultEvent::Kind::kCorruption:
      fire_corruption(ev);
      break;
    case FaultEvent::Kind::kSinkOutage:
      fire_sink_outage(ev);
      break;
  }
}

void FaultInjector::fire_reboot(const FaultEvent& ev) {
  std::vector<std::uint32_t> eligible;
  for (std::uint32_t id : world_.alive_ids()) {
    if (hooks_.is_protected && hooks_.is_protected(id)) continue;
    eligible.push_back(id);
  }
  std::size_t want = ev.count > 0
                         ? ev.count
                         : static_cast<std::size_t>(std::llround(
                               ev.fraction *
                               static_cast<double>(eligible.size())));
  if (want == 0 && ev.fraction > 0.0 && !eligible.empty()) want = 1;
  if (want > eligible.size()) want = eligible.size();
  const auto picks = world_.rng().sample_indices(eligible.size(), want);
  std::vector<std::uint32_t> victims;
  victims.reserve(picks.size());
  for (const std::size_t i : picks) victims.push_back(eligible[i]);
  for (const std::uint32_t id : victims) {
    hooks_.kill(id);
    world_.sim().schedule(ev.downtime, [this, id] { hooks_.reboot(id); });
  }
  note_fired(ev, "n=" + std::to_string(victims.size()) +
                     " downtime=" + common::format_double(ev.downtime));
}

void FaultInjector::fire_partition(const FaultEvent& ev) {
  const char axis = ev.axis;
  const double threshold = ev.threshold;
  World* w = &world_;
  const auto side = [w, axis, threshold](std::uint32_t id) {
    const geom::Point2 p = w->position(id);
    return (axis == 'y' ? p.y : p.x) < threshold;
  };
  const std::uint64_t handle = world_.radio().add_partition(
      [side](std::uint32_t a, std::uint32_t b) { return side(a) != side(b); });
  ++active_partitions_;
  note_fired(ev, std::string(1, axis) + "<" +
                     common::format_double(threshold) +
                     " until=" + common::format_double(ev.until));
  world_.sim().schedule_at(ev.until, [this, handle] {
    world_.radio().remove_partition(handle);
    --active_partitions_;
    world_.trace().record(world_.sim().now(), TraceKind::kProtocol, 0,
                          "fault:partition-heal");
  });
}

void FaultInjector::fire_corruption(const FaultEvent& ev) {
  world_.radio().set_corruption_ber(ev.ber);
  note_fired(ev, "ber=" + common::format_double(ev.ber) +
                     " until=" + common::format_double(ev.until));
  world_.sim().schedule_at(ev.until, [this] {
    world_.radio().set_corruption_ber(0.0);
    world_.trace().record(world_.sim().now(), TraceKind::kProtocol, 0,
                          "fault:corruption-end");
  });
}

void FaultInjector::fire_sink_outage(const FaultEvent& ev) {
  if (!hooks_.has_sink) return;  // no data plane: nothing to take down
  const std::uint32_t sink = hooks_.sink;
  hooks_.kill(sink);
  world_.sim().schedule(ev.downtime, [this, sink] { hooks_.reboot(sink); });
  note_fired(ev, "sink=" + std::to_string(sink) +
                     " downtime=" + common::format_double(ev.downtime));
}

std::string FaultInjector::manifest_json() const {
  std::ostringstream os;
  os << "{\"plan\":" << plan_.to_json() << ",\"fired\":[";
  for (std::size_t i = 0; i < fired_.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << common::json_escape(fired_[i]) << '"';
  }
  os << "]}";
  return os.str();
}

}  // namespace decor::sim
