#include "net/wire.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "fleet/fleet.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace fsyn::net {

namespace {

const char* kKnownKeys[] = {"kind",     "assay",       "dsl",         "name",
                            "policy",   "asap",        "seed",        "grid",
                            "ilp",      "time_limit_seconds", "ilp_threads",
                            "priority", "deadline_ms", "reliability", "fleet"};

const char* kKnownReliabilityKeys[] = {"trials",     "seed",       "inject_top",
                                       "fault_plan", "compare_static",
                                       "pump_life",  "control_life", "shape"};

const char* kKnownFleetKeys[] = {"chips",        "cadence",      "horizon",
                                 "repair_workers", "max_repairs",
                                 "degrade_threshold", "pump_life",
                                 "control_life", "shape"};

void check_keys(const JsonValue& object, const char* const* known, std::size_t count,
                const char* where) {
  for (const auto& [name, value] : object.members()) {
    bool ok = false;
    for (std::size_t i = 0; i < count; ++i) {
      if (name == known[i]) {
        ok = true;
        break;
      }
    }
    check_input(ok, std::string("unknown ") + where + " key '" + name + "'");
  }
}

}  // namespace

svc::JobPriority priority_from_string(const std::string& name) {
  if (name == "interactive") return svc::JobPriority::kInteractive;
  if (name == "batch") return svc::JobPriority::kBatch;
  if (name == "background") return svc::JobPriority::kBackground;
  throw Error("unknown priority '" + name +
              "' (expected interactive, batch or background)");
}

WireSpec parse_wire_spec(const std::string& json_text) {
  const JsonValue doc = JsonValue::parse(json_text);
  check_input(doc.is_object(), "job spec must be a JSON object");
  check_keys(doc, kKnownKeys, std::size(kKnownKeys), "job spec");

  WireSpec wire;
  svc::JobSpec& spec = wire.spec;

  std::string kind = "synthesis";
  if (const JsonValue* value = doc.find("kind")) kind = value->as_string();
  if (kind == "synthesis") {
    spec.kind = svc::JobKind::kSynthesis;
  } else if (kind == "reliability") {
    spec.kind = svc::JobKind::kReliability;
  } else if (kind == "fleet") {
    spec.kind = svc::JobKind::kFleet;
  } else {
    throw Error("unknown job kind '" + kind + "'");
  }

  const JsonValue* assay = doc.find("assay");
  const JsonValue* dsl = doc.find("dsl");
  check_input((assay != nullptr) != (dsl != nullptr),
              "job spec needs exactly one of \"assay\" (benchmark name) or "
              "\"dsl\" (inline assay text)");
  if (assay != nullptr) {
    wire.assay_ref = assay->as_string();
    bool known = false;
    for (const auto& name : assay::extended_benchmark_names()) {
      if (name == wire.assay_ref) {
        known = true;
        break;
      }
    }
    check_input(known, "unknown benchmark '" + wire.assay_ref + "'");
    spec.graph = assay::make_benchmark(wire.assay_ref);
  } else {
    wire.assay_ref = "(inline)";
    spec.graph = assay::parse_assay(dsl->as_string());
  }
  spec.name = spec.graph.name();
  if (const JsonValue* value = doc.find("name")) spec.name = value->as_string();

  if (const JsonValue* value = doc.find("policy")) {
    wire.policy_increments = static_cast<int>(value->as_int());
    check_input(wire.policy_increments >= 0, "\"policy\" must be >= 0");
  }
  if (const JsonValue* value = doc.find("asap")) wire.asap = value->as_bool();
  spec.policy_increments = wire.policy_increments;
  spec.asap = wire.asap;

  if (const JsonValue* value = doc.find("seed")) {
    wire.seed = static_cast<std::uint64_t>(value->as_int());
  }
  spec.options.heuristic.seed = wire.seed;
  if (const JsonValue* value = doc.find("grid")) {
    const int grid = static_cast<int>(value->as_int());
    check_input(grid > 0, "\"grid\" must be positive");
    spec.options.grid_size = grid;
  }
  if (const JsonValue* value = doc.find("ilp"); value != nullptr && value->as_bool()) {
    spec.options.mapper = synth::MapperKind::kIlp;
  }
  if (const JsonValue* value = doc.find("time_limit_seconds")) {
    const double seconds = value->as_number();
    check_input(std::isfinite(seconds) && seconds >= 0.0,
                "\"time_limit_seconds\" must be finite and >= 0");
    spec.options.ilp.time_limit_seconds = seconds;
  }
  if (const JsonValue* value = doc.find("ilp_threads")) {
    const std::int64_t threads = value->as_int();
    check_input(threads >= 0 && threads <= ilp::kMaxMilpThreads,
                "\"ilp_threads\" must be 0.." + std::to_string(ilp::kMaxMilpThreads));
    spec.options.ilp.threads = static_cast<int>(threads);
  }

  // Interactive by default: a POSTed synthesis has a caller waiting on it.
  // Reliability analyses are the fleet's background re-synthesis work, and
  // whole-fleet simulations are long batch jobs.
  spec.priority = spec.kind == svc::JobKind::kReliability ? svc::JobPriority::kBackground
                  : spec.kind == svc::JobKind::kFleet     ? svc::JobPriority::kBatch
                                                          : svc::JobPriority::kInteractive;
  if (const JsonValue* value = doc.find("priority")) {
    spec.priority = priority_from_string(value->as_string());
  }

  if (const JsonValue* value = doc.find("deadline_ms")) {
    const std::int64_t ms = value->as_int();
    check_input(ms > 0, "\"deadline_ms\" must be positive");
    spec.deadline = std::chrono::milliseconds(ms);
  }

  if (const JsonValue* value = doc.find("reliability")) {
    check_input(value->is_object(), "\"reliability\" must be an object");
    check_keys(*value, kKnownReliabilityKeys, std::size(kKnownReliabilityKeys),
               "reliability");
    rel::ReliabilityOptions& r = spec.reliability;
    r.monte_carlo.seed = wire.seed;
    if (const JsonValue* v = value->find("trials")) {
      r.monte_carlo.trials = static_cast<int>(v->as_int());
      check_input(r.monte_carlo.trials > 0, "\"trials\" must be positive");
    }
    if (const JsonValue* v = value->find("seed")) {
      r.monte_carlo.seed = static_cast<std::uint64_t>(v->as_int());
    }
    if (const JsonValue* v = value->find("inject_top")) {
      r.inject_top = static_cast<int>(v->as_int());
    }
    if (const JsonValue* v = value->find("fault_plan")) {
      r.faults = rel::FaultPlan::parse(v->as_string());
    }
    if (const JsonValue* v = value->find("compare_static")) {
      r.compare_static = v->as_bool();
    }
    if (const JsonValue* v = value->find("pump_life")) {
      r.monte_carlo.model.pump.characteristic_actuations = v->as_number();
    }
    if (const JsonValue* v = value->find("control_life")) {
      r.monte_carlo.model.control.characteristic_actuations = v->as_number();
    }
    if (const JsonValue* v = value->find("shape")) {
      r.monte_carlo.model.pump.shape = v->as_number();
      r.monte_carlo.model.control.shape = v->as_number();
    }
  }

  if (spec.kind == svc::JobKind::kFleet) {
    fleet::FleetOptions foptions;
    foptions.seed = wire.seed;
    foptions.synthesis = spec.options;
    foptions.policy_increments = wire.policy_increments;
    foptions.asap = wire.asap;
    if (const JsonValue* value = doc.find("fleet")) {
      check_input(value->is_object(), "\"fleet\" must be an object");
      check_keys(*value, kKnownFleetKeys, std::size(kKnownFleetKeys), "fleet");
      if (const JsonValue* v = value->find("chips")) {
        foptions.chips = static_cast<int>(v->as_int());
        check_input(foptions.chips > 0, "\"chips\" must be positive");
      }
      if (const JsonValue* v = value->find("cadence")) {
        foptions.cadence = static_cast<int>(v->as_int());
        check_input(foptions.cadence > 0, "\"cadence\" must be positive");
      }
      if (const JsonValue* v = value->find("horizon")) {
        foptions.horizon = static_cast<int>(v->as_int());
        check_input(foptions.horizon > 0, "\"horizon\" must be positive");
      }
      if (const JsonValue* v = value->find("repair_workers")) {
        foptions.repair_workers = static_cast<int>(v->as_int());
        check_input(foptions.repair_workers > 0, "\"repair_workers\" must be positive");
      }
      if (const JsonValue* v = value->find("max_repairs")) {
        foptions.max_repairs_per_chip = static_cast<int>(v->as_int());
        check_input(foptions.max_repairs_per_chip >= 0, "\"max_repairs\" must be >= 0");
      }
      if (const JsonValue* v = value->find("degrade_threshold")) {
        foptions.diagnosis.latency_threshold_ms = v->as_number();
      }
      if (const JsonValue* v = value->find("pump_life")) {
        foptions.chip.model.pump.characteristic_actuations = v->as_number();
      }
      if (const JsonValue* v = value->find("control_life")) {
        foptions.chip.model.control.characteristic_actuations = v->as_number();
      }
      if (const JsonValue* v = value->find("shape")) {
        foptions.chip.model.pump.shape = v->as_number();
        foptions.chip.model.control.shape = v->as_number();
      }
    }
    // make_fleet_job owns its own copy of the graph; the wire spec keeps the
    // already-parsed name/priority/deadline and only adopts the runner.
    svc::JobSpec fleet_spec = fleet::make_fleet_job(
        std::make_shared<const assay::SequencingGraph>(spec.graph), foptions);
    spec.fleet_runner = std::move(fleet_spec.fleet_runner);
  }

  wire.canonical = doc.dump();
  return wire;
}

}  // namespace fsyn::net
