#include "rel/engine.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <limits>
#include <sstream>

#include "baseline/traditional.hpp"
#include "obs/trace.hpp"
#include "sched/list_scheduler.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace fsyn::rel {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-valve wear of the traditional dedicated-device design, for the
/// static-vs-dynamic lifetime comparison.  Valve ids are synthetic (the
/// design has no grid); loads follow the ValveCostModel conventions
/// documented in DESIGN.md §3.3 and docs/reliability.md: pump valves carry
/// their mixer's full peristaltic duty, control valves two transports
/// (fill + drain) per bound operation, detector and storage valves their
/// access traffic.
std::vector<sim::ValveWear> static_design_wear(const baseline::TraditionalDesign& design,
                                               const assay::SequencingGraph& graph) {
  std::vector<sim::ValveWear> wear;
  int id = 0;
  const auto add = [&](int pump, int control) {
    sim::ValveWear valve;
    valve.valve_id = id;
    valve.cell = Point{id, 0};
    valve.pump = pump;
    valve.control = control;
    if (valve.total() > 0) wear.push_back(valve);
    ++id;
  };
  const baseline::ValveCostModel& model = design.model;
  for (const baseline::MixerInstance& mixer : design.mixers) {
    const int ops = static_cast<int>(mixer.bound_ops.size());
    const int pump_load = ops * model.pump_actuations_per_mix;
    for (int v = 0; v < model.pump_valves_per_mixer; ++v) add(pump_load, 0);
    const int control_valves = model.mixer_valves(mixer.volume) - model.pump_valves_per_mixer;
    const int control_load = ops * model.control_actuations_per_transport * 2;
    for (int v = 0; v < control_valves; ++v) add(0, control_load);
  }
  if (design.detectors > 0) {
    const int detect_ops = graph.count(assay::OpKind::kDetect);
    const int per_detector = (detect_ops + design.detectors - 1) / design.detectors;
    const int load = per_detector * model.control_actuations_per_transport * 2;
    for (int d = 0; d < design.detectors; ++d) {
      for (int v = 0; v < model.detector_valves; ++v) add(0, load);
    }
  }
  const int storage_load = model.control_actuations_per_transport * 2;
  for (int c = 0; c < design.storage_cells; ++c) {
    for (int v = 0; v < model.valves_per_storage_cell; ++v) add(0, storage_load);
  }
  return wear;
}

void emit_estimate(std::ostringstream& os, const LifetimeEstimate& estimate,
                   bool include_timing, const std::string& indent);

/// Minimal repair of `previous` for the degraded `problem` (see
/// prepare_repair); nullopt when a moved device finds no feasible spot.
std::optional<synth::Placement> repair_placement(const synth::MappingProblem& problem,
                                                 const synth::Placement& previous) {
  if (static_cast<int>(previous.size()) != problem.task_count()) return std::nullopt;
  synth::Placement placement = previous;
  for (int i = 0; i < problem.task_count(); ++i) {
    if (problem.placement_allowed(i, placement[static_cast<std::size_t>(i)])) continue;
    bool placed = false;
    const auto partners = problem.conflict_partners(i);
    for (const arch::DeviceInstance& candidate : problem.candidates(i)) {
      if (std::all_of(partners.begin(), partners.end(), [&](int j) {
            return problem.pair_feasible(i, candidate, j,
                                         placement[static_cast<std::size_t>(j)]);
          })) {
        placement[static_cast<std::size_t>(i)] = candidate;
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;
  }
  try {
    problem.validate_placement(placement);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return placement;
}

}  // namespace

RepairSetup prepare_repair(const assay::SequencingGraph& graph, const sched::Schedule& schedule,
                           const synth::SynthesisOptions& base, int side,
                           const std::vector<Point>& dead, const synth::Placement& previous) {
  RepairSetup setup{base, false};
  synth::SynthesisOptions& options = setup.options;
  options.grid_size = side;
  options.dead_valves = dead;
  synth::MappingProblem probe =
      synth::MappingProblem::build(graph, schedule, arch::Architecture(side, side));
  probe.set_allow_storage_overlap(options.allow_storage_overlap);
  probe.set_routing_convenient(options.routing_convenient);
  probe.set_dead_valves(dead);
  if (auto warm = repair_placement(probe, previous)) {
    if (options.mapper == synth::MapperKind::kIlp) {
      options.ilp.warm_start = std::move(*warm);
    } else {
      options.heuristic.warm_start = std::move(*warm);
    }
    setup.warm_started = true;
  }
  return setup;
}

namespace {

void emit_estimate(std::ostringstream& os, const LifetimeEstimate& estimate,
                   bool include_timing, const std::string& indent) {
  os << "{\n";
  os << indent << "  \"trials\": " << estimate.trials << ",\n";
  os << indent << "  \"valve_count\": " << estimate.valve_count << ",\n";
  os << indent << "  \"mttf_runs\": " << estimate.mttf_runs << ",\n";
  os << indent << "  \"p10_runs\": " << estimate.p10_runs << ",\n";
  os << indent << "  \"p50_runs\": " << estimate.p50_runs << ",\n";
  os << indent << "  \"p90_runs\": " << estimate.p90_runs << ",\n";
  os << indent << "  \"min_runs\": " << estimate.min_runs << ",\n";
  os << indent << "  \"max_runs\": " << estimate.max_runs << ",\n";
  os << indent << "  \"first_failures\": [";
  for (std::size_t i = 0; i < estimate.first_failures.size(); ++i) {
    const FirstFailure& bar = estimate.first_failures[i];
    if (i > 0) os << ',';
    os << "\n" << indent << "    {\"valve_id\": " << bar.valve_id << ", \"cell\": ["
       << bar.cell.x << ", " << bar.cell.y << "], \"role\": \"" << sim::to_string(bar.role)
       << "\", \"per_run_actuations\": " << bar.per_run_actuations << ", \"count\": "
       << bar.count << '}';
  }
  if (!estimate.first_failures.empty()) os << "\n" << indent << "  ";
  os << ']';
  if (include_timing) {
    os << ",\n" << indent << "  \"elapsed_seconds\": " << estimate.elapsed_seconds << ",\n";
    os << indent << "  \"trials_per_second\": " << estimate.trials_per_second << ",\n";
    os << indent << "  \"block_latency\": " << estimate.block_latency.to_json();
  }
  os << "\n" << indent << '}';
}

}  // namespace

ReliabilityReport analyze(const assay::SequencingGraph& graph, const sched::Schedule& schedule,
                          const synth::SynthesisResult& healthy,
                          const ReliabilityOptions& options) {
  check_input(healthy.routing.success, "reliability analysis needs a routed synthesis result");
  check_input(healthy.chip_width > 0 && healthy.chip_height > 0,
              "healthy result has no chip dimensions");

  obs::Span span("rel", "analyze");
  if (span.active()) {
    span.arg("assay", graph.name());
    span.arg("trials", options.monte_carlo.trials);
  }

  ReliabilityReport report;
  report.assay = graph.name();
  report.policy_increments = options.policy_increments;
  report.asap = options.asap;
  report.chip_width = healthy.chip_width;
  report.chip_height = healthy.chip_height;
  report.seed = options.monte_carlo.seed;
  report.trials = options.monte_carlo.trials;
  report.model = options.monte_carlo.model;

  // Stage 1: lifetime of the healthy mapping (setting 1, the conservative
  // per-valve actuation account).
  report.healthy = estimate_lifetime(healthy.ledger_setting1, options.monte_carlo);

  // Stage 2: the traditional dedicated-device design as the static anchor.
  if (options.compare_static) {
    const sched::Policy policy = sched::make_policy(graph, options.policy_increments);
    const baseline::TraditionalDesign design =
        baseline::build_traditional(graph, policy, schedule);
    report.static_total_valves = design.total_valves;
    report.static_max_actuations = design.max_valve_actuations;
    report.static_baseline =
        estimate_lifetime(static_design_wear(design, graph), options.monte_carlo);
  }

  // Stage 3: fault injection + degraded re-synthesis.
  FaultPlan plan = options.faults;
  if (plan.empty() && options.inject_top > 0) {
    plan = top_wear_plan(healthy.ledger_setting1, options.inject_top,
                         options.monte_carlo.model);
  }
  plan.validate(healthy.chip_width, healthy.chip_height);
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at_run < b.at_run; });

  obs::LatencyHistogram resynthesis_latency;
  std::vector<Point> dead;
  synth::Placement previous = healthy.placement;
  for (const FaultEvent& event : plan.events) {
    options.monte_carlo.cancel.check("fault-injection rounds");
    dead.push_back(event.valve);

    RepairRound round;
    round.fault = event;

    RepairSetup setup =
        prepare_repair(graph, schedule, options.synthesis, healthy.chip_width, dead, previous);
    synth::SynthesisOptions& degraded = setup.options;
    if (!degraded.cancel.valid()) degraded.cancel = options.monte_carlo.cancel;
    round.warm_started = setup.warm_started;

    obs::Span round_span("rel", "resynthesize");
    if (round_span.active()) {
      round_span.arg("valve_x", event.valve.x);
      round_span.arg("valve_y", event.valve.y);
      round_span.arg("dead", dead.size());
    }
    const Clock::time_point started = Clock::now();
    try {
      synth::SynthesisResult repaired = synth::synthesize(graph, schedule, degraded);
      round.feasible = true;
      round.verdict = "remapped";
      round.vs1_max = repaired.vs1_max;
      round.valve_count = repaired.valve_count;
      round.lifetime = estimate_lifetime(repaired.ledger_setting1, options.monte_carlo);
      previous = repaired.placement;
    } catch (const CancelledError&) {
      throw;
    } catch (const Error& e) {
      round.feasible = false;
      round.verdict = e.what();
      log_info("rel: re-synthesis around (", event.valve.x, ",", event.valve.y,
               ") infeasible: ", e.what());
    }
    const auto elapsed = Clock::now() - started;
    round.resynthesis_seconds = std::chrono::duration<double>(elapsed).count();
    resynthesis_latency.record(elapsed);
    if (round_span.active()) round_span.arg("feasible", round.feasible);
    report.rounds.push_back(std::move(round));
  }
  report.resynthesis_latency = resynthesis_latency.snapshot();

  report.expected_runs_no_repair = report.healthy.mttf_runs;
  report.expected_runs_with_repair = report.healthy.mttf_runs;
  for (const RepairRound& round : report.rounds) {
    if (round.feasible && round.lifetime.has_value()) {
      report.expected_runs_with_repair += round.lifetime->mttf_runs;
    }
  }
  if (span.active()) {
    span.arg("mttf_runs", report.healthy.mttf_runs);
    span.arg("rounds", report.rounds.size());
  }
  return report;
}

std::string ReliabilityReport::to_json(bool include_timing) const {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\n";
  os << "  \"format\": \"flowsynth-reliability-v1\",\n";
  os << "  \"assay\": " << json_quote(assay) << ",\n";
  os << "  \"policy_increments\": " << policy_increments << ",\n";
  os << "  \"asap\": " << (asap ? "true" : "false") << ",\n";
  os << "  \"chip\": {\"width\": " << chip_width << ", \"height\": " << chip_height << "},\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"trials\": " << trials << ",\n";
  os << "  \"model\": {\"pump\": {\"characteristic_actuations\": "
     << model.pump.characteristic_actuations << ", \"shape\": " << model.pump.shape
     << "}, \"control\": {\"characteristic_actuations\": "
     << model.control.characteristic_actuations << ", \"shape\": " << model.control.shape
     << "}},\n";

  os << "  \"healthy\": ";
  emit_estimate(os, healthy, include_timing, "  ");
  os << ",\n";

  os << "  \"static_baseline\": ";
  if (static_baseline.has_value()) {
    emit_estimate(os, *static_baseline, include_timing, "  ");
    os << ",\n";
    os << "  \"static_total_valves\": " << static_total_valves << ",\n";
    os << "  \"static_max_actuations\": " << static_max_actuations << ",\n";
    os << "  \"comparison\": {\"mttf_dynamic\": " << healthy.mttf_runs
       << ", \"mttf_static\": " << static_baseline->mttf_runs << ", \"lifetime_gain\": "
       << (static_baseline->mttf_runs > 0.0 ? healthy.mttf_runs / static_baseline->mttf_runs
                                            : 0.0)
       << "},\n";
  } else {
    os << "null,\n";
  }

  os << "  \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RepairRound& round = rounds[i];
    if (i > 0) os << ',';
    os << "\n    {\"valve\": [" << round.fault.valve.x << ", " << round.fault.valve.y
       << "], \"mode\": \"" << to_string(round.fault.mode) << "\", \"at_run\": "
       << round.fault.at_run << ", \"feasible\": " << (round.feasible ? "true" : "false")
       << ", \"warm_started\": " << (round.warm_started ? "true" : "false")
       << ", \"verdict\": " << json_quote(round.verdict) << ", \"vs1_max\": " << round.vs1_max
       << ", \"valve_count\": " << round.valve_count;
    if (include_timing) {
      os << ", \"resynthesis_seconds\": " << round.resynthesis_seconds;
    }
    os << ", \"lifetime\": ";
    if (round.lifetime.has_value()) {
      emit_estimate(os, *round.lifetime, include_timing, "    ");
    } else {
      os << "null";
    }
    os << '}';
  }
  if (!rounds.empty()) os << "\n  ";
  os << "],\n";

  os << "  \"expected_runs_no_repair\": " << expected_runs_no_repair << ",\n";
  os << "  \"expected_runs_with_repair\": " << expected_runs_with_repair;
  if (include_timing) {
    os << ",\n  \"timing\": {\"resynthesis_latency\": " << resynthesis_latency.to_json()
       << "}";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace fsyn::rel
