#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "e2e.hpp"
#include "sim/control_program.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace fsyn::e2e {

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t below = static_cast<std::size_t>(position);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

std::vector<std::size_t> seeded_order(std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed);
  for (std::size_t i = count; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

bool Report::expect(bool ok, const std::string& what) {
  if (!ok) std::cerr << "CHECK FAILED: " << what << "\n";
  return ok;
}

double SpanTotals::get(const std::string& name) const {
  const auto it = samples_ms.find(name);
  if (it == samples_ms.end()) return 0.0;
  return std::accumulate(it->second.begin(), it->second.end(), 0.0) * 1e-3;
}

void SpanTotals::absorb(std::vector<obs::TraceEvent>* keep) {
  std::vector<obs::TraceEvent> events = obs::Tracer::instance().drain();
  for (const obs::TraceEvent& event : events) {
    if (event.kind != obs::EventKind::kComplete) continue;
    if (std::string_view(event.category) != kSpanCategory) continue;
    samples_ms[event.name].push_back(static_cast<double>(event.duration_us) * 1e-3);
  }
  if (keep != nullptr) {
    keep->insert(keep->end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
  }
}

void SpanTotals::add(const SpanTotals& other) {
  for (const auto& [name, values] : other.samples_ms) {
    auto& mine = samples_ms[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
}

namespace {

/// One chip size of the sweep, as synthesis.cpp's attempt_on_size does it.
std::optional<synth::SynthesisResult> replay_attempt(const assay::SequencingGraph& graph,
                                                     const sched::Schedule& schedule,
                                                     const synth::SynthesisOptions& options,
                                                     int side, int growth,
                                                     ReplayCounters& counters) {
  ++counters.attempts;
  std::optional<synth::MappingProblem> problem;
  {
    obs::Span span(kSpanCategory, "synth.build");
    problem.emplace(synth::MappingProblem::build(graph, schedule, arch::Architecture(side, side)));
    problem->set_allow_storage_overlap(options.allow_storage_overlap);
    problem->set_routing_convenient(options.routing_convenient);
    problem->set_dead_valves(options.dead_valves);
  }

  std::optional<synth::MappingOutcome> mapping;
  route::RoutingResult routing;
  synth::HeuristicOptions heuristic = options.heuristic;
  for (int r = 0; r <= options.routing_retries; ++r) {
    if (r > 0) ++counters.routing_remaps;
    heuristic.seed = options.heuristic.seed + 7919ULL * static_cast<std::uint64_t>(r);
    const StageClock map_clock;
    mapping = synth::map_heuristic(*problem, heuristic);
    if (!mapping.has_value()) {
      map_clock.record("synth.map_infeasible");
      ++counters.attempts_infeasible;
      return std::nullopt;
    }
    map_clock.record("synth.map");
    counters.moves_tried += mapping->moves_tried;
    counters.moves_accepted += mapping->moves_accepted;
    {
      // Construction alone (same seed, no annealing): splits the call above
      // into construct and anneal time.  Not part of synthesis.
      obs::Span span(kSpanCategory, "synth.construct_probe");
      synth::HeuristicOptions construct = heuristic;
      construct.sa_iterations = 0;
      synth::map_heuristic(*problem, construct);
    }
    {
      obs::Span span(kSpanCategory, "synth.validate");
      problem->validate_placement(mapping->placement);
    }
    {
      obs::Span span(kSpanCategory, "route.route");
      routing = route::route_all(*problem, mapping->placement, options.router);
    }
    counters.rip_ups += routing.rip_ups;
    counters.cells += routing.total_cells;
    if (routing.success) break;
  }
  if (!routing.success) {
    ++counters.attempts_infeasible;
    return std::nullopt;
  }
  {
    obs::Span span(kSpanCategory, "synth.validate");
    route::validate_routing(*problem, mapping->placement, routing);
  }

  synth::SynthesisResult result = finish_result(*problem, mapping->placement, routing);
  result.mapper_effort = mapping->moves_tried;
  result.chip_growths = growth;
  return result;
}

}  // namespace

synth::SynthesisResult finish_result(const synth::MappingProblem& problem,
                                     const synth::Placement& placement,
                                     const route::RoutingResult& routing) {
  synth::SynthesisResult result;
  result.chip_width = problem.chip().width();
  result.chip_height = problem.chip().height();
  result.placement = placement;
  result.routing = routing;
  {
    obs::Span span(kSpanCategory, "sim.verify");
    result.ledger_setting1 =
        sim::ChipSimulator(problem, placement, routing, sim::Setting::kConservative).verify();
    result.ledger_setting2 =
        sim::ChipSimulator(problem, placement, routing, sim::Setting::kRescaled).verify();
  }
  result.vs1_max = result.ledger_setting1.max_total();
  result.vs1_pump = result.ledger_setting1.max_pump();
  result.vs2_max = result.ledger_setting2.max_total();
  result.vs2_pump = result.ledger_setting2.max_pump();
  result.valve_count = result.ledger_setting1.actuated_valve_count();
  return result;
}

synth::SynthesisResult replay_synthesize(const assay::SequencingGraph& graph,
                                         const sched::Schedule& schedule,
                                         const synth::SynthesisOptions& options,
                                         ReplayCounters& counters) {
  // The chip-size sweep of synth::synthesize: scan up to the first feasible
  // size, then (without a fixed grid) probe smaller sizes down to the first
  // infeasible one and `chip_sweep` larger ones, keeping the best score.
  const int first_side = options.grid_size.value_or(
      arch::Architecture::sized_for(graph, schedule, options.chip_slack).width());
  const int sweep = options.grid_size.has_value() ? 0 : options.chip_sweep;
  const auto score = [&](const synth::SynthesisResult& r) {
    return r.vs1_max + options.valve_weight * r.valve_count;
  };
  std::optional<synth::SynthesisResult> best;
  const auto offer = [&](std::optional<synth::SynthesisResult> candidate) {
    if (candidate.has_value() && (!best.has_value() || score(*candidate) < score(*best))) {
      best = std::move(candidate);
    }
  };

  int feasible_side = -1;
  for (int growth = 0; growth <= options.max_chip_growth; ++growth) {
    auto candidate =
        replay_attempt(graph, schedule, options, first_side + growth, growth, counters);
    if (candidate.has_value()) {
      feasible_side = first_side + growth;
      offer(std::move(candidate));
      break;
    }
  }
  if (!best.has_value()) throw Error("replay: no feasible chip size");
  if (sweep > 0) {
    for (int side = feasible_side - 1; side >= 8; --side) {
      auto candidate =
          replay_attempt(graph, schedule, options, side, feasible_side - side, counters);
      if (!candidate.has_value()) break;
      offer(std::move(candidate));
    }
    for (int extra = 1; extra <= sweep; ++extra) {
      offer(replay_attempt(graph, schedule, options, feasible_side + extra, extra, counters));
    }
  }
  return *best;
}

void add_replay_layers(Report& report, const SpanTotals& spans, const ReplayCounters& counters) {
  auto& layers = report.layers;
  const double construct = spans.get("synth.construct_probe");
  const double anneal = std::max(0.0, spans.get("synth.map") - construct);
  layers["synth.attempts"] += static_cast<double>(counters.attempts);
  layers["synth.attempts_infeasible"] += static_cast<double>(counters.attempts_infeasible);
  layers["synth.map_infeasible_s"] += spans.get("synth.map_infeasible");
  layers["synth.construct_s"] += construct;
  layers["synth.anneal_s"] += anneal;
  layers["synth.anneal_moves_per_s"] =
      anneal > 0.0 ? static_cast<double>(counters.moves_tried) / anneal : 0.0;
  layers["synth.accept_frac"] =
      counters.moves_tried > 0
          ? static_cast<double>(counters.moves_accepted) / static_cast<double>(counters.moves_tried)
          : 0.0;
  layers["synth.routing_remaps"] += static_cast<double>(counters.routing_remaps);
  layers["synth.build_s"] += spans.get("synth.build");
  layers["synth.validate_s"] += spans.get("synth.validate");
  layers["route.route_s"] += spans.get("route.route");
  layers["route.rip_ups"] += static_cast<double>(counters.rip_ups);
  layers["route.cells"] += static_cast<double>(counters.cells);
  layers["sched.schedule_s"] += spans.get("sched.schedule");
  layers["baseline.build_s"] += spans.get("baseline.build");
  layers["sim.verify_s"] += spans.get("sim.verify");
  layers["sim.control_s"] += spans.get("sim.control");
}

bool check_design(Report& report, const std::string& label, const assay::SequencingGraph& graph,
                  const sched::Schedule& schedule, const synth::SynthesisResult& result) {
  const synth::MappingProblem problem = synth::MappingProblem::build(
      graph, schedule, arch::Architecture(result.chip_width, result.chip_height));
  Grid<int> replayed;
  {
    obs::Span span(kSpanCategory, "sim.control");
    replayed = sim::compile_control_program(problem, result.placement, result.routing,
                                            sim::Setting::kConservative)
                   .replay(result.chip_width, result.chip_height);
  }
  const Grid<int> ledger = result.ledger_setting1.total();
  bool ok = report.expect(replayed.width() == ledger.width() &&
                              replayed.height() == ledger.height() &&
                              std::equal(ledger.begin(), ledger.end(), replayed.begin()),
                          label + ": control-program replay differs from the setting-1 ledger");
  ok = report.expect(result.vs1_max == result.ledger_setting1.max_total() &&
                         result.vs2_max == result.ledger_setting2.max_total() &&
                         result.valve_count == result.ledger_setting1.actuated_valve_count(),
                     label + ": vs1/vs2/#v disagree with the ledgers") &&
       ok;
  return ok;
}

Design design_of(const synth::SynthesisResult& result) {
  return Design{result.vs1_max, result.vs2_max, result.valve_count};
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void describe_host(benchio::JsonObject& config) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  config.add("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .add("compiler", E2E_COMPILER)
      .add("build_type", E2E_BUILD_TYPE)
      .add("cpu", cpu);
}

}  // namespace fsyn::e2e
