#include "synth/synthesis.hpp"

#include <chrono>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::synth {

namespace {

/// Checks the free-space rule for every storage-overlapping pair of an ILP
/// placement and forbids the first violating pair (Algorithm 1 L6-L8).
/// Returns true when all overlaps fit.
bool forbid_first_overfull_pair(MappingProblem& problem, const Placement& placement) {
  for (int a = 0; a < problem.task_count(); ++a) {
    for (const int b : problem.conflict_partners(a)) {
      if (b < a || !problem.parent_child(a, b) || !problem.time_overlap(a, b)) continue;
      if (problem.storage_overlap_forbidden(a, b)) continue;
      const arch::DeviceInstance& da = placement[static_cast<std::size_t>(a)];
      const arch::DeviceInstance& db = placement[static_cast<std::size_t>(b)];
      if (!da.footprint().overlaps(db.footprint())) continue;
      const bool a_is_parent = problem.task(a).start <= problem.task(b).start;
      const int parent = a_is_parent ? a : b;
      const int child = a_is_parent ? b : a;
      if (!problem.storage_overlap_fits(parent,
                                        placement[static_cast<std::size_t>(parent)], child,
                                        placement[static_cast<std::size_t>(child)])) {
        problem.forbid_storage_overlap(a, b);
        log_info("synthesis: forbidding storage overlap of '", problem.task(a).name,
                 "' and '", problem.task(b).name, "'");
        return false;
      }
    }
  }
  return true;
}

struct MappingAttempt {
  Placement placement;
  std::int64_t effort = 0;
  int refinements = 0;
  ilp::SolveCounters milp;
};

std::optional<MappingAttempt> run_mapper(MappingProblem& problem,
                                         const SynthesisOptions& options) {
  if (options.mapper == MapperKind::kHeuristic) {
    // The heuristic enforces the free-space rule inside pair_feasible, so
    // no Algorithm-1 refinement loop is needed.
    const auto outcome = map_heuristic(problem, options.heuristic);
    if (!outcome.has_value()) return std::nullopt;
    return MappingAttempt{outcome->placement, outcome->moves_tried, 0, {}};
  }

  // ILP mode: the model omits the free-space constraints for runtime (as in
  // the paper); iterate mapping + post-check (Algorithm 1 L4-L9).  Solver
  // counters accumulate across the refinement iterations.
  MappingAttempt attempt;
  for (int iteration = 0; iteration < options.max_refinement_iterations; ++iteration) {
    options.cancel.check("refinement loop");
    IlpMapperOptions ilp_options = options.ilp;
    if (options.warm_start_ilp && !ilp_options.warm_start.has_value()) {
      if (const auto warm = map_heuristic(problem, options.heuristic)) {
        ilp_options.warm_start = warm->placement;
      }
    }
    const auto outcome = map_ilp(problem, ilp_options);
    if (!outcome.has_value()) return std::nullopt;
    attempt.milp.accumulate(*outcome);
    if (forbid_first_overfull_pair(problem, outcome->placement)) {
      attempt.placement = outcome->placement;
      attempt.effort = attempt.milp.nodes;
      attempt.refinements = iteration;
      return attempt;
    }
  }
  throw Error("dynamic-device mapping did not converge within the refinement budget");
}

}  // namespace

namespace {

/// One full mapping+routing+accounting attempt on a fixed chip size;
/// `growth` is the signed distance from the sweep's first size.
std::optional<SynthesisResult> attempt_on_size(const assay::SequencingGraph& graph,
                                               const sched::Schedule& schedule,
                                               const SynthesisOptions& options, int side,
                                               int growth) {
  obs::Span span("synth", "attempt");
  if (span.active()) {
    span.arg("side", side);
    span.arg("growth", growth);
  }
  arch::Architecture chip(side, side);
  MappingProblem problem = MappingProblem::build(graph, schedule, std::move(chip));
  problem.set_allow_storage_overlap(options.allow_storage_overlap);
  problem.set_routing_convenient(options.routing_convenient);
  problem.set_dead_valves(options.dead_valves);

  // Mapping is oblivious to routability; when routing fails, remapping
  // with a different seed usually unblocks it (different placements leave
  // different corridors free).
  std::optional<MappingAttempt> attempt;
  route::RoutingResult routing;
  SynthesisOptions retry_options = options;
  for (int r = 0; r <= options.routing_retries; ++r) {
    options.cancel.check("mapping/routing attempt");
    retry_options.heuristic.seed = options.heuristic.seed + 7919ULL * static_cast<std::uint64_t>(r);
    {
      obs::Span map_span("synth", "map");
      if (map_span.active()) {
        map_span.arg("side", side);
        map_span.arg("retry", r);
        map_span.arg("mapper", options.mapper == MapperKind::kIlp ? "ilp" : "heuristic");
      }
      attempt = run_mapper(problem, retry_options);
    }
    if (!attempt.has_value()) {
      log_info("synthesis: mapping failed on ", side, "x", side);
      return std::nullopt;
    }
    problem.validate_placement(attempt->placement);
    routing = route_all(problem, attempt->placement, options.router);
    if (routing.success) break;
    log_info("synthesis: routing failed (", routing.failure, ") on ", side, "x", side,
             r < options.routing_retries ? "; remapping with a new seed" : "");
  }
  if (!routing.success) return std::nullopt;
  route::validate_routing(problem, attempt->placement, routing);

  SynthesisResult result;
  result.chip_width = side;
  result.chip_height = side;
  result.placement = attempt->placement;
  result.routing = routing;
  result.mapper_effort = attempt->effort;
  result.refinement_iterations = attempt->refinements;
  result.chip_growths = growth;
  result.milp = attempt->milp;

  {
    obs::Span verify_span("sim", "verify");
    result.ledger_setting1 =
        sim::ChipSimulator(problem, result.placement, routing, sim::Setting::kConservative)
            .verify();
    result.ledger_setting2 =
        sim::ChipSimulator(problem, result.placement, routing, sim::Setting::kRescaled)
            .verify();
  }

  result.vs1_max = result.ledger_setting1.max_total();
  result.vs1_pump = result.ledger_setting1.max_pump();
  result.vs2_max = result.ledger_setting2.max_total();
  result.vs2_pump = result.ledger_setting2.max_pump();
  result.valve_count = result.ledger_setting1.actuated_valve_count();
  return result;
}

}  // namespace

SynthesisResult synthesize(const assay::SequencingGraph& graph,
                           const sched::Schedule& schedule,
                           const SynthesisOptions& user_options) {
  const auto started = std::chrono::steady_clock::now();
  obs::Span span("synth", "synthesize");
  if (span.active()) {
    span.arg("assay", graph.name());
    span.arg("ops", graph.size());
    span.arg("mapper", user_options.mapper == MapperKind::kIlp ? "ilp" : "heuristic");
  }

  // Propagate a synthesis-level token into the mapper options so one token
  // on SynthesisOptions cancels every stage (explicit mapper tokens win).
  SynthesisOptions options = user_options;
  if (options.cancel.valid()) {
    if (!options.heuristic.cancel.valid()) options.heuristic.cancel = options.cancel;
    if (!options.ilp.cancel.valid()) options.ilp.cancel = options.cancel;
  }

  check_input(options.dead_valves.empty() || options.grid_size.has_value(),
              "dead valves require an explicit grid_size (coordinates are tied "
              "to one matrix)");
  const int first_side = options.grid_size.value_or(
      arch::Architecture::sized_for(graph, schedule, options.chip_slack).width());
  // An explicit grid size disables the sweep: the caller wants that chip.
  const int sweep = options.grid_size.has_value() ? 0 : options.chip_sweep;

  const auto score = [&](const SynthesisResult& r) {
    return r.vs1_max + options.valve_weight * r.valve_count;
  };
  const auto offer = [&](std::optional<SynthesisResult>& best,
                         std::optional<SynthesisResult> candidate) {
    if (!candidate.has_value()) return;
    if (!best.has_value() || score(*candidate) < score(*best)) best = std::move(candidate);
  };
  // An attempt is a deterministic function of its size, so each size is
  // tried at most once.
  const auto attempt = [&](int side) {
    return attempt_on_size(graph, schedule, options, side, side - first_side);
  };

  // Scan upward from the estimate until the first feasible size.
  std::optional<SynthesisResult> best;
  int feasible_side = -1;
  for (int growth = 0; growth <= options.max_chip_growth; ++growth) {
    options.cancel.check("chip-size search");
    const int side = first_side + growth;
    auto candidate = attempt(side);
    if (candidate.has_value()) {
      feasible_side = side;
      offer(best, std::move(candidate));
      break;
    }
  }
  if (!best.has_value()) {
    throw Error("synthesis failed: no feasible mapping/routing up to chip size " +
                std::to_string(first_side + options.max_chip_growth) + "x" +
                std::to_string(first_side + options.max_chip_growth));
  }

  if (sweep > 0) {
    // Probe smaller matrices down to the first infeasible size: the
    // estimate is deliberately conservative and the valve-count knee often
    // sits below it.  Only an estimate that succeeded leaves anything to
    // probe: otherwise the size below the first feasible one already
    // failed in the scan above.
    if (feasible_side == first_side) {
      for (int side = first_side - 1; side >= 8; --side) {
        options.cancel.check("chip-size sweep");
        auto candidate = attempt(side);
        if (!candidate.has_value()) break;
        offer(best, std::move(candidate));
      }
    }
    // And a few larger ones (more room can still lower the max actuation).
    for (int extra = 1; extra <= sweep; ++extra) {
      options.cancel.check("chip-size sweep");
      offer(best, attempt(feasible_side + extra));
    }
  }
  best->runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  if (span.active()) {
    span.arg("chip", best->chip_width);
    span.arg("vs1_max", best->vs1_max);
    span.arg("valves", best->valve_count);
  }
  return *best;
}

}  // namespace fsyn::synth
