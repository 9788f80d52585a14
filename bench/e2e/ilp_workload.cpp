// ilp_exact: the paper's mapping ILP (synth::map_ilp) on fixed grids, each
// solve warm-started by the heuristic mapper, 10 s limit per solve.
//
// Four small synthetic assays (the bench_ablation_ilp instances) and the
// PCR / in-vitro mapping models at grids 9-10.  An operation is warm start
// + solve.  A pass scores each solve PAR-2 (its time if proved optimal,
// else 2 x the limit, so proving more instances always counts as a gain
// even when it takes longer) and reports the shifted geometric mean of the
// seven scores.  The geometric mean weighs every instance alike: one solve
// that stops proving multiplies the pass score by (20 s / its time)^(1/7),
// at least +90 % today, where in a plain PAR-2 sum it would drown in the
// 4 x 20 s charged to the solves that never prove.
#include <cmath>
#include <memory>
#include <optional>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "e2e.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/heuristic_mapper.hpp"
#include "synth/ilp_mapper.hpp"

namespace fsyn::e2e {
namespace {

constexpr double kTimeLimitSeconds = 10.0;
/// Shift of the geometric mean, so the ~10 ms solves do not dominate it.
constexpr double kShiftSeconds = 0.01;

struct IlpInstance {
  const char* label;
  const char* dsl;        ///< inline assay (ASAP schedule), or null
  const char* benchmark;  ///< built-in assay at policy p1, or null
  int grid;
};

constexpr IlpInstance kInstances[] = {
    {"single", R"(
assay single
input i1
input i2
mix a volume 8 duration 6 from i1 i2
)",
     nullptr, 6},
    {"concurrent", R"(
assay concurrent
input i1
input i2
input i3
input i4
mix a volume 8 duration 6 from i1 i2
mix b volume 8 duration 6 from i3 i4
)",
     nullptr, 7},
    {"chain", R"(
assay chain
input i1
input i2
input i3
mix a volume 8 duration 6 from i1 i2
mix b volume 8 duration 6 from a i3
)",
     nullptr, 7},
    {"fork-join", R"(
assay forkjoin
input i1
input i2
input i3
input i4
mix a volume 6 duration 5 from i1 i2
mix b volume 6 duration 8 from i3 i4
mix c volume 8 duration 6 from a b
)",
     nullptr, 8},
    {"pcr p1 grid 9", nullptr, "pcr", 9},
    {"pcr p1 grid 10", nullptr, "pcr", 10},
    {"invitro p1 grid 10", nullptr, "invitro", 10},
};

/// One instance's inputs; heap-held because the problem points at the
/// graph and schedule.
struct Prepared {
  std::string label;
  assay::SequencingGraph graph;
  sched::Schedule schedule;
  std::optional<synth::MappingProblem> problem;
};

/// The instances in the order they run (drawn from the seed).
std::vector<std::unique_ptr<Prepared>> prepare(std::uint64_t seed, bool smoke) {
  const std::size_t count = smoke ? 2 : std::size(kInstances);  // smoke: the two smallest
  std::vector<std::unique_ptr<Prepared>> out;
  for (const std::size_t index : seeded_order(count, seed)) {
    const IlpInstance& instance = kInstances[index];
    auto p = std::make_unique<Prepared>();
    p->label = instance.label;
    if (instance.dsl != nullptr) {
      p->graph = assay::parse_assay(instance.dsl);
      p->schedule = sched::schedule_asap(p->graph);
    } else {
      p->graph = assay::make_benchmark(instance.benchmark);
      p->schedule = sched::schedule_with_policy(p->graph, sched::make_policy(p->graph, 0));
    }
    p->problem.emplace(synth::MappingProblem::build(
        p->graph, p->schedule, arch::Architecture(instance.grid, instance.grid)));
    out.push_back(std::move(p));
  }
  return out;
}

struct Solve {
  std::optional<synth::MappingOutcome> warm;
  std::optional<synth::IlpMappingOutcome> exact;
  double warm_seconds = 0.0;
  double solve_seconds = 0.0;

  bool proved() const {
    return exact.has_value() && exact->status == ilp::MilpStatus::kOptimal &&
           solve_seconds <= kTimeLimitSeconds;
  }
  double seconds() const { return warm_seconds + solve_seconds; }
};

Solve solve(const Prepared& p) {
  Solve out;
  synth::HeuristicOptions heuristic;
  heuristic.seed = kPaperSeed;
  Clock::time_point start = Clock::now();
  {
    obs::Span span(kSpanCategory, "ilp.warm_start");
    out.warm = synth::map_heuristic(*p.problem, heuristic);
  }
  out.warm_seconds = seconds_since(start);
  if (!out.warm.has_value()) return out;

  synth::IlpMapperOptions options;
  options.time_limit_seconds = kTimeLimitSeconds;
  options.warm_start = out.warm->placement;
  start = Clock::now();
  {
    obs::Span span(kSpanCategory, "ilp.solve");
    out.exact = synth::map_ilp(*p.problem, options);
  }
  out.solve_seconds = seconds_since(start);
  return out;
}

/// Routes and simulates a placement, as synthesis does for its winner.
std::optional<synth::SynthesisResult> realize(const Prepared& p,
                                              const synth::Placement& placement) {
  p.problem->validate_placement(placement);
  route::RoutingResult routing;
  {
    obs::Span span(kSpanCategory, "route.route");
    routing = route::route_all(*p.problem, placement);
  }
  if (!routing.success) return std::nullopt;
  route::validate_routing(*p.problem, placement, routing);
  return finish_result(*p.problem, placement, routing);
}

/// The correctness checks of one solve; returns the ILP design when both
/// placements pass.
std::optional<synth::SynthesisResult> check_solve(Report& report, const Prepared& p,
                                                  const Solve& s) {
  if (!report.expect(s.warm.has_value(), p.label + ": no heuristic warm start") ||
      !report.expect(s.exact.has_value(), p.label + ": the ILP found no placement")) {
    return std::nullopt;
  }
  bool ok = report.expect(s.exact->max_pump_load <= s.warm->max_pump_load,
                          p.label + ": the ILP objective is worse than its warm start");
  std::optional<synth::SynthesisResult> ilp_design;
  for (const bool exact : {false, true}) {
    const std::string label = p.label + (exact ? " (ilp)" : " (heuristic)");
    const synth::Placement& placement = exact ? s.exact->placement : s.warm->placement;
    try {
      std::optional<synth::SynthesisResult> design = realize(p, placement);
      if (!report.expect(design.has_value(), label + ": placement does not route")) {
        ok = false;
        continue;
      }
      ok = check_design(report, label, p.graph, p.schedule, *design) && ok;
      if (exact) ilp_design = std::move(design);
    } catch (const std::exception& e) {
      ok = report.expect(false, label + ": " + e.what());
    }
  }
  return ok ? ilp_design : std::nullopt;
}

benchio::JsonObject bench_row(const Prepared& p, const Solve& s,
                              const synth::SynthesisResult& design) {
  benchio::JsonObject row;
  row.add("workload", "ilp_exact")
      .add("instance", p.label)
      .add("chip", design.chip_width)
      .add("proved", s.proved())
      .add("objective", s.exact->max_pump_load)
      .add("heuristic_objective", s.warm->max_pump_load)
      .add("best_bound", s.exact->best_bound)
      .add("nodes", static_cast<long long>(s.exact->nodes))
      .add("lp_iterations", static_cast<long long>(s.exact->lp_iterations))
      .add("vs1_max", design.vs1_max)
      .add("vs2_max", design.vs2_max)
      .add("valves", design.valve_count)
      .add("warm_start_s", s.warm_seconds)
      .add("solve_s", s.solve_seconds);
  return row;
}

}  // namespace

void run_ilp_exact(const RunConfig& config, Report& report) {
  SetupClock setup(report.e2e.setup_s, [&] { return prepare(config.seed, config.smoke); });
  std::vector<std::unique_ptr<Prepared>> instances = setup.first();

  if (!config.trace) {
    bool first_pass = true;
    run_passes(config.seconds, [&] {
      double log_sum = 0.0;
      for (const auto& p : instances) {
        const Solve s = solve(*p);
        report.e2e.op_ms.push_back(s.seconds() * 1e3);
        const double par2 = s.proved() ? s.seconds() : 2.0 * kTimeLimitSeconds;
        log_sum += std::log(par2 + kShiftSeconds);
        const std::optional<synth::SynthesisResult> design = check_solve(report, *p, s);
        report.op(design.has_value());
        setup.between();
        if (!design.has_value()) continue;
        if (first_pass) {
          report.e2e.designs.push_back(design_of(*design));
          report.rows.push_back(bench_row(*p, s, *design));
          report.lines.push_back(p->label + ": " + (s.proved() ? "proved" : "not proved") +
                                 " w=" + std::to_string(s.exact->max_pump_load) +
                                 " (heuristic " + std::to_string(s.warm->max_pump_load) +
                                 ", bound " + std::to_string(s.exact->best_bound) + "), " +
                                 std::to_string(s.exact->nodes) + " nodes, " +
                                 std::to_string(s.exact->lp_iterations) + " LP iterations, " +
                                 std::to_string(s.seconds()) + " s");
        }
      }
      const double count = static_cast<double>(instances.size());
      report.e2e.pass_s.push_back(std::exp(log_sum / count) - kShiftSeconds);
      first_pass = false;
    });
    return;
  }

  // Traced: every solve once, with spans.
  SpanTotals totals;
  auto& layers = report.layers;
  for (const auto& p : instances) {
    obs::Tracer::instance().enable();
    const Solve s = solve(*p);
    const bool ok = check_solve(report, *p, s).has_value();
    obs::Tracer::instance().disable();
    SpanTotals spans;
    spans.absorb(report.kept_events);
    totals.add(spans);
    report.op(ok);
    if (!s.exact.has_value()) continue;
    const synth::IlpMappingOutcome& e = *s.exact;
    layers["ilp.proved"] += s.proved() ? 1.0 : 0.0;
    layers["ilp.nodes"] += static_cast<double>(e.nodes);
    layers["ilp.lp_iterations"] += static_cast<double>(e.lp_iterations);
    layers["ilp.refactorizations"] += static_cast<double>(e.lp.refactorizations);
    layers["ilp.cuts_applied"] += static_cast<double>(e.cuts.applied);
    layers["ilp.arena_bytes"] = std::max(layers["ilp.arena_bytes"], static_cast<double>(e.arena_bytes));
    // Loads are non-negative, so 0 bounds w when the root LP gave no bound.
    if (!s.proved()) layers["ilp.gap_sum"] += e.max_pump_load - std::max(0.0, e.best_bound);
    report.lines.push_back(p->label + ": warm start " + std::to_string(s.warm_seconds) +
                           " s, solve " + std::to_string(s.solve_seconds) + " s, " +
                           std::to_string(e.nodes) + " nodes, " +
                           std::to_string(e.lp_iterations) + " LP iterations, " +
                           std::to_string(e.lp.refactorizations) + " refactorizations, " +
                           std::to_string(e.cuts.applied) + " cuts");
  }
  layers["ilp.warm_start_s"] = totals.get("ilp.warm_start");
  layers["ilp.solve_s"] = totals.get("ilp.solve");
  layers["ilp.lp_iters_per_s"] =
      layers["ilp.solve_s"] > 0.0 ? layers["ilp.lp_iterations"] / layers["ilp.solve_s"] : 0.0;
  layers["route.route_s"] = totals.get("route.route");
  layers["sim.verify_s"] = totals.get("sim.verify");
  layers["sim.control_s"] = totals.get("sim.control");
}

}  // namespace fsyn::e2e
