// The two heuristic-synthesis workloads.
//
// table1: the paper's twelve rows (4 assays x p1-p3) with the default chip
//   sweep, the way report::run_case runs them.  The chips are tight, so
//   most of the time goes to construction attempts that end infeasible.
//   Fixed inputs at the paper's heuristic seed; --seed orders the rows.
// scale: random assays of 60-116 mixes on a fixed, generous grid (no
//   sweep, no infeasible probing); feasible construction and routing
//   dominate.  Every pass draws 8 new assays, one of each size 60, 68, ...,
//   116, so passes differ in structure but not in size: the first pass from
//   kPaperSeed (it gives the quality metrics), later ones from the seed.
//
// An operation is one row / one assay: schedule (+ traditional baseline
// for table1) + synthesize.  The traced run replays each operation through
// the public layer functions (common.cpp) after an untraced reference run
// of the same operation, checks both agree, and checks that the stage
// spans add up to the operation's traced time.
#include <array>
#include <cmath>
#include <functional>
#include <iomanip>
#include <optional>
#include <sstream>

#include "assay/benchmarks.hpp"
#include "assay/random_assay.hpp"
#include "baseline/traditional.hpp"
#include "e2e.hpp"
#include "report/table1.hpp"
#include "sched/list_scheduler.hpp"

namespace fsyn::e2e {
namespace {

struct SynthOp {
  std::string label;
  assay::SequencingGraph graph;
  int policy_increments = 0;
  std::string policy_label;
  std::uint64_t heuristic_seed = kPaperSeed;
  /// table1 rows also build the optimally-bound traditional design.
  bool with_baseline = false;
  /// scale assays run on a fixed grid (no chip sweep).
  std::optional<int> grid;
};

struct OpOutcome {
  sched::Policy policy;
  sched::Schedule schedule;
  std::optional<baseline::TraditionalDesign> traditional;
  synth::SynthesisResult result;
  double seconds = 0.0;
};

synth::SynthesisOptions options_for(const SynthOp& op) {
  synth::SynthesisOptions options;
  options.heuristic.seed = op.heuristic_seed;
  options.grid_size = op.grid;
  return options;
}

OpOutcome run_op(const SynthOp& op) {
  const Clock::time_point start = Clock::now();
  OpOutcome out;
  out.policy = sched::make_policy(op.graph, op.policy_increments);
  out.schedule = sched::schedule_with_policy(op.graph, out.policy);
  if (op.with_baseline) {
    out.traditional = baseline::build_traditional(op.graph, out.policy, out.schedule);
  }
  out.result = synth::synthesize(op.graph, out.schedule, options_for(op));
  out.seconds = seconds_since(start);
  return out;
}

OpOutcome replay_op(const SynthOp& op, ReplayCounters& counters) {
  OpOutcome out;
  {
    obs::Span span(kSpanCategory, "sched.schedule");
    out.policy = sched::make_policy(op.graph, op.policy_increments);
    out.schedule = sched::schedule_with_policy(op.graph, out.policy);
  }
  if (op.with_baseline) {
    obs::Span span(kSpanCategory, "baseline.build");
    out.traditional = baseline::build_traditional(op.graph, out.policy, out.schedule);
  }
  out.result = replay_synthesize(op.graph, out.schedule, options_for(op), counters);
  return out;
}

// ---- inputs ----------------------------------------------------------------

/// One pass's operations, in the order they run.
using PassInputs = std::function<std::vector<SynthOp>(int pass)>;

std::vector<SynthOp> table1_ops(std::uint64_t seed, bool smoke) {
  // Per-case p1 policy offsets (DESIGN.md §3.2), as report::run_full_table.
  struct Case {
    const char* name;
    int p1_increments;
  };
  static constexpr Case kCases[] = {
      {"pcr", 0}, {"mixing_tree", 0}, {"interpolating_dilution", 1}, {"exponential_dilution", 3}};
  std::vector<SynthOp> rows;
  for (const Case& c : kCases) {
    if (smoke && std::string_view(c.name) != "pcr") continue;
    for (int p = 0; p < 3; ++p) {
      SynthOp op;
      op.graph = assay::make_benchmark(c.name);
      op.policy_increments = c.p1_increments + p;
      op.policy_label = "p" + std::to_string(p + 1);
      op.label = std::string(c.name) + " " + op.policy_label;
      op.with_baseline = true;
      rows.push_back(std::move(op));
    }
  }
  std::vector<SynthOp> ops;
  for (const std::size_t i : seeded_order(rows.size(), seed)) ops.push_back(std::move(rows[i]));
  return ops;
}

std::vector<SynthOp> scale_ops(std::uint64_t seed, int pass, bool smoke) {
  Rng rng(pass_seed(seed, pass) + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(pass + 1));
  const double slack = synth::SynthesisOptions().chip_slack;
  std::vector<SynthOp> ops;
  for (int k = 0; k < (smoke ? 2 : 8); ++k) {
    assay::RandomAssayOptions options;
    options.mixing_ops = 60 + 8 * k;
    options.reuse_probability = 0.55;
    options.detect_probability = 0.15;
    SynthOp op;
    op.graph = assay::make_random_assay(rng, options);
    op.policy_increments = 1;
    op.heuristic_seed = rng.next_u64();
    op.label = "random " + std::to_string(pass) + "." + std::to_string(k) + " (" +
               std::to_string(options.mixing_ops) + " mixes)";
    const sched::Schedule schedule =
        sched::schedule_with_policy(op.graph, sched::make_policy(op.graph, 1));
    op.grid = arch::Architecture::sized_for(op.graph, schedule, slack).width() + 2;
    ops.push_back(std::move(op));
  }
  return ops;
}

// ---- reporting ---------------------------------------------------------------

report::Table1Row table1_row(const SynthOp& op, const OpOutcome& out) {
  report::Table1Row row;
  row.case_name = op.graph.name();
  row.total_ops = op.graph.size();
  row.mixing_ops = op.graph.mixing_count();
  row.policy_label = op.policy_label;
  row.device_count = out.policy.device_count();
  row.binding = out.traditional->binding_string({4, 6, 8, 10});
  row.vs_tmax = out.traditional->max_valve_actuations;
  row.traditional_valves = out.traditional->total_valves;
  row.vs1_max = out.result.vs1_max;
  row.vs1_pump = out.result.vs1_pump;
  row.vs2_max = out.result.vs2_max;
  row.vs2_pump = out.result.vs2_pump;
  row.our_valves = out.result.valve_count;
  row.runtime_seconds = out.seconds;
  return row;
}

benchio::JsonObject bench_row(const std::string& workload, const SynthOp& op,
                              const OpOutcome& out) {
  benchio::JsonObject row;
  row.add("workload", workload)
      .add("instance", op.label)
      .add("mixes", op.graph.mixing_count())
      .add("chip", out.result.chip_width)
      .add("vs1_max", out.result.vs1_max)
      .add("vs1_pump", out.result.vs1_pump)
      .add("vs2_max", out.result.vs2_max)
      .add("vs2_pump", out.result.vs2_pump)
      .add("valves", out.result.valve_count)
      .add("wall_s", out.seconds);
  if (out.traditional.has_value()) {
    const report::Table1Row t = table1_row(op, out);
    row.add("vs_tmax", t.vs_tmax)
        .add("imp1", t.improvement1())
        .add("imp2", t.improvement2())
        .add("impv", t.valve_improvement());
  }
  return row;
}

/// What must repeat exactly when the same inputs are synthesized again.
std::array<int, 4> fingerprint(const synth::SynthesisResult& r) {
  return {r.chip_width, r.vs1_max, r.vs2_max, r.valve_count};
}

std::string fixed(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

/// table1 rows in the paper's order, whatever order they ran in.
std::string paper_table(std::vector<report::Table1Row> rows) {
  static const std::vector<std::string> kOrder = assay::benchmark_names();
  const auto rank = [](const report::Table1Row& row) {
    return std::make_pair(std::find(kOrder.begin(), kOrder.end(), row.case_name) - kOrder.begin(),
                          row.policy_label);
  };
  std::sort(rows.begin(), rows.end(),
            [&](const auto& a, const auto& b) { return rank(a) < rank(b); });
  return report::format_table(rows);
}

// ---- the two run modes -------------------------------------------------------

void measure(const RunConfig& config, Report& report, const PassInputs& inputs) {
  SetupClock setup(report.e2e.setup_s, [&] { return inputs(0); });
  std::vector<SynthOp> ops = setup.first();

  std::map<std::string, std::array<int, 4>> seen;  // by label, across passes
  std::vector<report::Table1Row> table;
  int pass_index = 0;
  run_passes(config.seconds, [&] {
    if (pass_index > 0) ops = inputs(pass_index);
    double pass = 0.0;
    for (const SynthOp& op : ops) {
      bool ok = true;
      try {
        const OpOutcome out = run_op(op);
        pass += out.seconds;
        report.e2e.op_ms.push_back(out.seconds * 1e3);
        ok = check_design(report, op.label, op.graph, out.schedule, out.result);
        const auto [it, fresh] = seen.emplace(op.label, fingerprint(out.result));
        if (!fresh) {
          ok = report.expect(it->second == fingerprint(out.result),
                             op.label + ": a repeated pass gave another design") &&
               ok;
        }
        if (pass_index == 0) {
          report.e2e.designs.push_back(design_of(out.result));
          report.rows.push_back(bench_row(config.workload, op, out));
          if (op.with_baseline) {
            table.push_back(table1_row(op, out));
          } else {
            report.lines.push_back(op.label + ": grid " + std::to_string(*op.grid) + " chip " +
                                   std::to_string(out.result.chip_width) + " vs1 " +
                                   std::to_string(out.result.vs1_max) + " vs2 " +
                                   std::to_string(out.result.vs2_max) + " #v " +
                                   std::to_string(out.result.valve_count) + ", " +
                                   fixed(out.seconds, 3) + " s");
          }
        }
      } catch (const std::exception& e) {
        ok = report.expect(false, op.label + ": " + e.what());
      }
      report.op(ok);
      setup.between();
    }
    report.e2e.pass_s.push_back(pass);
    ++pass_index;
  });
  if (!table.empty()) report.lines.push_back(paper_table(table));
}

void replay(Report& report, const std::vector<SynthOp>& ops) {
  SpanTotals totals;
  ReplayCounters counters;
  double traced_wall = 0.0;
  double worst_unaccounted = 0.0;
  for (const SynthOp& op : ops) {
    bool ok = true;
    try {
      const OpOutcome reference = run_op(op);

      obs::Tracer::instance().enable();
      std::optional<OpOutcome> replayed;
      {
        obs::Span span(kSpanCategory, "op");
        replayed = replay_op(op, counters);
        ok = check_design(report, op.label, op.graph, replayed->schedule, replayed->result);
      }
      obs::Tracer::instance().disable();
      SpanTotals spans;
      spans.absorb(report.kept_events);

      ok = report.expect(fingerprint(reference.result) == fingerprint(replayed->result),
                         op.label + ": the layer replay differs from synthesize()") &&
           ok;

      // The probe and the control-program check are extra calls, outside
      // what synthesize() does; everything else must be covered by a stage.
      const double wall =
          spans.get("op") - spans.get("synth.construct_probe") - spans.get("sim.control");
      double stages = 0.0;
      std::string breakdown;
      for (const char* stage : kSynthStages) {
        const double seconds = spans.get(stage);
        stages += seconds;
        if (seconds > 0.0) breakdown += std::string(" ") + stage + "=" + fixed(seconds, 4);
      }
      const double unaccounted = wall > 0.0 ? std::abs(wall - stages) / wall : 0.0;
      worst_unaccounted = std::max(worst_unaccounted, unaccounted);
      ok = report.expect(std::abs(wall - stages) <= std::max(0.05 * wall, 0.002),
                         op.label + ": stage times do not add up to the traced wall") &&
           ok;
      report.lines.push_back(op.label + ": traced " + fixed(wall, 4) + " s, stages " +
                             fixed(stages, 4) + " s (" + fixed(100.0 * unaccounted, 2) +
                             "% unaccounted), untraced " + fixed(reference.seconds, 4) +
                             " s;" + breakdown + " [probe " +
                             fixed(spans.get("synth.construct_probe"), 4) + ", control " +
                             fixed(spans.get("sim.control"), 4) + "]");
      traced_wall += wall;
      totals.add(spans);
    } catch (const std::exception& e) {
      obs::Tracer::instance().disable();
      ok = report.expect(false, op.label + ": " + e.what());
    }
    report.op(ok);
  }

  add_replay_layers(report, totals, counters);
  report.layers["trace.unaccounted_frac"] = worst_unaccounted;

  std::string shares = "stage shares of the traced wall:";
  for (const char* stage : kSynthStages) {
    shares += std::string(" ") + stage + " " +
              fixed(traced_wall > 0.0 ? 100.0 * totals.get(stage) / traced_wall : 0.0, 1) + "%";
  }
  report.lines.push_back(shares);
}

}  // namespace

void run_table1(const RunConfig& config, Report& report) {
  const PassInputs inputs = [&](int) { return table1_ops(config.seed, config.smoke); };
  if (config.trace) {
    replay(report, inputs(0));
  } else {
    measure(config, report, inputs);
  }
}

void run_scale(const RunConfig& config, Report& report) {
  const PassInputs inputs = [&](int pass) { return scale_ops(config.seed, pass, config.smoke); };
  if (config.trace) {
    // Three passes' worth of assays (one in smoke runs).
    std::vector<SynthOp> ops;
    for (int pass = 0; pass < (config.smoke ? 1 : 3); ++pass) {
      for (SynthOp& op : inputs(pass)) ops.push_back(std::move(op));
    }
    replay(report, ops);
  } else {
    measure(config, report, inputs);
  }
}

}  // namespace fsyn::e2e
