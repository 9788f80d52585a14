// flowsynth command-line tool.
//
// Usage:
//   flowsynth synth <assay-file|benchmark> [options]   run synthesis
//   flowsynth schedule <assay-file|benchmark> [options] print the Gantt chart
//   flowsynth reliability <assay|--in mapping.json> [options]  lifetime analysis
//   flowsynth fleet <assay-file|benchmark> [options]     closed-loop fleet simulation
//   flowsynth batch <spec|all> [options]                 concurrent batch sweep
//   flowsynth client <verb> [options]                    talk to a flowsynthd
//   flowsynth table1 [--jobs N]                          reproduce Table 1
//   flowsynth list                                       list built-in benchmarks
//
// Options for synth/schedule:
//   --policy N      policy balancing increments (default 0)
//   --asap          unlimited-resource ASAP schedule instead of a policy
//   --grid N        force an N x N valve matrix (disables the size sweep)
//   --seed S        heuristic mapper seed (default 2015)
//   --ilp           use the exact ILP mapper (small assays only)
//   --time-limit S  ILP branch & bound wall-clock limit in seconds (finite, >= 0;
//                   0 = no limit)
//   --ilp-threads N MILP search workers, 0..64: 0 (the default) runs one
//                   worker on the calling thread with a reproducible search;
//                   N >= 1 runs N work-stealing workers (the caller plus N - 1
//                   tasks on the shared executor)
//   --lp-cuts C     root cutting planes: on (Gomory + cover cuts tighten the
//                   root relaxation, the default) or off (pure branch & bound)
//   --json PATH     write the synthesis result as JSON
//   --out PATH      write the mapping for later `reliability --in` runs
//   --svg PATH      write an SVG rendering
//   --trace PATH    write a Chrome trace-event / Perfetto JSON profile
//   --snapshots     print Fig.-10 style actuation snapshots
//   --control       print the valve control program
//
// Options for reliability (plus the synth options above for the healthy solve):
//   --in PATH        reuse a mapping written by `synth --out` instead of
//                    re-synthesizing (assay + scheduling spec come from it)
//   --trials N       Monte Carlo chip lifetimes to sample (default 1000)
//   --threads T      Monte Carlo tasks on the shared executor (default 1 =
//                    inline; the estimate is bit-identical at any T)
//   --fault-plan S   inject faults "x,y[@run][:closed|:open];..." and re-synthesize
//   --inject-top K   auto-derive a fault plan failing the K highest-wear valves
//   --compare-static also estimate the traditional dedicated-device design
//   --pump-life N    Weibull characteristic actuations, pump valves (default 5000)
//   --control-life N ... control valves (default 20000)
//   --shape K        Weibull shape for both classes (default 3; 1 = exponential)
//   --report PATH    write the JSON report to PATH ("-" = stdout, the default)
//   --timing         include timing fields (breaks bit-identical reruns)
//
// Options for fleet (plus --policy/--asap/--grid/--seed/--ilp for synthesis):
//   --chips N        virtual chips in the fleet (default 100)
//   --cadence N      self-test every N assay runs (default 25)
//   --horizon N      assay runs per chip (default 200)
//   --repair-workers N  workers of the private repair service (default 2)
//   --max-repairs N  retire a chip past this many repairs (default 4)
//   --degrade-threshold MS  closure latency flagged as degraded (default 8)
//   --pump-life/--control-life/--shape  hidden Weibull wear model
//   --report PATH    write the fleet JSON report ("-" = stdout, the default)
//   --timing         include timing fields (breaks bit-identical reruns)
//
// Options for batch (spec = comma-separated benchmark names, or "all"):
//   --jobs N         worker threads (default: hardware concurrency)
//   --policies P     policy increments swept per benchmark (default 3)
//   --repeat R       submit the whole sweep R times (exercises the cache)
//   --deadline-ms D  per-job deadline; late jobs report "cancelled"
//   --race           portfolio racing (heuristic seeds + ILP for small cases)
//   --metrics PATH   dump the service metrics registry as JSON ("-" = stdout)
//   --trace PATH     write a Chrome trace-event / Perfetto JSON profile
//   --cache N        result-cache capacity (default 256, 0 disables)
//   --queue N        bounded job-queue capacity (default 256)
//   --reject         reject jobs when the queue is full instead of blocking
//   --reliability    run each job through the reliability engine (adds an
//                    mttf column; --trials applies)
//
// batch handles SIGINT/SIGTERM gracefully: submission stops, queued jobs
// are cancelled, running jobs abort at their next cancellation check, and
// the table + metrics for everything submitted so far are still printed.
//
// Client verbs (all take [--host H] [--port P], default 127.0.0.1:8080):
//   flowsynth client submit <benchmark> [--kind synthesis|reliability|fleet]
//                    [--policy N] [--asap] [--seed S] [--grid N] [--ilp]
//                    [--priority interactive|batch|background]
//                    [--deadline-ms D] [--trials N] [--watch]
//   flowsynth client status <id> | result <id> [--out PATH] | watch <id>
//   flowsynth client cancel <id> | list | metrics | health
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "assay/benchmarks.hpp"
#include "fleet/fleet.hpp"
#include "net/client.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/trace_export.hpp"
#include "assay/parser.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "report/json_export.hpp"
#include "report/svg_export.hpp"
#include "report/table1.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"
#include "rel/engine.hpp"
#include "report/result_io.hpp"
#include "sim/control_program.hpp"
#include "sim/simulator.hpp"
#include "svc/service.hpp"
#include "synth/synthesis.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace fsyn;

struct CliOptions {
  std::string command;
  std::string target;
  int policy = 0;
  bool asap = false;
  std::optional<int> grid;
  std::uint64_t seed = 2015;
  bool use_ilp = false;
  std::optional<double> time_limit_seconds;
  int ilp_threads = 0;  ///< MILP search workers (0 = one reproducible worker)
  bool lp_cuts = true;  ///< --lp-cuts
  std::string json_path;
  std::string svg_path;
  bool snapshots = false;
  bool control = false;
  std::string trace_path;  ///< Chrome trace-event JSON output (synth + batch)

  // synth --out / reliability
  std::string out_path;  ///< stored-mapping JSON written by synth
  std::string in_path;   ///< stored-mapping JSON consumed by reliability
  int trials = 1000;
  int threads = 1;
  std::string fault_plan;
  int inject_top = 0;
  bool compare_static = false;
  double pump_life = 5000.0;
  double control_life = 20000.0;
  double shape = 3.0;
  std::string report_path = "-";
  bool timing = false;
  bool reliability = false;  ///< batch: run jobs through the engine

  // fleet
  int chips = 100;
  int cadence = 25;
  int horizon = 200;
  int repair_workers = 2;
  int max_repairs = 4;
  double degrade_threshold = 8.0;

  // batch / table1
  int jobs = 0;  ///< 0 = hardware concurrency (table1 defaults to 1)
  int policies = 3;
  int repeat = 1;
  std::optional<int> deadline_ms;
  bool race = false;
  std::string metrics_path;
  int cache_capacity = 256;
  int queue_capacity = 256;
  bool reject = false;
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  flowsynth synth    <assay-file|benchmark> [--policy N | --asap] [--grid N]\n"
      "                     [--seed S] [--ilp] [--time-limit S] [--ilp-threads N]\n"
      "                     [--lp-cuts on|off] [--json PATH]\n"
      "                     [--svg PATH] [--snapshots] [--control] [--trace PATH]\n"
      "  flowsynth schedule <assay-file|benchmark> [--policy N | --asap]\n"
      "  flowsynth reliability <assay-file|benchmark | --in mapping.json>\n"
      "                     [--trials N] [--seed S] [--threads T] [--fault-plan SPEC]\n"
      "                     [--inject-top K] [--compare-static] [--pump-life N]\n"
      "                     [--control-life N] [--shape K] [--report PATH|-]\n"
      "                     [--timing] [--policy N | --asap] [--grid N] [--ilp]\n"
      "  flowsynth fleet    <assay-file|benchmark> [--chips N] [--cadence N]\n"
      "                     [--horizon N] [--seed S] [--repair-workers N]\n"
      "                     [--max-repairs N] [--degrade-threshold MS]\n"
      "                     [--pump-life N] [--control-life N] [--shape K]\n"
      "                     [--policy N | --asap] [--grid N] [--ilp]\n"
      "                     [--report PATH|-] [--timing]\n"
      "  flowsynth batch    <benchmark[,benchmark...]|all> [--jobs N] [--policies P]\n"
      "                     [--repeat R] [--deadline-ms D] [--race] [--metrics PATH|-]\n"
      "                     [--seed S] [--grid N] [--cache N] [--queue N] [--reject]\n"
      "                     [--ilp-threads N] [--lp-cuts on|off]\n"
      "                     [--trace PATH] [--reliability] [--trials N]\n"
      "  flowsynth table1   [--jobs N]\n"
      "  flowsynth list\n";
  std::exit(2);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  if (argc < 2) usage();
  options.command = argv[1];
  int i = 2;
  if (options.command == "synth" || options.command == "schedule" ||
      options.command == "batch" || options.command == "fleet") {
    if (argc < 3) usage(options.command == "batch" ? "missing benchmark spec"
                                                   : "missing assay");
    options.target = argv[i++];
  } else if (options.command == "reliability") {
    // Target is optional: `--in mapping.json` carries the assay identity.
    if (i < argc && argv[i][0] != '-') options.target = argv[i++];
  }
  if (options.command == "table1") options.jobs = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--policy") {
      options.policy = parse_int(next());
    } else if (arg == "--asap") {
      options.asap = true;
    } else if (arg == "--grid") {
      options.grid = parse_int(next());
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(parse_int(next()));
    } else if (arg == "--ilp") {
      options.use_ilp = true;
    } else if (arg == "--time-limit") {
      options.time_limit_seconds = parse_double(next());
    } else if (arg == "--ilp-threads") {
      options.ilp_threads = parse_int(next());
    } else if (arg == "--lp-cuts") {
      const std::string value = next();
      if (value == "on") {
        options.lp_cuts = true;
      } else if (value == "off") {
        options.lp_cuts = false;
      } else {
        usage("unknown --lp-cuts value '" + value + "' (expected on or off)");
      }
    } else if (arg == "--json") {
      options.json_path = next();
    } else if (arg == "--svg") {
      options.svg_path = next();
    } else if (arg == "--snapshots") {
      options.snapshots = true;
    } else if (arg == "--control") {
      options.control = true;
    } else if (arg == "--jobs") {
      options.jobs = parse_int(next());
    } else if (arg == "--policies") {
      options.policies = parse_int(next());
    } else if (arg == "--repeat") {
      options.repeat = parse_int(next());
    } else if (arg == "--deadline-ms") {
      options.deadline_ms = parse_int(next());
    } else if (arg == "--race") {
      options.race = true;
    } else if (arg == "--metrics") {
      options.metrics_path = next();
    } else if (arg == "--cache") {
      options.cache_capacity = parse_int(next());
    } else if (arg == "--queue") {
      options.queue_capacity = parse_int(next());
    } else if (arg == "--reject") {
      options.reject = true;
    } else if (arg == "--trace") {
      options.trace_path = next();
    } else if (arg == "--out") {
      options.out_path = next();
    } else if (arg == "--in") {
      options.in_path = next();
    } else if (arg == "--trials") {
      options.trials = parse_int(next());
    } else if (arg == "--threads") {
      options.threads = parse_int(next());
    } else if (arg == "--fault-plan") {
      options.fault_plan = next();
    } else if (arg == "--inject-top") {
      options.inject_top = parse_int(next());
    } else if (arg == "--compare-static") {
      options.compare_static = true;
    } else if (arg == "--pump-life") {
      options.pump_life = parse_double(next());
    } else if (arg == "--control-life") {
      options.control_life = parse_double(next());
    } else if (arg == "--shape") {
      options.shape = parse_double(next());
    } else if (arg == "--report") {
      options.report_path = next();
    } else if (arg == "--timing") {
      options.timing = true;
    } else if (arg == "--reliability") {
      options.reliability = true;
    } else if (arg == "--chips") {
      options.chips = parse_int(next());
    } else if (arg == "--cadence") {
      options.cadence = parse_int(next());
    } else if (arg == "--horizon") {
      options.horizon = parse_int(next());
    } else if (arg == "--repair-workers") {
      options.repair_workers = parse_int(next());
    } else if (arg == "--max-repairs") {
      options.max_repairs = parse_int(next());
    } else if (arg == "--degrade-threshold") {
      options.degrade_threshold = parse_double(next());
    } else {
      usage("unknown option " + arg);
    }
  }
  return options;
}

assay::SequencingGraph load_target(const std::string& target) {
  for (const auto& name : assay::extended_benchmark_names()) {
    if (name == target) return assay::make_benchmark(name);
  }
  return assay::load_assay_file(target);
}

/// The synthesis flags every synthesizing subcommand shares: `--seed`,
/// `--ilp`, `--time-limit`, `--ilp-threads` and `--lp-cuts`.  `--grid` stays
/// with the callers, because `reliability --in` deliberately ignores it.
synth::SynthesisOptions synthesis_options(const CliOptions& cli) {
  synth::SynthesisOptions options;
  options.heuristic.seed = cli.seed;
  if (cli.use_ilp) options.mapper = synth::MapperKind::kIlp;
  if (cli.time_limit_seconds.has_value()) {
    if (!std::isfinite(*cli.time_limit_seconds) || *cli.time_limit_seconds < 0.0) {
      usage("--time-limit must be a finite number of seconds >= 0");
    }
    options.ilp.time_limit_seconds = *cli.time_limit_seconds;
  }
  if (cli.ilp_threads < 0 || cli.ilp_threads > ilp::kMaxMilpThreads) {
    usage("--ilp-threads must be 0.." + std::to_string(ilp::kMaxMilpThreads));
  }
  options.ilp.threads = cli.ilp_threads;
  options.ilp.cuts = cli.lp_cuts;
  return options;
}

int run_schedule(const CliOptions& cli) {
  const auto graph = load_target(cli.target);
  const sched::Schedule schedule = sched::schedule_for(graph, cli.asap, cli.policy);
  std::cout << "assay '" << graph.name() << "': " << graph.size() << " ops ("
            << graph.mixing_count() << " mixing), makespan " << schedule.makespan()
            << " tu\n\n"
            << sched::render_gantt(schedule);
  return 0;
}

int run_synth(const CliOptions& cli) {
  const auto graph = load_target(cli.target);
  const sched::Schedule schedule = sched::schedule_for(graph, cli.asap, cli.policy);

  synth::SynthesisOptions options = synthesis_options(cli);
  options.grid_size = cli.grid;
  const synth::SynthesisResult result = synth::synthesize(graph, schedule, options);

  std::cout << "chip:        " << result.chip_width << "x" << result.chip_height
            << " virtual valves\n";
  std::cout << "implemented: " << result.valve_count << " valves (#v)\n";
  std::cout << "vs_1max:     " << result.vs1_max << " (" << result.vs1_pump
            << " peristalsis)\n";
  std::cout << "vs_2max:     " << result.vs2_max << " (" << result.vs2_pump
            << " peristalsis)\n";
  std::cout << "transports:  " << result.routing.paths.size() << " paths, "
            << result.routing.total_cells << " cells\n";
  std::cout << "runtime:     " << format_fixed(result.runtime_seconds, 2) << " s\n";
  if (result.ilp.has_value()) {
    std::cout << "ilp:         ";
    if (result.ilp->status == ilp::MilpStatus::kOptimal) {
      std::cout << "optimal (bound " << result.ilp->best_bound << ")\n";
    } else {
      std::cout << "not proved (" << ilp::to_string(result.ilp->status) << "), bound "
                << result.ilp->best_bound << '\n';
    }
  }

  auto problem = synth::MappingProblem::build(
      graph, schedule, arch::Architecture(result.chip_width, result.chip_height));
  if (!cli.json_path.empty()) {
    report::write_json(cli.json_path, problem, result);
    std::cout << "json:        " << cli.json_path << '\n';
  }
  if (!cli.out_path.empty()) {
    report::StoredResult stored;
    stored.assay = cli.target;  // benchmark name or file path: load_target re-resolves it
    stored.policy_increments = cli.policy;
    stored.asap = cli.asap;
    stored.seed = cli.seed;
    stored.result = result;
    report::write_stored_result(cli.out_path, stored);
    std::cout << "mapping:     " << cli.out_path << '\n';
  }
  if (!cli.svg_path.empty()) {
    report::write_chip_svg(cli.svg_path, problem, result.placement, result.routing,
                           result.ledger_setting1);
    std::cout << "svg:         " << cli.svg_path << '\n';
  }
  if (cli.snapshots) {
    sim::ChipSimulator simulator(problem, result.placement, result.routing,
                                 sim::Setting::kConservative);
    for (const int t : simulator.interesting_times()) {
      std::cout << '\n' << simulator.snapshot_at(t).render();
    }
  }
  if (cli.control) {
    const auto program = sim::compile_control_program(problem, result.placement,
                                                      result.routing);
    std::cout << '\n' << program.to_text();
    std::cout << "control pins after sharing: " << sim::shared_control_pins(program) << '\n';
  }
  return 0;
}

int run_reliability(const CliOptions& cli) {
  // Healthy mapping: either replayed from `synth --out` or solved now.
  std::string assay_ref;
  int policy = cli.policy;
  bool asap = cli.asap;
  synth::SynthesisResult healthy;
  synth::SynthesisOptions synth_options = synthesis_options(cli);

  if (!cli.in_path.empty()) {
    report::StoredResult stored = report::read_stored_result(cli.in_path);
    assay_ref = stored.assay;
    policy = stored.policy_increments;
    asap = stored.asap;
    synth_options.heuristic.seed = stored.seed;
    healthy = std::move(stored.result);
  } else {
    if (cli.target.empty()) usage("reliability needs an assay or --in mapping.json");
    assay_ref = cli.target;
  }

  const assay::SequencingGraph graph = load_target(assay_ref);
  const sched::Schedule schedule = sched::schedule_for(graph, asap, policy);
  if (cli.in_path.empty()) {
    synth_options.grid_size = cli.grid;
    healthy = synth::synthesize(graph, schedule, synth_options);
  }

  rel::ReliabilityOptions options;
  options.monte_carlo.trials = cli.trials;
  options.monte_carlo.seed = cli.seed;
  options.monte_carlo.model.pump = {cli.pump_life, cli.shape};
  options.monte_carlo.model.control = {cli.control_life, cli.shape};
  options.synthesis = synth_options;
  if (!cli.fault_plan.empty()) options.faults = rel::FaultPlan::parse(cli.fault_plan);
  options.inject_top = cli.inject_top;
  options.compare_static = cli.compare_static;
  options.policy_increments = policy;
  options.asap = asap;

  // Trial blocks run as executor tasks; the report stays bit-identical at
  // any thread count.
  options.monte_carlo.threads = cli.threads;

  const rel::ReliabilityReport report = rel::analyze(graph, schedule, healthy, options);
  const std::string json = report.to_json(cli.timing);
  if (cli.report_path == "-") {
    std::cout << json;
  } else {
    std::ofstream out(cli.report_path);
    check_input(static_cast<bool>(out), "cannot write report to " + cli.report_path);
    out << json;
    std::cout << "assay '" << graph.name() << "': MTTF " << format_fixed(report.healthy.mttf_runs, 1)
              << " runs (p10 " << format_fixed(report.healthy.p10_runs, 1) << ", p90 "
              << format_fixed(report.healthy.p90_runs, 1) << ") over " << report.trials
              << " trials";
    if (report.static_baseline.has_value()) {
      std::cout << "; static MTTF " << format_fixed(report.static_baseline->mttf_runs, 1)
                << " runs";
    }
    if (!report.rounds.empty()) {
      int feasible = 0;
      for (const auto& round : report.rounds) feasible += round.feasible ? 1 : 0;
      std::cout << "; " << feasible << "/" << report.rounds.size() << " faults remapped";
    }
    std::cout << "\nreport:      " << cli.report_path << '\n';
  }
  return 0;
}

int run_fleet(const CliOptions& cli) {
  const assay::SequencingGraph graph = load_target(cli.target);

  fleet::FleetOptions options;
  options.chips = cli.chips;
  options.cadence = cli.cadence;
  options.horizon = cli.horizon;
  options.seed = cli.seed;
  options.repair_workers = cli.repair_workers;
  options.max_repairs_per_chip = cli.max_repairs;
  options.diagnosis.latency_threshold_ms = cli.degrade_threshold;
  options.chip.model.pump = {cli.pump_life, cli.shape};
  options.chip.model.control = {cli.control_life, cli.shape};
  options.policy_increments = cli.policy;
  options.asap = cli.asap;
  options.synthesis = synthesis_options(cli);
  options.synthesis.grid_size = cli.grid;

  const fleet::FleetReport report = fleet::run_fleet(graph, options);
  const std::string json = report.to_json(cli.timing);
  if (cli.report_path == "-") {
    std::cout << json;
  } else {
    std::ofstream out(cli.report_path);
    check_input(static_cast<bool>(out), "cannot write report to " + cli.report_path);
    out << json;
    std::cout << "fleet '" << graph.name() << "': " << report.chips << " chips x "
              << report.horizon << " runs, " << report.faults_occurred << " faults ("
              << report.faults_detected << " detected, mean latency "
              << format_fixed(report.mean_detection_latency_runs(), 1) << " runs), "
              << report.repairs_succeeded << "/" << report.repairs_attempted
              << " repairs, availability "
              << format_fixed(100.0 * report.availability(), 2) << "%\n"
              << "report:      " << cli.report_path << '\n';
  }
  return 0;
}

std::vector<std::string> parse_batch_spec(const std::string& spec) {
  if (spec == "all") return assay::extended_benchmark_names();
  std::vector<std::string> names;
  std::string current;
  for (const char c : spec) {
    if (c == ',') {
      if (!current.empty()) names.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) names.push_back(current);
  if (names.empty()) usage("empty benchmark spec");
  return names;
}

// SIGINT/SIGTERM during `flowsynth batch`: the handler only flips a flag
// (async-signal-safe); a monitor thread turns it into a graceful drain —
// submission stops, queued jobs are cancelled right away, running jobs get
// a bounded grace period before their tokens fire too.
std::atomic<bool> g_batch_interrupted{false};

void handle_batch_signal(int) {
  g_batch_interrupted.store(true, std::memory_order_relaxed);
}

/// Per-job handle the monitor uses to tell queued from running work.
struct BatchJobCtl {
  std::atomic<int> state{0};  ///< 0 queued, 1 running, 2 terminal
  CancelSource source;
};

int run_batch(const CliOptions& cli) {
  const std::vector<std::string> names = parse_batch_spec(cli.target);
  std::signal(SIGINT, handle_batch_signal);
  std::signal(SIGTERM, handle_batch_signal);

  std::mutex ctls_mutex;
  std::vector<std::shared_ptr<BatchJobCtl>> ctls;
  std::atomic<bool> drain_done{false};
  constexpr auto kGrace = std::chrono::seconds(5);
  std::thread monitor([&] {
    while (!drain_done.load(std::memory_order_relaxed) &&
           !g_batch_interrupted.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!g_batch_interrupted.load(std::memory_order_relaxed)) return;
    {
      std::lock_guard<std::mutex> lock(ctls_mutex);
      for (auto& ctl : ctls) {
        if (ctl->state.load(std::memory_order_relaxed) == 0) ctl->source.cancel();
      }
    }
    const auto deadline = std::chrono::steady_clock::now() + kGrace;
    while (std::chrono::steady_clock::now() < deadline &&
           !drain_done.load(std::memory_order_relaxed)) {
      bool any_running = false;
      {
        std::lock_guard<std::mutex> lock(ctls_mutex);
        for (auto& ctl : ctls) {
          if (ctl->state.load(std::memory_order_relaxed) < 2) any_running = true;
        }
      }
      if (!any_running) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::lock_guard<std::mutex> lock(ctls_mutex);
    for (auto& ctl : ctls) ctl->source.cancel();
  });

  svc::BatchService::Config config;
  config.workers = cli.jobs;
  config.queue_capacity = static_cast<std::size_t>(std::max(0, cli.queue_capacity));
  config.overflow = cli.reject ? svc::OverflowPolicy::kReject : svc::OverflowPolicy::kBlock;
  config.cache_capacity = static_cast<std::size_t>(std::max(0, cli.cache_capacity));
  config.portfolio.enabled = cli.race;
  svc::BatchService service(config);

  struct Pending {
    std::string name;
    std::string policy;
    std::future<svc::JobResult> future;
  };
  std::vector<Pending> pending;
  const auto submit_started = std::chrono::steady_clock::now();
  for (int round = 0; round < std::max(1, cli.repeat); ++round) {
    for (const std::string& name : names) {
      for (int p = 0; p < std::max(1, cli.policies); ++p) {
        if (g_batch_interrupted.load(std::memory_order_relaxed)) break;
        auto ctl = std::make_shared<BatchJobCtl>();
        svc::JobSpec spec;
        spec.options = synthesis_options(cli);
        spec.options.grid_size = cli.grid;
        spec.options.cancel = ctl->source.token();
        spec.on_phase = [ctl](std::uint64_t, svc::JobPhase phase, const char*,
                              const svc::JobResult*) {
          if (phase == svc::JobPhase::kStarted) {
            ctl->state.store(1, std::memory_order_relaxed);
          } else if (phase == svc::JobPhase::kFinished) {
            ctl->state.store(2, std::memory_order_relaxed);
          }
        };
        {
          std::lock_guard<std::mutex> lock(ctls_mutex);
          ctls.push_back(ctl);
        }
        spec.name = name;
        spec.graph = assay::make_benchmark(name);
        spec.policy_increments = p;
        spec.asap = cli.asap;
        if (cli.reliability) {
          spec.kind = svc::JobKind::kReliability;
          spec.reliability.monte_carlo.trials = cli.trials;
          spec.reliability.monte_carlo.seed = cli.seed;
        }
        if (cli.deadline_ms.has_value()) {
          spec.deadline = std::chrono::milliseconds(*cli.deadline_ms);
        }
        pending.push_back({name, "p" + std::to_string(p + 1), service.submit(std::move(spec))});
      }
      if (g_batch_interrupted.load(std::memory_order_relaxed)) break;
    }
    if (g_batch_interrupted.load(std::memory_order_relaxed)) {
      std::cerr << "interrupted: stopped submitting after " << pending.size()
                << " job(s); cancelling queued work and draining\n";
      break;
    }
  }

  TextTable table;
  std::vector<std::string> header = {"case", "Po.", "status", "chip", "vs_1max", "vs_2max",
                                     "#v"};
  std::vector<Align> aligns = {Align::kLeft, Align::kLeft, Align::kLeft, Align::kLeft,
                               Align::kRight, Align::kRight, Align::kRight};
  if (cli.reliability) {
    header.push_back("mttf");
    aligns.push_back(Align::kRight);
  }
  header.insert(header.end(), {"via", "queue(s)", "run(s)"});
  aligns.insert(aligns.end(), {Align::kLeft, Align::kRight, Align::kRight});
  table.set_header(header);
  table.set_alignment(aligns);
  int failures = 0;
  for (Pending& job : pending) {
    const svc::JobResult result = job.future.get();
    std::string chip = "-", vs1 = "-", vs2 = "-", valves = "-", mttf = "-";
    if (result.result != nullptr) {
      const synth::SynthesisResult& r = *result.result;
      chip = std::to_string(r.chip_width) + "x" + std::to_string(r.chip_height);
      vs1 = std::to_string(r.vs1_max) + "(" + std::to_string(r.vs1_pump) + ")";
      vs2 = std::to_string(r.vs2_max) + "(" + std::to_string(r.vs2_pump) + ")";
      valves = std::to_string(r.valve_count);
    }
    if (result.report != nullptr) {
      mttf = format_fixed(result.report->healthy.mttf_runs, 1);
    }
    if (result.status == svc::JobStatus::kFailed ||
        result.status == svc::JobStatus::kRejected) {
      ++failures;
    }
    std::vector<std::string> row = {job.name, job.policy, to_string(result.status), chip,
                                    vs1, vs2, valves};
    if (cli.reliability) row.push_back(mttf);
    row.insert(row.end(), {result.cache_hit ? "cache" : result.winner,
                           format_fixed(result.queue_seconds, 3),
                           format_fixed(result.run_seconds, 3)});
    table.add_row(row);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - submit_started)
          .count();
  drain_done.store(true, std::memory_order_relaxed);
  monitor.join();
  std::cout << table.to_string();

  const svc::MetricsSnapshot metrics = service.metrics();
  std::cout << '\n'
            << pending.size() << " jobs on " << service.worker_count() << " workers in "
            << format_fixed(wall, 2) << " s (synthesis cpu "
            << format_fixed(metrics.synthesis_seconds, 2) << " s); cache "
            << metrics.cache.hits << " hits / " << metrics.cache.misses << " misses / "
            << metrics.cache.evictions << " evictions\n";
  if (cli.metrics_path == "-") {
    std::cout << '\n' << metrics.to_json();
  } else if (!cli.metrics_path.empty()) {
    std::ofstream out(cli.metrics_path);
    check_input(static_cast<bool>(out), "cannot write metrics to " + cli.metrics_path);
    out << metrics.to_json();
    std::cout << "metrics:     " << cli.metrics_path << '\n';
  }
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void client_usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: flowsynth client <verb> [--host H] [--port P] [--traceparent TP]\n"
      "  submit <benchmark> [--kind synthesis|reliability|fleet] [--policy N] [--asap]\n"
      "         [--seed S] [--grid N] [--ilp] [--priority interactive|batch|background]\n"
      "         [--deadline-ms D] [--trials N] [--watch]\n"
      "  status <id>            print the job's status document\n"
      "  result <id> [--out PATH]  fetch the result document (same bytes as\n"
      "                         `flowsynth synth --out` for the same spec)\n"
      "  watch <id>             stream lifecycle events until the job ends\n"
      "  cancel <id>            request cooperative cancellation\n"
      "  list | metrics | health\n";
  std::exit(2);
}

/// Prints the trace id carried by a `traceparent` response header, if any.
void print_trace_header(const std::vector<net::Header>& headers) {
  if (const std::string* tp = net::find_header(headers, "traceparent")) {
    fsyn::obs::TraceContext context;
    if (fsyn::obs::parse_traceparent(*tp, &context)) {
      std::cout << "trace: " << context.trace_id_hex() << std::endl;
    }
  }
}

/// Streams a job's events to stdout; returns the job's terminal event name
/// ("" when the stream ended without one).
std::string client_watch(net::ApiClient& client, std::uint64_t id,
                         bool print_trace = false) {
  std::string last_terminal;
  std::vector<net::Header> headers;
  client.watch(id, [&](const std::string& event, std::uint64_t seq,
                       const std::string& data) {
    std::cout << "[" << seq << "] " << event << " " << data << std::endl;
    if (event == "done" || event == "cancelled" || event == "failed" ||
        event == "rejected") {
      last_terminal = event;
    }
    return true;
  }, /*after_seq=*/0, &headers);
  if (print_trace) print_trace_header(headers);
  return last_terminal;
}

int run_client(int argc, char** argv) {
  // argv: flowsynth client <verb> [positional] [--flags]
  if (argc < 3) client_usage();
  const std::string verb = argv[2];
  std::string host = "127.0.0.1";
  int port = 8080;
  std::string positional;
  std::string kind = "synthesis";
  std::string priority;
  std::string out_path;
  int policy = 0;
  bool asap = false;
  std::optional<int> grid;
  bool use_ilp = false;
  std::uint64_t seed = 2015;
  std::optional<int> deadline_ms;
  int trials = 0;
  bool watch_after_submit = false;
  std::string traceparent;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) client_usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = parse_int(next());
    } else if (arg == "--kind") {
      kind = next();
    } else if (arg == "--policy") {
      policy = parse_int(next());
    } else if (arg == "--asap") {
      asap = true;
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(parse_int(next()));
    } else if (arg == "--grid") {
      grid = parse_int(next());
    } else if (arg == "--ilp") {
      use_ilp = true;
    } else if (arg == "--priority") {
      priority = next();
    } else if (arg == "--deadline-ms") {
      deadline_ms = parse_int(next());
    } else if (arg == "--trials") {
      trials = parse_int(next());
    } else if (arg == "--watch") {
      watch_after_submit = true;
    } else if (arg == "--traceparent") {
      traceparent = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (!arg.empty() && arg[0] != '-' && positional.empty()) {
      positional = arg;
    } else {
      client_usage("unknown option " + arg);
    }
  }
  if (positional.empty() && argc > 3 && argv[3][0] != '-') positional = argv[3];

  net::ApiClient client(host, port);
  if (!traceparent.empty()) client.set_header("traceparent", traceparent);

  auto require_id = [&]() -> std::uint64_t {
    if (positional.empty()) client_usage(verb + " needs a job id");
    return static_cast<std::uint64_t>(parse_int(positional));
  };
  auto print_response = [](const net::ClientResponse& response) {
    std::cout << response.body << std::endl;
    return response.status < 400 ? 0 : 1;
  };

  if (verb == "submit") {
    if (positional.empty()) client_usage("submit needs a benchmark name");
    JsonWriter w;
    w.begin_object();
    w.key("kind").value(kind);
    w.key("assay").value(positional);
    if (policy != 0) w.key("policy").value(policy);
    if (asap) w.key("asap").value(true);
    w.key("seed").value(seed);
    if (grid.has_value()) w.key("grid").value(*grid);
    if (use_ilp) w.key("ilp").value(true);
    if (!priority.empty()) w.key("priority").value(priority);
    if (deadline_ms.has_value()) w.key("deadline_ms").value(*deadline_ms);
    if (trials > 0) {
      w.key("reliability").begin_object();
      w.key("trials").value(trials);
      w.end_object();
    }
    w.end_object();
    const net::ClientResponse response = client.post("/v1/jobs", w.take());
    std::cout << response.body << std::endl;
    if (response.status >= 400) return 1;
    print_trace_header(response.headers);
    if (watch_after_submit) {
      const JsonValue doc = JsonValue::parse(response.body);
      const auto id = static_cast<std::uint64_t>(doc.at("id").as_int());
      const std::string terminal = client_watch(client, id);
      return terminal == "done" ? 0 : 1;
    }
    return 0;
  }
  if (verb == "status") {
    return print_response(client.get("/v1/jobs/" + std::to_string(require_id())));
  }
  if (verb == "result") {
    const net::ClientResponse response =
        client.get("/v1/jobs/" + std::to_string(require_id()) + "/result");
    if (response.status >= 400 || out_path.empty()) return print_response(response);
    std::ofstream out(out_path);
    check_input(static_cast<bool>(out), "cannot write " + out_path);
    out << response.body;
    std::cout << "result:      " << out_path << '\n';
    return 0;
  }
  if (verb == "watch") {
    const std::string terminal = client_watch(client, require_id(), /*print_trace=*/true);
    return terminal == "done" ? 0 : 1;
  }
  if (verb == "cancel") {
    return print_response(client.del("/v1/jobs/" + std::to_string(require_id())));
  }
  if (verb == "list") return print_response(client.get("/v1/jobs"));
  if (verb == "metrics") return print_response(client.get("/metrics"));
  if (verb == "health") return print_response(client.get("/healthz"));
  client_usage("unknown verb '" + verb + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "client") return run_client(argc, argv);
    const CliOptions cli = parse_cli(argc, argv);
    if (cli.command == "list") {
      for (const auto& name : assay::extended_benchmark_names()) std::cout << name << '\n';
      return 0;
    }
    if (cli.command == "table1") {
      std::cout << report::format_table(report::run_full_table({}, cli.jobs));
      return 0;
    }
    if (!cli.trace_path.empty()) {
      fsyn::obs::Tracer& tracer = fsyn::obs::Tracer::instance();
      tracer.enable();
      tracer.set_thread_name("main");
    }
    int code = 0;
    if (cli.command == "schedule") {
      code = run_schedule(cli);
    } else if (cli.command == "synth") {
      code = run_synth(cli);
    } else if (cli.command == "reliability") {
      code = run_reliability(cli);
    } else if (cli.command == "fleet") {
      code = run_fleet(cli);
    } else if (cli.command == "batch") {
      code = run_batch(cli);
    } else {
      usage("unknown command '" + cli.command + "'");
    }
    if (!cli.trace_path.empty()) {
      fsyn::obs::write_chrome_trace_file(cli.trace_path);
      std::cout << "trace:       " << cli.trace_path << '\n';
    }
    return code;
  } catch (const fsyn::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
