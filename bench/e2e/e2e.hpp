// Shared pieces of the end-to-end benchmark (bench_e2e).
//
// A run executes one workload.  Untraced runs fill `EndToEnd` samples,
// which become the end-to-end metrics; traced runs replay the workload
// layer by layer and fill `layers` with the per-layer metrics.  Every
// metric name, unit and direction is declared once, in the tables below,
// and must match BENCHMARK.json (smoke.py checks it).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.hpp"
#include "obs/trace.hpp"
#include "synth/synthesis.hpp"

namespace fsyn::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run, whatever the workload.
inline constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},       {"setup_s", "s"},   {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},      {"p95_ms", "ms"},   {"vs1_mean", "count"},
    {"vs2_mean", "count"}, {"valves_mean", "count"},
};

/// Printed by every traced run; a layer the workload does not reach reads 0.
inline constexpr MetricDef kPerLayer[] = {
    {"synth.attempts", "count"},
    {"synth.attempts_infeasible", "count"},
    {"synth.map_infeasible_s", "s"},
    {"synth.construct_s", "s"},
    {"synth.anneal_s", "s"},
    {"synth.anneal_moves_per_s", "1/s"},
    {"synth.accept_frac", "ratio"},
    {"synth.routing_remaps", "count"},
    {"synth.build_s", "s"},
    {"synth.validate_s", "s"},
    {"route.route_s", "s"},
    {"route.rip_ups", "count"},
    {"route.cells", "count"},
    {"sched.schedule_s", "s"},
    {"baseline.build_s", "s"},
    {"sim.verify_s", "s"},
    {"sim.control_s", "s"},
    {"ilp.warm_start_s", "s"},
    {"ilp.solve_s", "s"},
    {"ilp.proved", "count"},
    {"ilp.nodes", "count"},
    {"ilp.lp_iterations", "count"},
    {"ilp.lp_iters_per_s", "1/s"},
    {"ilp.refactorizations", "count"},
    {"ilp.cuts_applied", "count"},
    {"ilp.arena_bytes", "bytes"},
    {"ilp.gap_sum", "count"},
    {"net.submit_ms_p50", "ms"},
    {"svc.queue_ms_p50", "ms"},
    {"svc.queue_ms_p95", "ms"},
    {"svc.run_miss_ms_p50", "ms"},
    {"svc.run_hit_ms_p50", "ms"},
    {"net.result_ms_p50", "ms"},
    {"net.scrape_ms_p50", "ms"},
    {"svc.cache_hit_frac", "ratio"},
    {"net.shed", "count"},
    {"trace.unaccounted_frac", "ratio"},
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced inputs (the ctest smoke run).
  bool smoke = false;
};

/// Vs/valve figures of one delivered design.
struct Design {
  int vs1 = 0;
  int vs2 = 0;
  int valves = 0;
};

/// Raw samples of an untraced run.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one per set-up
  /// One per complete pass over the workload's operations: its time, or on
  /// ilp_exact its PAR-2 score (ilp_workload.cpp).
  std::vector<double> pass_s;
  std::vector<double> op_ms;  ///< every operation's measured latency
  /// The designs of the first pass only.  Its inputs never depend on the
  /// seed or on how many passes fit in the run, so the quality metrics are
  /// exact: the same on every run of the same code.
  std::vector<Design> designs;
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1] (0 when empty).
double quantile(std::vector<double> values, double q);

/// Everything one run reports.
class Report {
 public:
  /// Counts one operation; `ok` false marks it failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a failed check (printed to stderr); returns `ok`.
  bool expect(bool ok, const std::string& what);

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

  EndToEnd e2e;
  /// Per-layer metrics by name (kPerLayer); absent names read 0.
  std::map<std::string, double> layers;
  /// Human-readable lines printed before the metrics.
  std::vector<std::string> lines;
  /// One row per operation for the flowsynth-bench-v1 file.
  std::vector<benchio::JsonObject> rows;
  /// Where traced runs keep every drained trace event (--trace-out), or null.
  std::vector<obs::TraceEvent>* kept_events = nullptr;

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

/// Repeats `body` (one complete pass) until the next pass would end after
/// `seconds`; always runs at least one pass.
template <typename Body>
void run_passes(double seconds, Body&& body) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  do {
    const Clock::time_point pass_start = Clock::now();
    body();
    last = seconds_since(pass_start);
  } while (seconds_since(start) + last <= seconds);
}

/// Times a workload's set-up (`make` builds the inputs and returns them)
/// into `EndToEnd::setup_s`, whose median is setup_s.  One set-up takes
/// 0.1-20 ms and the host's speed swings by +-25 % within seconds, so the
/// set-up is repeated many times at the start and again in short bursts
/// through the run, outside the timed operations.
template <typename Make>
class SetupClock {
 public:
  SetupClock(std::vector<double>& samples, Make make) : samples_(samples), make_(std::move(make)) {}

  /// The run's set-up: at least 9 repeats and 0.1 s; returns the last product.
  auto first() { return repeat(9, 0.1); }

  /// Between operations: at most once a second, a 20 ms burst of set-ups.
  void between() {
    if (seconds_since(last_) >= 1.0) repeat(1, 0.02);
  }

 private:
  auto repeat(int min_repeats, double min_seconds) {
    const Clock::time_point begin = Clock::now();
    for (int k = 1;; ++k) {
      const Clock::time_point start = Clock::now();
      auto product = make_();
      samples_.push_back(seconds_since(start));
      if (k >= min_repeats && seconds_since(begin) >= min_seconds) {
        last_ = Clock::now();
        return product;
      }
    }
  }

  std::vector<double>& samples_;
  Make make_;
  Clock::time_point last_ = Clock::now();
};

/// The heuristic seed of the paper's reproduction (bench_table1).  The
/// workloads with fixed inputs (table1, ilp_exact) always map with it: the
/// annealer's seed moves their run time by up to 25 %, which would drown
/// the changes the benchmark is meant to show.  --seed only orders their
/// operations.  The workloads with random inputs (scale, served) draw their
/// first pass from it and every later pass from --seed.
inline constexpr std::uint64_t kPaperSeed = 2015;

/// The seed a pass draws its random inputs from (see kPaperSeed).
inline std::uint64_t pass_seed(std::uint64_t seed, int pass) {
  return pass == 0 ? kPaperSeed : seed;
}

/// Fisher-Yates order of `count` operations drawn from `seed`.
std::vector<std::size_t> seeded_order(std::size_t count, std::uint64_t seed);

// ---- tracing -------------------------------------------------------------

/// Category of every span the benchmark records around a layer call.
inline constexpr const char* kSpanCategory = "e2e";

/// Time of a call recorded as an `e2e` complete event named after its
/// outcome (the span name is only known once the call returned).
class StageClock {
 public:
  StageClock() : start_us_(obs::Tracer::instance().now_us()) {}
  void record(std::string name) const {
    const std::int64_t now = obs::Tracer::instance().now_us();
    obs::Tracer::instance().complete(kSpanCategory, std::move(name), start_us_, now - start_us_);
  }

 private:
  std::int64_t start_us_;
};

/// Durations of the drained `e2e` spans, by name.
struct SpanTotals {
  std::map<std::string, std::vector<double>> samples_ms;

  /// Total seconds of the spans named `name`.
  double get(const std::string& name) const;
  /// Drains the tracer and adds its `e2e` spans; keeps every drained event
  /// in `keep` when non-null (for --trace-out).
  void absorb(std::vector<obs::TraceEvent>* keep);
  void add(const SpanTotals& other);
};

/// Synthesis stages that together make up an operation's traced time.
inline constexpr const char* kSynthStages[] = {
    "sched.schedule", "baseline.build",  "synth.build", "synth.map_infeasible",
    "synth.map",      "synth.validate", "route.route", "sim.verify"};

/// Counters of the layer replay (what the spans cannot carry).
struct ReplayCounters {
  long attempts = 0;
  long attempts_infeasible = 0;
  long routing_remaps = 0;
  long moves_tried = 0;
  long moves_accepted = 0;
  long rip_ups = 0;
  long cells = 0;
};

/// Replays `synth::synthesize` through the public layer functions with a
/// span around every call, and runs the construct-only probe on feasible
/// attempts.  The result must equal `synthesize`'s on the same inputs.
synth::SynthesisResult replay_synthesize(const assay::SequencingGraph& graph,
                                         const sched::Schedule& schedule,
                                         const synth::SynthesisOptions& options,
                                         ReplayCounters& counters);

/// Simulates a routed placement in both settings and fills a synthesis
/// result with it, as synthesis.cpp's attempt_on_size does for a chip size
/// that routed.
synth::SynthesisResult finish_result(const synth::MappingProblem& problem,
                                     const synth::Placement& placement,
                                     const route::RoutingResult& routing);

/// Fills the synthesis/route/sim per-layer metrics from the replay.
void add_replay_layers(Report& report, const SpanTotals& spans, const ReplayCounters& counters);

/// Checks a design with the independent control-program replay: compiling
/// the placement + routing into valve events and replaying them must give
/// the setting-1 ledger, and the headline numbers must match the ledgers.
bool check_design(Report& report, const std::string& label, const assay::SequencingGraph& graph,
                  const sched::Schedule& schedule, const synth::SynthesisResult& result);

Design design_of(const synth::SynthesisResult& result);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// nproc, compiler, build type and CPU model.
void describe_host(benchio::JsonObject& config);

// ---- workloads -----------------------------------------------------------

void run_table1(const RunConfig& config, Report& report);
void run_scale(const RunConfig& config, Report& report);
void run_ilp_exact(const RunConfig& config, Report& report);
void run_served(const RunConfig& config, Report& report);

}  // namespace fsyn::e2e
