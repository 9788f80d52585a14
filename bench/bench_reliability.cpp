// Reliability-engine performance smoke: one machine-readable JSON line per
// benchmark assay with Monte Carlo throughput (trials/sec inline and as 4
// tasks on the shared executor — the `pool4` keys — plus the speedup), the
// lifetime headline numbers, and degraded re-synthesis latency percentiles
// over the top-wear fault rounds.  Mirrors the bench_ilp_solver line format so CI can archive and
// diff BENCH_*.json trajectories.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "assay/benchmarks.hpp"
#include "bench_json.hpp"
#include "rel/engine.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/synthesis.hpp"

using namespace fsyn;

namespace {

double measure_trials_per_second(const std::vector<sim::ValveWear>& valves,
                                 rel::MonteCarloOptions options) {
  // Warm-up pass (allocators, branch predictors), then the measured pass.
  rel::MonteCarloOptions warmup = options;
  warmup.trials = options.trials / 10;
  (void)rel::estimate_lifetime(valves, warmup);
  return rel::estimate_lifetime(valves, options).trials_per_second;
}

void run(const std::string& name, int trials, int fault_rounds,
         benchio::BenchWriter& writer) {
  const assay::SequencingGraph graph = assay::make_benchmark(name);
  const sched::Schedule schedule =
      sched::schedule_with_policy(graph, sched::make_policy(graph, 0));
  const synth::SynthesisResult healthy = synth::synthesize(graph, schedule);
  const std::vector<sim::ValveWear> valves = sim::valve_wear(healthy.ledger_setting1);

  rel::MonteCarloOptions mc;
  mc.trials = trials;
  mc.seed = 42;
  mc.block_size = 256;

  const double serial_tps = measure_trials_per_second(valves, mc);

  rel::MonteCarloOptions pooled = mc;
  pooled.threads = 4;
  const double pooled_tps = measure_trials_per_second(valves, pooled);

  // Determinism guard: the 4-task estimate must equal the serial one bit
  // for bit, or the throughput numbers compare different computations.
  const double serial_mttf = rel::estimate_lifetime(valves, mc).mttf_runs;
  const double pooled_mttf = rel::estimate_lifetime(valves, pooled).mttf_runs;
  if (serial_mttf != pooled_mttf) {
    std::cerr << "determinism violation on " << name << '\n';
    std::exit(1);
  }

  rel::ReliabilityOptions options;
  options.monte_carlo = mc;
  options.monte_carlo.trials = 2000;  // rounds re-estimate lifetime; keep cheap
  options.inject_top = fault_rounds;
  const rel::ReliabilityReport report = rel::analyze(graph, schedule, healthy, options);
  int remapped = 0;
  for (const rel::RepairRound& round : report.rounds) remapped += round.feasible ? 1 : 0;

  benchio::JsonObject row;
  row.add("bench", "reliability")
      .add("instance", name)
      .add("valves", static_cast<long long>(valves.size()))
      .add("trials", trials)
      .add("mttf_runs", serial_mttf)
      .add("trials_per_sec_1t", static_cast<long long>(serial_tps))
      .add("trials_per_sec_pool4", static_cast<long long>(pooled_tps))
      .add("speedup_pool4", pooled_tps / serial_tps)
      .add("fault_rounds", static_cast<long long>(report.rounds.size()))
      .add("remapped", remapped)
      .add("resynth_p50_ms", report.resynthesis_latency.percentile(50) * 1e3)
      .add("resynth_p95_ms", report.resynthesis_latency.percentile(95) * 1e3);
  std::cout << row.str() << std::endl;
  writer.add_instance(row);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_reliability [--out BENCH.json]\n";
      return 2;
    }
  }
  benchio::BenchWriter writer("reliability");
  writer.config().add("pool_workers", 4).add("seed", 42);
  run("pcr", 400000, 5, writer);
  run("invitro", 400000, 5, writer);
  run("protein", 200000, 3, writer);
  if (!out_path.empty() && !writer.write(out_path)) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  return 0;
}
