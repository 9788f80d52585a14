// Performance benchmarks (google-benchmark): scaling of the synthesis
// pipeline and its substrates with assay size and matrix size.
//
// The paper reports program runtimes of 0.8 s (PCR) to 489 s (exponential
// dilution, Gurobi).  This reproduction's heuristic path runs the largest
// case in well under a second per chip size probe; these benchmarks keep
// that property observable.
#include <benchmark/benchmark.h>

#include "assay/benchmarks.hpp"
#include "assay/random_assay.hpp"
#include "ilp/branch_and_bound.hpp"
#include "util/rng.hpp"
#include "route/router.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/heuristic_mapper.hpp"
#include "synth/synthesis.hpp"

using namespace fsyn;

namespace {

const assay::SequencingGraph& benchmark_graph(int index) {
  static const std::vector<assay::SequencingGraph> graphs = [] {
    std::vector<assay::SequencingGraph> out;
    for (const auto& name : assay::benchmark_names()) out.push_back(assay::make_benchmark(name));
    return out;
  }();
  return graphs[static_cast<std::size_t>(index)];
}

void BM_Scheduling(benchmark::State& state) {
  const auto& g = benchmark_graph(static_cast<int>(state.range(0)));
  const auto policy = sched::make_policy(g, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::schedule_with_policy(g, policy));
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_Scheduling)->DenseRange(0, 3);

void BM_HeuristicMapping(benchmark::State& state) {
  const auto& g = benchmark_graph(static_cast<int>(state.range(0)));
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 1));
  const int side = arch::Architecture::sized_for(g, schedule, 1.0).width();
  const auto problem = synth::MappingProblem::build(g, schedule, arch::Architecture(side, side));
  synth::HeuristicOptions options;
  options.sa_iterations = 4000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::map_heuristic(problem, options));
  }
  state.SetLabel(g.name() + " on " + std::to_string(side) + "x" + std::to_string(side));
}
BENCHMARK(BM_HeuristicMapping)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_Routing(benchmark::State& state) {
  const auto& g = benchmark_graph(static_cast<int>(state.range(0)));
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 1));
  const int side = arch::Architecture::sized_for(g, schedule, 1.0).width();
  const auto problem = synth::MappingProblem::build(g, schedule, arch::Architecture(side, side));
  const auto mapping = synth::map_heuristic(problem);
  if (!mapping.has_value()) {
    state.SkipWithError("mapping failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::route_all(problem, mapping->placement));
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_Routing)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_RoutingScale(benchmark::State& state) {
  // The end-to-end `scale` workload's recipe, where routing is a large
  // share of synthesis: a random assay of the given size, policy 1, on the
  // estimated grid plus two.
  Rng rng(2015);
  assay::RandomAssayOptions assay_options;
  assay_options.mixing_ops = static_cast<int>(state.range(0));
  assay_options.reuse_probability = 0.55;
  assay_options.detect_probability = 0.15;
  const auto g = assay::make_random_assay(rng, assay_options);
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 1));
  const int side =
      arch::Architecture::sized_for(g, schedule, synth::SynthesisOptions().chip_slack).width() + 2;
  const auto problem = synth::MappingProblem::build(g, schedule, arch::Architecture(side, side));
  synth::HeuristicOptions options;
  options.sa_iterations = 4000;
  const auto mapping = synth::map_heuristic(problem, options);
  if (!mapping.has_value()) {
    state.SkipWithError("mapping failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::route_all(problem, mapping->placement));
  }
  state.SetLabel(std::to_string(assay_options.mixing_ops) + " mixes on " + std::to_string(side) +
                 "x" + std::to_string(side));
}
BENCHMARK(BM_RoutingScale)->Arg(60)->Arg(116)->Unit(benchmark::kMillisecond);

void BM_FullSynthesis(benchmark::State& state) {
  const auto& g = benchmark_graph(static_cast<int>(state.range(0)));
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 1));
  synth::SynthesisOptions options;
  options.heuristic.sa_iterations = 4000;
  options.chip_sweep = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::synthesize(g, schedule, options));
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_FullSynthesis)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_SimplexLp(benchmark::State& state) {
  // Random dense LP of the given size (feasible by construction).
  const int n = static_cast<int>(state.range(0));
  Rng rng(99);
  ilp::Model model;
  std::vector<ilp::VarId> vars;
  for (int j = 0; j < n; ++j) vars.push_back(model.add_continuous(0, 10));
  for (int i = 0; i < n; ++i) {
    ilp::LinearExpr e;
    for (int j = 0; j < n; ++j) e.add_term(vars[static_cast<std::size_t>(j)], rng.next_int(0, 3));
    model.add_constraint(e, ilp::Relation::kLessEqual, 5.0 * n);
  }
  ilp::LinearExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(vars[static_cast<std::size_t>(j)], rng.next_int(1, 5));
  model.set_objective(obj, ilp::Sense::kMaximize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::solve_lp(model));
  }
}
BENCHMARK(BM_SimplexLp)->Arg(10)->Arg(30)->Arg(60);

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  ilp::Model model;
  ilp::LinearExpr weight, value;
  for (int j = 0; j < n; ++j) {
    const auto x = model.add_binary();
    weight.add_term(x, rng.next_int(1, 9));
    value.add_term(x, rng.next_int(1, 9));
  }
  model.add_constraint(weight, ilp::Relation::kLessEqual, 2.5 * n);
  model.set_objective(value, ilp::Sense::kMaximize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::solve_milp(model));
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(10)->Arg(16)->Arg(22);

}  // namespace

BENCHMARK_MAIN();
