// Tests for both dynamic-device mappers.
//
// The heuristic mapper must produce valid placements on every benchmark and
// every policy; the exact ILP mapper must match known optima on small
// crafted instances and never lose to the heuristic (it is seeded with the
// heuristic's placement).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "assay/benchmarks.hpp"
#include "obs/trace.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/heuristic_mapper.hpp"
#include "synth/ilp_mapper.hpp"

namespace fsyn::synth {
namespace {

using arch::DeviceInstance;
using assay::OpId;
using assay::OpKind;
using assay::Operation;
using assay::SequencingGraph;

Operation input_op(const std::string& name) {
  Operation op;
  op.kind = OpKind::kInput;
  op.name = name;
  return op;
}

Operation mix_op(const std::string& name, std::vector<OpId> parents, int volume,
                 int duration) {
  Operation op;
  op.kind = OpKind::kMix;
  op.name = name;
  op.parents = std::move(parents);
  op.volume = volume;
  op.duration = duration;
  return op;
}

SequencingGraph two_concurrent_mixes() {
  SequencingGraph g("two");
  std::vector<OpId> in;
  for (int i = 0; i < 4; ++i) in.push_back(g.add_operation(input_op("i" + std::to_string(i))));
  g.add_operation(mix_op("a", {in[0], in[1]}, 8, 6));
  g.add_operation(mix_op("b", {in[2], in[3]}, 8, 6));
  g.validate();
  return g;
}

TEST(HeuristicMapper, TwoConcurrentMixesGetDisjointRings) {
  const auto g = two_concurrent_mixes();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(9, 9));
  const auto outcome = map_heuristic(problem);
  ASSERT_TRUE(outcome.has_value());
  problem.validate_placement(outcome->placement);
  // Enough room: each valve pumps for exactly one operation.
  EXPECT_EQ(outcome->max_pump_load, kPumpActuationsPerMix);
  EXPECT_EQ(outcome->max_pump_load_setting2, 15);  // ceil(120/8)
}

TEST(HeuristicMapper, DeterministicForFixedSeed) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(10, 10));
  HeuristicOptions options;
  options.seed = 7;
  const auto first = map_heuristic(problem, options);
  const auto second = map_heuristic(problem, options);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->placement, second->placement);
  EXPECT_EQ(first->max_pump_load, second->max_pump_load);
}

TEST(HeuristicMapper, AnnealingNeverWorseThanGreedy) {
  const auto g = assay::make_mixing_tree();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(12, 12));
  HeuristicOptions greedy_only;
  greedy_only.sa_iterations = 0;
  const auto greedy = map_heuristic(problem, greedy_only);
  const auto annealed = map_heuristic(problem);
  ASSERT_TRUE(greedy.has_value());
  ASSERT_TRUE(annealed.has_value());
  EXPECT_LE(annealed->max_pump_load, greedy->max_pump_load);
}

/// Eight concurrent volume-10 mixes: more than an 8x8 chip minus its port
/// cells can hold.
SequencingGraph eight_concurrent_mixes() {
  SequencingGraph g("tight");
  std::vector<OpId> in;
  for (int i = 0; i < 16; ++i) in.push_back(g.add_operation(input_op("i" + std::to_string(i))));
  for (int m = 0; m < 8; ++m) {
    g.add_operation(mix_op("m" + std::to_string(m), {in[2 * m], in[2 * m + 1]}, 10, 6));
  }
  g.validate();
  return g;
}

TEST(HeuristicMapper, ReturnsNulloptOnImpossiblyTightChip) {
  const auto g = eight_concurrent_mixes();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(8, 8));
  HeuristicOptions options;
  options.greedy_retries = 2;
  EXPECT_FALSE(map_heuristic(problem, options).has_value());
}

TEST(HeuristicMapper, SpansReportEachGreedyPassAndTheAnnealing) {
  const auto tight_graph = eight_concurrent_mixes();
  const auto tight_schedule = sched::schedule_asap(tight_graph);
  const auto tight =
      MappingProblem::build(tight_graph, tight_schedule, arch::Architecture(8, 8));
  const auto pcr_graph = assay::make_pcr();
  const auto pcr_schedule = sched::schedule_asap(pcr_graph);
  const auto pcr = MappingProblem::build(pcr_graph, pcr_schedule, arch::Architecture(10, 10));
  HeuristicOptions two_restarts;
  two_restarts.greedy_retries = 2;

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.drain();
  tracer.enable();
  const auto failed = map_heuristic(tight, two_restarts);
  const auto mapped = map_heuristic(pcr);
  tracer.disable();
  ASSERT_FALSE(failed.has_value());
  ASSERT_TRUE(mapped.has_value());

  std::vector<std::string> construct, anneal;
  for (const obs::TraceEvent& e : tracer.drain()) {
    if (std::string_view(e.category) != "synth") continue;
    if (e.name == "construct") construct.push_back(e.args);
    if (e.name == "anneal") anneal.push_back(e.args);
  }
  // The tight chip fails the deterministic pass and both restarts and is
  // never annealed; pcr is placed by the deterministic pass.
  EXPECT_EQ(construct, (std::vector<std::string>{
                           "\"restart\":0,\"feasible\":false",
                           "\"restart\":1,\"feasible\":false",
                           "\"restart\":2,\"feasible\":false",
                           "\"restart\":0,\"feasible\":true",
                       }));
  EXPECT_EQ(anneal, (std::vector<std::string>{
                        "\"moves_tried\":" + std::to_string(mapped->moves_tried) +
                        ",\"moves_accepted\":" + std::to_string(mapped->moves_accepted),
                    }));
  EXPECT_GT(mapped->moves_accepted, 0);
}

TEST(HeuristicMapper, WorksOnEveryBenchmarkAndPolicy) {
  for (const auto& name : assay::benchmark_names()) {
    const auto g = assay::make_benchmark(name);
    for (int increments : {0, 2}) {
      const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, increments));
      // Generous chip so construction always succeeds.
      const int side = arch::Architecture::sized_for(g, schedule, 1.2).width();
      auto problem = MappingProblem::build(g, schedule, arch::Architecture(side, side));
      HeuristicOptions options;
      options.sa_iterations = 4000;  // keep the test fast
      const auto outcome = map_heuristic(problem, options);
      ASSERT_TRUE(outcome.has_value()) << name << " inc=" << increments;
      problem.validate_placement(outcome->placement);
      EXPECT_GE(outcome->max_pump_load, kPumpActuationsPerMix);
    }
  }
}

TEST(HeuristicMapper, RespectsAblationFlags) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(12, 12));
  problem.set_allow_storage_overlap(false);
  problem.set_routing_convenient(true);
  const auto outcome = map_heuristic(problem);
  ASSERT_TRUE(outcome.has_value());
  // With storage overlap disabled, no two parent/child footprints overlap.
  for (int a = 0; a < problem.task_count(); ++a) {
    for (int b = a + 1; b < problem.task_count(); ++b) {
      if (!problem.time_overlap(a, b)) continue;
      EXPECT_FALSE(outcome->placement[static_cast<std::size_t>(a)].footprint().overlaps(
          outcome->placement[static_cast<std::size_t>(b)].footprint()));
    }
  }
}

/// A placement as {width, height, x, y} per task, for exact comparison.
std::vector<std::array<int, 4>> placement_cells(const Placement& placement) {
  std::vector<std::array<int, 4>> out;
  for (const DeviceInstance& d : placement) {
    out.push_back({d.type.width, d.type.height, d.origin.x, d.origin.y});
  }
  return out;
}

/// Forbids storage overlap for the first three time-overlapping
/// parent/child pairs (as Algorithm 1 L7 would after failed post-checks).
void forbid_three_storage_pairs(MappingProblem& problem) {
  int forbidden = 0;
  for (int a = 0; a < problem.task_count(); ++a) {
    for (const int b : problem.conflict_partners(a)) {
      if (forbidden < 3 && b > a && problem.parent_child(a, b) && problem.time_overlap(a, b)) {
        problem.forbid_storage_overlap(a, b);
        ++forbidden;
      }
    }
  }
}

TEST(HeuristicMapper, DecisionsArePinnedAcrossVersions) {
  // Outcomes around the tightest chips of Table-1 rows.  A change meant
  // only to make the mapper faster must reproduce every construction and
  // annealing decision, so these stay exact: DeterministicForFixedSeed
  // compares two runs of one build and cannot see a changed decision.
  // Every one of the 13 constructions fails on the tight chip; the larger
  // one succeeds.  The first two rows use the paper's configuration; the
  // others (`configure`, applied to both chips) switch routing convenience
  // off, switch storage overlap off, forbid three storage pairs, or kill
  // three valves.
  struct Pin {
    const char* assay;
    int increments;
    int infeasible_side;
    int side;
    int max_pump_load;
    int max_pump_load_setting2;
    long moves_tried;
    long moves_accepted;
    std::vector<std::array<int, 4>> placement;
    void (*configure)(MappingProblem&) = nullptr;
  };
  const Pin pins[] = {
      {"interpolating_dilution", 2, 12, 14, 120, 50, 20000, 604,
       {{2, 3, 0, 0},  {2, 3, 2, 0},  {2, 3, 4, 0},  {2, 3, 10, 1}, {2, 3, 12, 3},
        {2, 3, 9, 4},  {2, 3, 12, 8}, {3, 2, 6, 10}, {4, 2, 5, 12}, {3, 3, 1, 11},
        {3, 3, 0, 10}, {2, 4, 0, 8},  {4, 2, 8, 7},  {2, 4, 0, 4},  {4, 2, 5, 3},
        {3, 3, 0, 6},  {5, 2, 0, 0},  {5, 2, 6, 0},  {4, 3, 8, 4},  {3, 4, 11, 9},
        {5, 2, 5, 11}, {2, 5, 2, 7},  {5, 2, 4, 8},  {5, 2, 2, 4},  {4, 3, 6, 0},
        {5, 2, 8, 9},  {5, 2, 2, 12}, {2, 5, 5, 5},  {2, 3, 7, 5},  {2, 2, 4, 10},
        {2, 2, 6, 6},  {4, 2, 0, 1},  {2, 2, 11, 0}, {2, 2, 11, 6}, {2, 2, 9, 12},
        {2, 2, 0, 0},  {2, 2, 12, 2}, {2, 2, 10, 5}, {2, 2, 7, 10}}},
      {"mixing_tree", 0, 9, 10, 120, 50, 20000, 385,
       {{2, 3, 3, 3}, {4, 2, 6, 3}, {2, 3, 3, 0}, {4, 2, 0, 3}, {3, 2, 0, 0}, {3, 3, 4, 7},
        {2, 3, 8, 6}, {4, 2, 5, 8}, {3, 3, 1, 6}, {3, 4, 0, 5}, {5, 2, 4, 0}, {4, 3, 0, 0},
        {4, 3, 5, 4}, {4, 3, 0, 7}, {5, 2, 5, 1}, {4, 3, 5, 5}, {2, 2, 1, 4}, {2, 2, 4, 3}}},
      {"mixing_tree", 0, 8, 9, 120, 50, 20000, 271,
       {{2, 3, 7, 5}, {4, 2, 0, 2}, {2, 3, 4, 0}, {4, 2, 3, 4}, {3, 2, 6, 1}, {3, 3, 0, 6},
        {2, 3, 0, 3}, {2, 4, 3, 5}, {4, 2, 3, 6}, {2, 5, 6, 4}, {5, 2, 0, 1}, {5, 2, 3, 3},
        {2, 5, 0, 4}, {5, 2, 3, 7}, {5, 2, 0, 0}, {4, 3, 2, 3}, {2, 2, 6, 0}, {2, 2, 7, 2}},
       [](MappingProblem& problem) { problem.set_routing_convenient(false); }},
      {"mixing_tree", 1, 9, 10, 160, 90, 20000, 244,
       {{2, 3, 8, 2}, {3, 3, 2, 1}, {3, 2, 0, 5}, {4, 2, 4, 4}, {3, 2, 0, 4}, {4, 2, 4, 8},
        {3, 2, 0, 4}, {4, 2, 0, 8}, {4, 2, 5, 4}, {2, 5, 7, 0}, {4, 3, 0, 0}, {4, 3, 0, 0},
        {5, 2, 5, 7}, {4, 3, 0, 7}, {5, 2, 5, 1}, {2, 5, 5, 0}, {2, 2, 2, 4}, {2, 2, 5, 6}},
       [](MappingProblem& problem) { problem.set_allow_storage_overlap(false); }},
      {"mixing_tree", 0, 9, 10, 120, 57, 20000, 336,
       {{2, 3, 1, 2}, {2, 4, 4, 2}, {3, 2, 0, 0}, {4, 2, 0, 4}, {3, 2, 0, 0}, {4, 2, 6, 3},
        {3, 2, 6, 8}, {4, 2, 2, 8}, {3, 3, 0, 6}, {4, 3, 0, 3}, {5, 2, 4, 0}, {4, 3, 0, 0},
        {4, 3, 5, 4}, {4, 3, 0, 7}, {5, 2, 5, 1}, {3, 4, 6, 5}, {2, 2, 3, 5}, {2, 2, 4, 7}},
       forbid_three_storage_pairs},
      {"mixing_tree", 2, 10, 11, 80, 45, 20000, 385,
       {{3, 2, 7, 0}, {4, 2, 7, 8}, {2, 3, 9, 2}, {4, 2, 0, 0}, {2, 3, 0, 2}, {4, 2, 1, 7},
        {3, 2, 4, 9}, {3, 3, 0, 3}, {4, 2, 0, 9}, {3, 4, 4, 4}, {2, 5, 8, 3}, {5, 2, 3, 0},
        {5, 2, 5, 9}, {3, 4, 0, 6}, {3, 4, 5, 4}, {2, 5, 7, 2}, {2, 2, 2, 4}, {2, 2, 3, 2}},
       [](MappingProblem& problem) {
         problem.set_dead_valves({Point{2, 2}, Point{5, 3}, Point{3, 6}});
       }},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.assay) + " p" + std::to_string(pin.increments));
    const auto g = assay::make_benchmark(pin.assay);
    const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, pin.increments));
    auto tight = MappingProblem::build(
        g, schedule, arch::Architecture(pin.infeasible_side, pin.infeasible_side));
    if (pin.configure != nullptr) pin.configure(tight);
    EXPECT_FALSE(map_heuristic(tight).has_value());

    auto problem = MappingProblem::build(g, schedule, arch::Architecture(pin.side, pin.side));
    if (pin.configure != nullptr) pin.configure(problem);
    const auto outcome = map_heuristic(problem);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->max_pump_load, pin.max_pump_load);
    EXPECT_EQ(outcome->max_pump_load_setting2, pin.max_pump_load_setting2);
    EXPECT_EQ(outcome->moves_tried, pin.moves_tried);
    EXPECT_EQ(outcome->moves_accepted, pin.moves_accepted);
    EXPECT_EQ(placement_cells(outcome->placement), pin.placement);
  }
}

// ------------------------------------------------------------- ILP mapper

TEST(IlpMapper, SingleMixOptimumIs40) {
  SequencingGraph g("one");
  const OpId i1 = g.add_operation(input_op("i1"));
  const OpId i2 = g.add_operation(input_op("i2"));
  g.add_operation(mix_op("a", {i1, i2}, 8, 6));
  g.validate();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(6, 6));
  const auto outcome = map_ilp(problem);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status, ilp::MilpStatus::kOptimal);
  EXPECT_EQ(outcome->max_pump_load, kPumpActuationsPerMix);
  problem.validate_placement(outcome->placement);
}

TEST(IlpMapper, TwoConcurrentMixesOptimal) {
  const auto g = two_concurrent_mixes();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(7, 7));
  IlpMapperOptions options;
  options.time_limit_seconds = 60.0;
  const auto outcome = map_ilp(problem, options);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status, ilp::MilpStatus::kOptimal);
  EXPECT_EQ(outcome->max_pump_load, kPumpActuationsPerMix);
  problem.validate_placement(outcome->placement);
}

TEST(IlpMapper, WarmStartBoundsTheSearch) {
  const auto g = two_concurrent_mixes();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(7, 7));
  const auto warm = map_heuristic(problem);
  ASSERT_TRUE(warm.has_value());
  IlpMapperOptions options;
  options.warm_start = warm->placement;
  options.time_limit_seconds = 60.0;
  const auto outcome = map_ilp(problem, options);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_LE(outcome->max_pump_load, warm->max_pump_load);
  problem.validate_placement(outcome->placement);
}

TEST(IlpMapper, MatchesHeuristicOnSmallChainWithinLimits) {
  // a -> b chain on a small chip: both mappers should reach 40 (the two
  // rings never pump simultaneously but the ILP still must coordinate the
  // storage overlap and routing convenience).
  SequencingGraph g("chain");
  const OpId i1 = g.add_operation(input_op("i1"));
  const OpId i2 = g.add_operation(input_op("i2"));
  const OpId a = g.add_operation(mix_op("a", {i1, i2}, 8, 6));
  g.add_operation(mix_op("b", {a}, 8, 6));
  g.validate();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(7, 7));
  const auto heuristic = map_heuristic(problem);
  ASSERT_TRUE(heuristic.has_value());
  IlpMapperOptions options;
  options.warm_start = heuristic->placement;
  options.time_limit_seconds = 60.0;
  const auto exact = map_ilp(problem, options);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->max_pump_load, kPumpActuationsPerMix);
  EXPECT_EQ(heuristic->max_pump_load, kPumpActuationsPerMix);
}

/// A mapping problem whose graph and schedule it owns (the problem points
/// at both).
struct OwnedProblem {
  SequencingGraph graph;
  sched::Schedule schedule;
  std::optional<MappingProblem> problem;
};

std::unique_ptr<OwnedProblem> benchmark_problem(const char* assay, int increments, int grid) {
  auto p = std::make_unique<OwnedProblem>();
  p->graph = assay::make_benchmark(assay);
  p->schedule = sched::schedule_with_policy(p->graph, sched::make_policy(p->graph, increments));
  p->problem.emplace(
      MappingProblem::build(p->graph, p->schedule, arch::Architecture(grid, grid)));
  return p;
}

std::unique_ptr<OwnedProblem> fork_join_problem() {
  auto p = std::make_unique<OwnedProblem>();
  std::vector<OpId> in;
  for (int i = 0; i < 4; ++i) {
    in.push_back(p->graph.add_operation(input_op("i" + std::to_string(i))));
  }
  const OpId a = p->graph.add_operation(mix_op("a", {in[0], in[1]}, 6, 5));
  const OpId b = p->graph.add_operation(mix_op("b", {in[2], in[3]}, 6, 8));
  p->graph.add_operation(mix_op("c", {a, b}, 8, 6));
  p->graph.validate();
  p->schedule = sched::schedule_asap(p->graph);
  p->problem.emplace(MappingProblem::build(p->graph, p->schedule, arch::Architecture(8, 8)));
  return p;
}

TEST(IlpMapper, WarmStartAtTheLoadBoundIsProvedWithoutASearch) {
  // Both warm starts sit at w = 40 = max_i p_i, which no placement beats.
  std::vector<std::unique_ptr<OwnedProblem>> problems;
  problems.push_back(fork_join_problem());
  problems.push_back(benchmark_problem("pcr", 0, 10));
  for (const auto& p : problems) {
    SCOPED_TRACE(p->graph.name());
    const auto warm = map_heuristic(*p->problem);
    ASSERT_TRUE(warm.has_value());
    ASSERT_EQ(warm->max_pump_load, kPumpActuationsPerMix);
    IlpMapperOptions options;
    options.warm_start = warm->placement;
    options.time_limit_seconds = 2.0;
    const auto outcome = map_ilp(*p->problem, options);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->status, ilp::MilpStatus::kOptimal);
    EXPECT_EQ(outcome->nodes, 0);
    EXPECT_EQ(outcome->lp_iterations, 0);
    EXPECT_EQ(outcome->best_bound, kPumpActuationsPerMix);
    EXPECT_EQ(outcome->max_pump_load, kPumpActuationsPerMix);
    EXPECT_TRUE(outcome->placement == warm->placement);
  }
}

TEST(IlpMapper, UnprovedSolveReportsTheLoadBound) {
  const auto p = benchmark_problem("pcr", 2, 8);
  const auto warm = map_heuristic(*p->problem);
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->max_pump_load, 2 * kPumpActuationsPerMix);
  IlpMapperOptions options;
  options.warm_start = warm->placement;
  options.time_limit_seconds = 1.0;
  const auto outcome = map_ilp(*p->problem, options);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status, ilp::MilpStatus::kFeasible);
  EXPECT_GE(outcome->best_bound, kPumpActuationsPerMix);
}

TEST(IlpMapper, RootLpThatGivesUpIsSolvedOnce) {
  // The root LP of this model gives up before its optimum.  The cut loop
  // solves it first; the tree must not solve it again.
  const auto p = benchmark_problem("pcr", 2, 8);
  const auto warm = map_heuristic(*p->problem);
  ASSERT_TRUE(warm.has_value());
  IlpMapperOptions options;
  options.warm_start = warm->placement;
  options.time_limit_seconds = 60.0;
  const auto with_cuts = map_ilp(*p->problem, options);
  options.cuts = false;
  const auto without_cuts = map_ilp(*p->problem, options);
  ASSERT_TRUE(with_cuts.has_value());
  ASSERT_TRUE(without_cuts.has_value());
  EXPECT_EQ(with_cuts->status, ilp::MilpStatus::kFeasible);
  EXPECT_EQ(with_cuts->status, without_cuts->status);
  EXPECT_EQ(with_cuts->nodes, 1);
  EXPECT_EQ(with_cuts->lp_iterations, without_cuts->lp_iterations);
  EXPECT_EQ(with_cuts->lp, without_cuts->lp);
  EXPECT_TRUE(with_cuts->placement == without_cuts->placement);
  EXPECT_TRUE(with_cuts->placement == warm->placement);
}

TEST(IlpMapper, IncumbentAtTheLoadBoundIsOptimalAtTheNodeLimit) {
  // Without a warm start the tree finds w = 40 within 20 nodes but needs
  // more to close the gap; the load bound proves it.
  const auto g = two_concurrent_mixes();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(7, 7));
  IlpMapperOptions options;
  options.max_nodes = 20;
  const auto outcome = map_ilp(problem, options);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->nodes, 20);
  EXPECT_EQ(outcome->max_pump_load, kPumpActuationsPerMix);
  EXPECT_EQ(outcome->status, ilp::MilpStatus::kOptimal);
  EXPECT_EQ(outcome->best_bound, kPumpActuationsPerMix);
}

// mixing_tree p1 on 10x10 has a warm start above the load bound and a
// root LP that runs for seconds.
TEST(IlpMapper, TimeLimitCoversTheRootLp) {
  const auto p = benchmark_problem("mixing_tree", 1, 10);
  const auto warm = map_heuristic(*p->problem);
  ASSERT_TRUE(warm.has_value());
  IlpMapperOptions options;
  options.warm_start = warm->placement;
  options.time_limit_seconds = 0.3;
  const auto start = std::chrono::steady_clock::now();
  const auto outcome = map_ilp(*p->problem, options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status, ilp::MilpStatus::kFeasible);
  EXPECT_TRUE(outcome->placement == warm->placement);
  EXPECT_LT(seconds, 1.0);
}

TEST(IlpMapper, CancelStopsTheRootLp) {
  const auto p = benchmark_problem("mixing_tree", 1, 10);
  const auto warm = map_heuristic(*p->problem);
  ASSERT_TRUE(warm.has_value());
  CancelSource source;
  IlpMapperOptions options;
  options.warm_start = warm->placement;
  options.cancel = source.token();
  const auto start = std::chrono::steady_clock::now();
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    source.cancel();
  });
  const auto outcome = map_ilp(*p->problem, options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  canceller.join();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status, ilp::MilpStatus::kFeasible);
  EXPECT_TRUE(outcome->placement == warm->placement);
  EXPECT_LT(seconds, 1.0);
}

TEST(IlpMapper, InfeasibleWhenChipCannotHoldConcurrentDevices) {
  // Two concurrent volume-10 devices need more than a 5x5 matrix once the
  // wall gap and port cells are excluded.
  SequencingGraph g("no-fit");
  std::vector<OpId> in;
  for (int i = 0; i < 4; ++i) in.push_back(g.add_operation(input_op("i" + std::to_string(i))));
  g.add_operation(mix_op("a", {in[0], in[1]}, 10, 6));
  g.add_operation(mix_op("b", {in[2], in[3]}, 10, 6));
  g.validate();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(5, 5));
  IlpMapperOptions options;
  options.time_limit_seconds = 30.0;
  EXPECT_FALSE(map_ilp(problem, options).has_value());
}

}  // namespace
}  // namespace fsyn::synth
