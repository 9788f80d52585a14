// Tests for the fault-tolerance and port-assignment extensions, plus the
// additional protocol benchmarks.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "route/port_assignment.hpp"
#include "route/router.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/synthesis.hpp"
#include "util/rng.hpp"

namespace fsyn {
namespace {

// --------------------------------------------------------- fault tolerance

TEST(FaultTolerance, DeadValvesExcludedFromPlacements) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_asap(g);
  auto problem = synth::MappingProblem::build(g, schedule, arch::Architecture(12, 12));
  problem.set_dead_valves({Point{5, 5}, Point{6, 5}});
  EXPECT_TRUE(problem.is_dead(Point{5, 5}));
  EXPECT_FALSE(problem.is_dead(Point{4, 5}));
  for (int i = 0; i < problem.task_count(); ++i) {
    for (const auto& candidate : problem.candidates(i)) {
      EXPECT_FALSE(candidate.footprint().contains(Point{5, 5}));
      EXPECT_FALSE(candidate.footprint().contains(Point{6, 5}));
    }
  }
  EXPECT_THROW(problem.set_dead_valves({Point{99, 0}}), Error);
}

TEST(FaultTolerance, SynthesisAvoidsDeadValves) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_asap(g);
  synth::SynthesisOptions options;
  options.grid_size = 11;
  options.dead_valves = {Point{5, 5}, Point{5, 6}, Point{6, 5}};
  const auto result = synth::synthesize(g, schedule, options);
  for (const auto& device : result.placement) {
    for (const Point& dead : options.dead_valves) {
      EXPECT_FALSE(device.footprint().contains(dead));
    }
  }
  for (const auto& path : result.routing.paths) {
    for (const Point& cell : path.cells) {
      for (const Point& dead : options.dead_valves) {
        EXPECT_NE(cell, dead);
      }
    }
  }
}

TEST(FaultTolerance, DeadValvesRequireExplicitGrid) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_asap(g);
  synth::SynthesisOptions options;
  options.dead_valves = {Point{0, 0}};
  EXPECT_THROW(synth::synthesize(g, schedule, options), Error);
}

TEST(FaultTolerance, ChipWithDeadValvesNeverGrows) {
  // Dead-valve coordinates belong to one manufactured matrix: with a 6x6
  // block of them pcr does not fit the 8x8 chip, and synthesis must say so
  // instead of returning a design for a larger chip.
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  synth::SynthesisOptions options;
  options.grid_size = 8;
  for (int x = 2; x <= 7; ++x) {
    for (int y = 2; y <= 7; ++y) options.dead_valves.push_back(Point{x, y});
  }
  try {
    const auto result = synth::synthesize(g, schedule, options);
    ADD_FAILURE() << "synthesized on a " << result.chip_width << "x" << result.chip_height
                  << " chip";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dead valves cannot grow"), std::string::npos)
        << e.what();
  }
}

TEST(FaultTolerance, GracefulDegradationUnderRandomFailures) {
  // Re-synthesis survives a growing set of random dead valves (or refuses
  // cleanly); vs never collapses below the single-op bound.
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_asap(g);
  Rng rng(404);
  std::vector<Point> dead;
  int successes = 0;
  for (int wave = 0; wave < 6; ++wave) {
    dead.push_back(Point{rng.next_int(1, 10), rng.next_int(1, 10)});
    synth::SynthesisOptions options;
    options.grid_size = 12;
    options.dead_valves = dead;
    options.heuristic.sa_iterations = 2000;
    try {
      const auto result = synth::synthesize(g, schedule, options);
      ++successes;
      EXPECT_EQ(result.chip_width, 12);
      EXPECT_GE(result.vs1_pump, 40);
      EXPECT_LE(result.valve_count, 12 * 12 - static_cast<int>(dead.size()));
    } catch (const Error&) {
      // acceptable once failures crowd the matrix
    }
  }
  EXPECT_GE(successes, 3) << "a 12x12 matrix should tolerate several failures";
}

// --------------------------------------------------------- port assignment

std::unique_ptr<synth::MappingProblem> pcr_problem(const assay::SequencingGraph& g,
                                                   const sched::Schedule& s) {
  return std::make_unique<synth::MappingProblem>(
      synth::MappingProblem::build(g, s, arch::Architecture(11, 11)));
}

TEST(PortAssignment, CoversEveryFluidWithinCapacity) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_asap(g);
  auto problem = pcr_problem(g, schedule);
  const auto mapping = synth::map_heuristic(*problem);
  ASSERT_TRUE(mapping.has_value());

  const route::PortAssignment assignment = route::assign_ports(*problem, mapping->placement);
  EXPECT_EQ(assignment.status, ilp::MilpStatus::kOptimal);
  EXPECT_EQ(assignment.port_of_fluid.size(), 8u);  // PCR has 8 reagents
  // Balanced: 8 fluids over 2 input ports -> max 4 each.
  std::map<int, int> load;
  for (const auto& [fluid, port] : assignment.port_of_fluid) {
    EXPECT_GE(port, 0);
    EXPECT_LT(port, 2);
    ++load[port];
  }
  for (const auto& [port, count] : load) EXPECT_LE(count, 4);
}

TEST(PortAssignment, RouterHonoursThePinning) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_asap(g);
  auto problem = pcr_problem(g, schedule);
  const auto mapping = synth::map_heuristic(*problem);
  ASSERT_TRUE(mapping.has_value());
  const route::PortAssignment assignment = route::assign_ports(*problem, mapping->placement);

  route::RouterOptions options;
  options.port_of_fluid = assignment.port_of_fluid;
  const route::RoutingResult routing = route_all(*problem, mapping->placement, options);
  ASSERT_TRUE(routing.success);
  // Collect the input-port cells in input order.
  std::vector<Point> input_cells;
  for (const auto& port : problem->chip().ports()) {
    if (port.is_input) input_cells.push_back(port.cell);
  }
  for (const auto& path : routing.paths) {
    if (path.kind != route::TransportKind::kFill) continue;
    const std::string fluid = problem->graph().op(path.source_input).name;
    const int pinned = assignment.port_of_fluid.at(fluid);
    EXPECT_EQ(path.cells.front(), input_cells[static_cast<std::size_t>(pinned)])
        << path.label;
  }
}

TEST(PortAssignment, MatchesBruteForceOnTinyCase) {
  // 2 fluids, 2 ports: enumerate all 4 assignments and compare the MILP's
  // distance against the best balanced one.
  const auto g = assay::parse_assay(R"(
assay tiny
input i1
input i2
mix a volume 8 duration 6 from i1 i2
)");
  const auto schedule = sched::schedule_asap(g);
  auto problem = std::make_unique<synth::MappingProblem>(
      synth::MappingProblem::build(g, schedule, arch::Architecture(9, 9)));
  const auto mapping = synth::map_heuristic(*problem);
  ASSERT_TRUE(mapping.has_value());
  const route::PortAssignment assignment = route::assign_ports(*problem, mapping->placement);
  ASSERT_EQ(assignment.status, ilp::MilpStatus::kOptimal);

  // Recompute the cost table the same way the assigner does.
  std::vector<Point> ports;
  for (const auto& port : problem->chip().ports()) {
    if (port.is_input) ports.push_back(port.cell);
  }
  auto fill_cost = [&](const std::string& fluid, int port) {
    double total = 0.0;
    for (const auto& op : g.operations()) {
      if (op.kind != assay::OpKind::kInput || op.name != fluid) continue;
      for (const auto child : g.children(op.id)) {
        const auto ring =
            mapping->placement[static_cast<std::size_t>(problem->task_of(child))].pump_cells();
        int best = std::numeric_limits<int>::max();
        for (const Point& cell : ring) {
          best = std::min(best, manhattan_distance(ports[static_cast<std::size_t>(port)], cell));
        }
        total += best;
      }
    }
    return total;
  };
  double best = std::numeric_limits<double>::infinity();
  for (int p1 = 0; p1 < 2; ++p1) {
    for (int p2 = 0; p2 < 2; ++p2) {
      if (p1 == p2) continue;  // capacity 1 each under the balanced default
      best = std::min(best, fill_cost("i1", p1) + fill_cost("i2", p2));
    }
  }
  // Balanced capacity for 2 fluids / 2 ports is 1 each, so the MILP space
  // is exactly the enumeration above.
  EXPECT_NEAR(assignment.total_distance, best, 1e-9);
}

TEST(PortAssignment, CapacityOneIsInfeasibleForManyFluids) {
  const auto g = assay::make_pcr();  // 8 fluids, 2 input ports
  const auto schedule = sched::schedule_asap(g);
  auto problem = pcr_problem(g, schedule);
  const auto mapping = synth::map_heuristic(*problem);
  ASSERT_TRUE(mapping.has_value());
  route::PortAssignmentOptions options;
  options.capacity = 1;
  EXPECT_THROW(route::assign_ports(*problem, mapping->placement, options), Error);
}

// ------------------------------------------------------- extra benchmarks

TEST(ExtraBenchmarks, ProteinCountsAndStructure) {
  const auto g = assay::make_protein_assay();
  EXPECT_EQ(g.size(), 39);
  EXPECT_EQ(g.mixing_count(), 15);
  EXPECT_EQ(g.count(assay::OpKind::kDetect), 8);
  // All dilutions are exact 1:1.
  for (const auto& op : g.operations()) {
    if (op.kind == assay::OpKind::kMix && op.name.find("dlt") == 0) {
      EXPECT_EQ(op.ratio, (std::vector<int>{1, 1}));
    }
  }
}

TEST(ExtraBenchmarks, InvitroCountsAndStructure) {
  const auto g = assay::make_invitro();
  EXPECT_EQ(g.size(), 24);
  EXPECT_EQ(g.mixing_count(), 9);
  EXPECT_EQ(g.count(assay::OpKind::kDetect), 9);
  // Every sample feeds 3 mixes.
  for (const auto& op : g.operations()) {
    if (op.kind == assay::OpKind::kInput && op.name[0] == 'S') {
      EXPECT_EQ(g.children(op.id).size(), 3u);
    }
  }
}

TEST(ExtraBenchmarks, BothSynthesizeEndToEnd) {
  for (const char* name : {"protein", "invitro"}) {
    const auto g = assay::make_benchmark(name);
    const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 1));
    synth::SynthesisOptions options;
    options.heuristic.sa_iterations = 3000;
    options.chip_sweep = 1;
    const auto result = synth::synthesize(g, schedule, options);
    EXPECT_GE(result.vs1_pump, 40) << name;
    EXPECT_TRUE(result.routing.success) << name;
  }
}

TEST(ExtraBenchmarks, ExtendedRegistryIsSuperset) {
  const auto base = assay::benchmark_names();
  const auto extended = assay::extended_benchmark_names();
  EXPECT_EQ(extended.size(), base.size() + 2);
  for (const auto& name : extended) {
    EXPECT_NO_THROW(assay::make_benchmark(name).validate());
  }
}

}  // namespace
}  // namespace fsyn
