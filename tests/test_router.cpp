// Tests for the router: path legality, storage pass-through with the
// free-space rule, rip-up & re-route, congestion avoidance, decisions pinned
// across versions, and the independent routing validator.
#include <gtest/gtest.h>

#include <cstdint>

#include "assay/benchmarks.hpp"
#include "route/port_assignment.hpp"
#include "route/router.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/heuristic_mapper.hpp"

namespace fsyn::route {
namespace {

using arch::DeviceInstance;
using arch::DeviceType;
using assay::OpId;
using assay::OpKind;
using assay::Operation;
using assay::SequencingGraph;
using synth::MappingProblem;
using synth::Placement;

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

struct Chain {
  SequencingGraph graph{"chain"};
  OpId a, b;

  Chain() {
    const OpId i1 = graph.add_operation(input_op("i1"));
    const OpId i2 = graph.add_operation(input_op("i2"));
    a = graph.add_operation(mix_op("a", {i1, i2}, 8, 6));
    b = graph.add_operation(mix_op("b", {a}, 8, 6));
    graph.validate();
  }
};

TEST(Router, RoutesFillsTransfersAndDrains) {
  Chain fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(10, 10));
  const auto mapping = synth::map_heuristic(problem);
  ASSERT_TRUE(mapping.has_value());

  const RoutingResult routing = route_all(problem, mapping->placement);
  ASSERT_TRUE(routing.success);
  validate_routing(problem, mapping->placement, routing);

  int fills = 0, transfers = 0, drains = 0;
  for (const RoutedPath& path : routing.paths) {
    switch (path.kind) {
      case TransportKind::kFill: ++fills; break;
      case TransportKind::kTransfer: ++transfers; break;
      case TransportKind::kDrain: ++drains; break;
    }
  }
  EXPECT_EQ(fills, 2);      // i1, i2 -> a
  EXPECT_EQ(transfers, 1);  // a -> b
  EXPECT_EQ(drains, 1);     // b -> out
}

TEST(Router, PathsAreSortedChronologically) {
  Chain fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(10, 10));
  const auto mapping = synth::map_heuristic(problem);
  ASSERT_TRUE(mapping.has_value());
  const RoutingResult routing = route_all(problem, mapping->placement);
  ASSERT_TRUE(routing.success);
  for (std::size_t i = 1; i < routing.paths.size(); ++i) {
    EXPECT_LE(routing.paths[i - 1].time, routing.paths[i].time);
  }
}

TEST(Router, TransferTimeIsProductArrival) {
  Chain fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(10, 10));
  const auto mapping = synth::map_heuristic(problem);
  ASSERT_TRUE(mapping.has_value());
  const RoutingResult routing = route_all(problem, mapping->placement);
  ASSERT_TRUE(routing.success);
  for (const RoutedPath& path : routing.paths) {
    if (path.kind != TransportKind::kTransfer) continue;
    EXPECT_EQ(path.time, schedule.arrival_from(fx.a));
  }
}

TEST(Router, OverlappingStorageGivesTrivialTransfer) {
  // Place b's storage overlapping a's device: the product transfer should
  // degenerate to a single shared cell (Fig. 7: sc becomes dc in place).
  Chain fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(10, 10));
  Placement placement(2, DeviceInstance{DeviceType{2, 4}, Point{0, 0}});
  placement[static_cast<std::size_t>(problem.task_of(fx.a))] = {DeviceType{2, 4}, Point{2, 2}};
  placement[static_cast<std::size_t>(problem.task_of(fx.b))] = {DeviceType{2, 4}, Point{2, 2}};
  problem.validate_placement(placement);
  const RoutingResult routing = route_all(problem, placement);
  ASSERT_TRUE(routing.success);
  for (const RoutedPath& path : routing.paths) {
    if (path.kind == TransportKind::kTransfer) EXPECT_EQ(path.length(), 1);
  }
}

TEST(Router, AllBenchmarksRouteAfterMapping) {
  for (const auto& name : assay::benchmark_names()) {
    const auto g = assay::make_benchmark(name);
    const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 1));
    const int side = arch::Architecture::sized_for(g, schedule, 1.0).width();
    auto problem = MappingProblem::build(g, schedule, arch::Architecture(side, side));
    synth::HeuristicOptions options;
    options.sa_iterations = 4000;
    const auto mapping = synth::map_heuristic(problem, options);
    ASSERT_TRUE(mapping.has_value()) << name;
    const RoutingResult routing = route_all(problem, mapping->placement);
    ASSERT_TRUE(routing.success) << name << ": " << routing.failure;
    validate_routing(problem, mapping->placement, routing);
    EXPECT_GT(routing.total_cells, 0) << name;
  }
}

/// Hand-placed: while the transfer a -> b happens, s is a filling 3x3
/// storage (x has arrived, y has not) with room for the three cells the
/// path displaces, so only the interior rule can reject a straight path
/// through s's centre cell.
void expect_storage_interior_rejected() {
  SequencingGraph g("interior");
  std::vector<OpId> in;
  for (int i = 0; i < 7; ++i) in.push_back(g.add_operation(input_op("i" + std::to_string(i))));
  const OpId a = g.add_operation(mix_op("a", {in[0], in[1]}, 8, 6));
  const OpId b = g.add_operation(mix_op("b", {a, in[2]}, 8, 6));
  const OpId x = g.add_operation(mix_op("x", {in[3], in[4]}, 8, 2));
  const OpId y = g.add_operation(mix_op("y", {in[5], in[6]}, 8, 20));
  const OpId s = g.add_operation(mix_op("s", {x, y}, 8, 4));
  g.validate();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(12, 12));
  problem.set_routing_convenient(false);
  const auto task = [&](OpId op) { return static_cast<std::size_t>(problem.task_of(op)); };
  Placement placement(5, DeviceInstance{DeviceType{2, 4}, Point{0, 0}});
  placement[task(a)] = {DeviceType{2, 4}, Point{0, 0}};
  placement[task(s)] = {DeviceType{3, 3}, Point{3, 0}};
  placement[task(b)] = {DeviceType{2, 4}, Point{7, 0}};
  placement[task(x)] = {DeviceType{2, 4}, Point{3, 5}};
  placement[task(y)] = {DeviceType{2, 4}, Point{7, 6}};
  problem.validate_placement(placement);

  RoutedPath path;
  path.kind = TransportKind::kTransfer;
  path.task = problem.task_of(b);
  path.source_task = problem.task_of(a);
  path.time = schedule.arrival_from(a);
  path.label = "transfer a -> b";
  for (int cx = 1; cx <= 7; ++cx) path.cells.push_back(Point{cx, 1});
  const synth::MappingTask& storage = problem.task(problem.task_of(s));
  ASSERT_TRUE(path.time >= storage.storage_from && path.time < storage.start);
  ASSERT_GE(storage.volume - problem.storage_occupied_before(problem.task_of(s), path.time), 3);

  RoutingResult routing;
  routing.success = true;
  routing.paths.push_back(path);
  try {
    validate_routing(problem, placement, routing);
    ADD_FAILURE() << "a path through the interior of storage s was accepted";
  } catch (const LogicError& e) {
    EXPECT_NE(std::string(e.what()).find("interior of storage 's': transfer a -> b"),
              std::string::npos)
        << e.what();
  }

  // Along s's bottom ring row instead, the same transfer is legal.
  routing.paths.front().cells = {Point{1, 0}, Point{2, 0}, Point{3, 0}, Point{4, 0},
                                 Point{5, 0}, Point{6, 0}, Point{7, 0}};
  EXPECT_NO_THROW(validate_routing(problem, placement, routing));
}

TEST(Router, ValidatorRejectsCorruptedPaths) {
  Chain fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(10, 10));
  const auto mapping = synth::map_heuristic(problem);
  ASSERT_TRUE(mapping.has_value());
  RoutingResult routing = route_all(problem, mapping->placement);
  ASSERT_TRUE(routing.success);

  {
    RoutingResult broken = routing;
    // Disconnect the first multi-cell path.
    for (RoutedPath& path : broken.paths) {
      if (path.cells.size() >= 3) {
        path.cells.erase(path.cells.begin() + 1);
        break;
      }
    }
    EXPECT_THROW(validate_routing(problem, mapping->placement, broken), LogicError);
  }
  {
    RoutingResult broken = routing;
    broken.paths.front().cells = {Point{-1, 0}};
    EXPECT_THROW(validate_routing(problem, mapping->placement, broken), LogicError);
  }
  {
    RoutingResult failed;
    failed.success = false;
    EXPECT_THROW(validate_routing(problem, mapping->placement, failed), LogicError);
  }
  {
    SCOPED_TRACE("storage interior");
    expect_storage_interior_rejected();
  }
}

TEST(Router, OutOfRangePortIndexIsAUserError) {
  Chain fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(10, 10));
  const auto mapping = synth::map_heuristic(problem);
  ASSERT_TRUE(mapping.has_value());
  RouterOptions options;
  options.port_of_fluid["i1"] = 99;
  EXPECT_THROW(route_all(problem, mapping->placement, options), Error);
  options.port_of_fluid["i1"] = -1;
  EXPECT_THROW(route_all(problem, mapping->placement, options), Error);
  options.port_of_fluid["i1"] = 0;
  EXPECT_TRUE(route_all(problem, mapping->placement, options).success);
}

/// FNV-1a over every path's kind, tasks, time and cells, in routing order.
std::uint64_t paths_digest(const RoutingResult& routing) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&](long value) {
    hash ^= static_cast<std::uint64_t>(value);
    hash *= 1099511628211ULL;
  };
  for (const RoutedPath& path : routing.paths) {
    mix(static_cast<int>(path.kind));
    mix(path.task);
    mix(path.source_task);
    mix(path.time);
    for (const Point& cell : path.cells) {
      mix(cell.x);
      mix(cell.y);
    }
  }
  return hash;
}

TEST(Router, DecisionsArePinnedAcrossVersions) {
  // A change meant only to make the router faster must reproduce every
  // routed cell, so these stay exact: the digest covers each path's cells
  // in order.  The cases are a heavy-routing Table-1 row, a tight chip with
  // rip-ups (with and without the congestion penalty), and dead valves
  // with fills pinned to their assigned ports.
  struct Pin {
    const char* assay;
    int increments;
    int side;  ///< 0: sized_for(..., 1.0)
    bool dead_valves_and_pinned_ports;
    double congestion_penalty;
    std::size_t paths;
    int total_cells;
    int rip_ups;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"exponential_dilution", 3, 0, false, 8.0, 103, 1642, 0, 0xba7f6a8f8f709461ULL},
      {"mixing_tree", 2, 13, false, 8.0, 37, 211, 2, 0x7cd05876e95a09adULL},
      {"mixing_tree", 2, 13, false, 0.0, 37, 203, 2, 0x16d767f0d5da22eeULL},
      {"pcr", 0, 12, true, 8.0, 15, 155, 1, 0x2701a2500a9647e4ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.assay) + " penalty " + std::to_string(pin.congestion_penalty));
    const auto g = assay::make_benchmark(pin.assay);
    const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, pin.increments));
    const int side =
        pin.side > 0 ? pin.side : arch::Architecture::sized_for(g, schedule, 1.0).width();
    auto problem = MappingProblem::build(g, schedule, arch::Architecture(side, side));
    if (pin.dead_valves_and_pinned_ports) {
      problem.set_dead_valves({Point{6, 6}, Point{1, 10}, Point{10, 2}});
    }
    synth::HeuristicOptions mapper;
    mapper.sa_iterations = 3000;
    const auto mapping = synth::map_heuristic(problem, mapper);
    ASSERT_TRUE(mapping.has_value());

    RouterOptions options;
    options.congestion_penalty = pin.congestion_penalty;
    if (pin.dead_valves_and_pinned_ports) {
      options.port_of_fluid = assign_ports(problem, mapping->placement).port_of_fluid;
    }
    const RoutingResult routing = route_all(problem, mapping->placement, options);
    ASSERT_TRUE(routing.success) << routing.failure;
    validate_routing(problem, mapping->placement, routing);
    EXPECT_EQ(routing.paths.size(), pin.paths);
    EXPECT_EQ(routing.total_cells, pin.total_cells);
    EXPECT_EQ(routing.rip_ups, pin.rip_ups);
    EXPECT_EQ(paths_digest(routing), pin.digest);
  }
}

TEST(Router, CongestionPenaltyDiscouragesSharedCellsAtSameTime) {
  // Two concurrent fills from the same ports: with a strong penalty the
  // two paths should overlap less than with none.
  SequencingGraph g("parallel");
  std::vector<OpId> in;
  for (int i = 0; i < 4; ++i) in.push_back(g.add_operation(input_op("i" + std::to_string(i))));
  g.add_operation(mix_op("a", {in[0], in[1]}, 8, 6));
  g.add_operation(mix_op("b", {in[2], in[3]}, 8, 6));
  g.validate();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(12, 12));
  const auto mapping = synth::map_heuristic(problem);
  ASSERT_TRUE(mapping.has_value());

  auto shared_cells = [&](const RoutingResult& routing) {
    int shared = 0;
    for (std::size_t i = 0; i < routing.paths.size(); ++i) {
      for (std::size_t j = i + 1; j < routing.paths.size(); ++j) {
        const auto& pa = routing.paths[i];
        const auto& pb = routing.paths[j];
        if (pa.time != pb.time) continue;
        for (const Point& cell : pa.cells) {
          shared += std::count(pb.cells.begin(), pb.cells.end(), cell);
        }
      }
    }
    return shared;
  };

  RouterOptions none;
  none.congestion_penalty = 0.0;
  RouterOptions strong;
  strong.congestion_penalty = 50.0;
  const RoutingResult loose = route_all(problem, mapping->placement, none);
  const RoutingResult tight = route_all(problem, mapping->placement, strong);
  ASSERT_TRUE(loose.success);
  ASSERT_TRUE(tight.success);
  EXPECT_LE(shared_cells(tight), shared_cells(loose));
}

}  // namespace
}  // namespace fsyn::route
