// Tests for the mapping-problem semantics: task timelines, pair
// feasibility (non-overlap, storage overlap, routing convenience), the
// free-space rule, load accounting in both settings, candidate
// enumeration, and the per-task partner lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <tuple>

#include "assay/benchmarks.hpp"
#include "assay/random_assay.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/mapping_problem.hpp"
#include "util/error.hpp"

namespace fsyn::synth {
namespace {

using arch::DeviceInstance;
using arch::DeviceType;
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
                 int duration, std::vector<int> ratio = {}) {
  Operation op;
  op.kind = OpKind::kMix;
  op.name = name;
  op.parents = std::move(parents);
  op.volume = volume;
  op.duration = duration;
  op.ratio = std::move(ratio);
  return op;
}

/// Two leaf mixes feeding a third (the smallest interesting problem).
struct Fixture {
  SequencingGraph graph{"fixture"};
  OpId a, b, c;

  Fixture() {
    const OpId i1 = graph.add_operation(input_op("i1"));
    const OpId i2 = graph.add_operation(input_op("i2"));
    const OpId i3 = graph.add_operation(input_op("i3"));
    const OpId i4 = graph.add_operation(input_op("i4"));
    a = graph.add_operation(mix_op("a", {i1, i2}, 8, 6));
    b = graph.add_operation(mix_op("b", {i3, i4}, 8, 9));
    c = graph.add_operation(mix_op("c", {a, b}, 8, 5));
    graph.validate();
  }
};

TEST(MappingProblem, TaskTimeline) {
  Fixture fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(10, 10));
  ASSERT_EQ(problem.task_count(), 3);

  const MappingTask& ta = problem.task(problem.task_of(fx.a));
  const MappingTask& tc = problem.task(problem.task_of(fx.c));
  // a: starts at 0, ends 6, product leaves by 9.
  EXPECT_EQ(ta.start, 0);
  EXPECT_EQ(ta.release, 9);
  EXPECT_FALSE(ta.has_storage_phase());  // inputs need no storage
  // c: a's product arrives at 9, b ends at 9, so c starts at 12 and its
  // storage window is [9, 12).
  EXPECT_EQ(tc.storage_from, 9);
  EXPECT_EQ(tc.start, 12);
  EXPECT_TRUE(tc.has_storage_phase());
  EXPECT_EQ(tc.occupancy_begin(), 9);
}

TEST(MappingProblem, ParentChildAndCoParents) {
  Fixture fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(10, 10));
  const int ia = problem.task_of(fx.a), ib = problem.task_of(fx.b), ic = problem.task_of(fx.c);
  EXPECT_TRUE(problem.parent_child(ia, ic));
  EXPECT_TRUE(problem.parent_child(ic, ib));
  EXPECT_FALSE(problem.parent_child(ia, ib));
  EXPECT_TRUE(problem.co_parents(ia, ib));
  EXPECT_FALSE(problem.co_parents(ia, ic));
}

TEST(MappingProblem, ConcurrentUnrelatedTasksNeedAWallGap) {
  Fixture fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(12, 12));
  const int ia = problem.task_of(fx.a), ib = problem.task_of(fx.b);
  const DeviceInstance da{DeviceType{2, 4}, Point{0, 0}};
  EXPECT_FALSE(problem.pair_feasible(ia, da, ib, DeviceInstance{DeviceType{2, 4}, Point{1, 0}}));
  EXPECT_FALSE(problem.pair_feasible(ia, da, ib, DeviceInstance{DeviceType{2, 4}, Point{2, 0}}));
  EXPECT_TRUE(problem.pair_feasible(ia, da, ib, DeviceInstance{DeviceType{2, 4}, Point{3, 0}}));
}

TEST(MappingProblem, RoutingConvenienceBoundsParentChildDistance) {
  Fixture fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(14, 14));
  const int ia = problem.task_of(fx.a), ic = problem.task_of(fx.c);
  EXPECT_EQ(problem.routing_distance(), 2);
  const DeviceInstance da{DeviceType{2, 4}, Point{0, 0}};
  // gap 2 is allowed, gap 3 is not (d = 2).
  EXPECT_TRUE(problem.pair_feasible(ia, da, ic, DeviceInstance{DeviceType{2, 4}, Point{4, 0}}));
  EXPECT_FALSE(problem.pair_feasible(ia, da, ic, DeviceInstance{DeviceType{2, 4}, Point{5, 0}}));
  // Disabling routing convenience lifts the bound.
  problem.set_routing_convenient(false);
  EXPECT_TRUE(problem.pair_feasible(ia, da, ic, DeviceInstance{DeviceType{2, 4}, Point{9, 0}}));
}

TEST(MappingProblem, StorageMayOverlapParentWithinFreeSpace) {
  Fixture fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(12, 12));
  const int ib = problem.task_of(fx.b), ic = problem.task_of(fx.c);

  // c's storage opens at 9 with a's product inside (4 of 8 cells, equal
  // parts).  While b is live (release 12 > 9), overlapping c's ring by up
  // to 4 cells is legal.
  EXPECT_EQ(problem.storage_occupied_before(ic, problem.task(ib).release), 4);

  const DeviceInstance db{DeviceType{2, 4}, Point{0, 0}};
  // c fully on top of b: ring overlap = 8 cells > 4 free.
  const DeviceInstance dc_heavy{DeviceType{2, 4}, Point{0, 0}};
  EXPECT_FALSE(problem.storage_overlap_fits(ib, db, ic, dc_heavy));
  EXPECT_FALSE(problem.pair_feasible(ib, db, ic, dc_heavy));
  // c as 4x2 overlapping only b's 2x2 lower corner: 4 cells <= 4 free.
  const DeviceInstance dc_light{DeviceType{4, 2}, Point{0, 0}};
  EXPECT_TRUE(problem.storage_overlap_fits(ib, db, ic, dc_light));
  EXPECT_TRUE(problem.pair_feasible(ib, db, ic, dc_light));
}

TEST(MappingProblem, ForbiddingStorageOverlapTurnsPairStrict) {
  Fixture fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(12, 12));
  const int ib = problem.task_of(fx.b), ic = problem.task_of(fx.c);
  const DeviceInstance db{DeviceType{2, 4}, Point{0, 0}};
  const DeviceInstance dc{DeviceType{4, 2}, Point{0, 0}};
  ASSERT_TRUE(problem.pair_feasible(ib, db, ic, dc));
  problem.forbid_storage_overlap(ib, ic);
  EXPECT_TRUE(problem.storage_overlap_forbidden(ic, ib));  // order-insensitive
  EXPECT_FALSE(problem.pair_feasible(ib, db, ic, dc));
  // Globally disabling the relaxation has the same effect.
  auto strict = MappingProblem::build(fx.graph, schedule, arch::Architecture(12, 12));
  strict.set_allow_storage_overlap(false);
  EXPECT_FALSE(strict.pair_feasible(ib, db, ic, dc));
}

TEST(MappingProblem, RatioWeightsStorageOccupancy) {
  // A 1:3 mix: the early parent contributes only 1/4 of the volume.
  SequencingGraph g("ratio");
  const OpId i1 = g.add_operation(input_op("i1"));
  const OpId i2 = g.add_operation(input_op("i2"));
  const OpId i3 = g.add_operation(input_op("i3"));
  const OpId i4 = g.add_operation(input_op("i4"));
  const OpId a = g.add_operation(mix_op("a", {i1, i2}, 8, 3));
  const OpId b = g.add_operation(mix_op("b", {i3, i4}, 8, 9));
  g.add_operation(mix_op("c", {a, b}, 8, 5, {1, 3}));
  g.validate();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(12, 12));
  const int ib = problem.task_of(b);
  const int ic = problem.task_of(g.op(OpId{6}).id);
  // a contributes ceil(8 * 1/4) = 2 cells; 6 cells remain free while b runs.
  EXPECT_EQ(problem.storage_occupied_before(ic, problem.task(ib).release), 2);
}

/// The free-space rule by its definition, cell by cell: the child ring's
/// cells inside the parent footprint against the child storage's free
/// volume.
bool storage_overlap_fits_by_ring(const MappingProblem& problem, int parent,
                                  const DeviceInstance& dp, int child,
                                  const DeviceInstance& dc) {
  const Rect parent_footprint = dp.footprint();
  int blocked = 0;
  for (const Point& cell : dc.pump_cells()) {
    if (parent_footprint.contains(cell)) ++blocked;
  }
  if (blocked == 0) return true;
  const int occupied = problem.storage_occupied_before(child, problem.task(parent).release);
  return blocked <= problem.task(child).volume - occupied;
}

TEST(MappingProblem, StorageOverlapFitsMatchesRingCellCount) {
  // Every pair of footprints up to 6x6, the child at every offset of a
  // 12x12 window around the parent, for one parent/child pair of each free
  // volume in each parent order (the earlier task as parent, and the
  // reverse).
  const auto g = assay::make_interpolating_dilution();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 1));
  const auto problem = MappingProblem::build(g, schedule, arch::Architecture(14, 14));
  std::vector<std::pair<int, bool>> seen;  // (free volume, a starts first)
  int checked = 0, failing = 0;
  for (int a = 0; a < problem.task_count(); ++a) {
    for (const int b : problem.conflict_partners(a)) {
      if (!problem.parent_child(a, b)) continue;
      const std::pair<int, bool> key{
          problem.task(b).volume - problem.storage_occupied_before(b, problem.task(a).release),
          problem.task(a).start <= problem.task(b).start};
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      SCOPED_TRACE("parent " + problem.task(a).name + ", child " + problem.task(b).name);
      for (int pw = 1; pw <= 6; ++pw) {
        for (int ph = 1; ph <= 6; ++ph) {
          const DeviceInstance dp{DeviceType{pw, ph}, Point{6, 6}};
          for (int cw = 1; cw <= 6; ++cw) {
            for (int ch = 1; ch <= 6; ++ch) {
              for (int y = 0; y < 12; ++y) {
                for (int x = 0; x < 12; ++x) {
                  const DeviceInstance dc{DeviceType{cw, ch}, Point{x, y}};
                  const bool expected = storage_overlap_fits_by_ring(problem, a, dp, b, dc);
                  ++checked;
                  failing += expected ? 0 : 1;
                  if (problem.storage_overlap_fits(a, dp, b, dc) != expected) {
                    ADD_FAILURE() << "parent " << dp.footprint() << ", child " << dc.footprint();
                    return;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GE(seen.size(), 4u);
  EXPECT_GT(failing, 0);
  EXPECT_GT(checked - failing, 0);
}

/// The first placed conflict partner, in ascending order, that makes `d`
/// illegal for task a, or -1: what the conflict map must hold.
int first_blocking_partner(const MappingProblem& problem, int a, const DeviceInstance& d,
                           const Placement& placement, const std::vector<char>& placed) {
  for (const int b : problem.conflict_partners(a)) {
    const auto ub = static_cast<std::size_t>(b);
    if (placed[ub] && !problem.pair_feasible(a, d, b, placement[ub])) return b;
  }
  return -1;
}

/// Checks mark_conflicts against pair_feasible for every origin of every
/// task, with the other tasks at random candidates and a random subset of
/// them placed.  Returns the number of origins blocked.
int expect_conflict_map_exact(const MappingProblem& problem, Rng& rng, int rounds) {
  const int n = problem.task_count();
  int blocked = 0;
  for (int round = 0; round < rounds; ++round) {
    Placement placement;
    std::vector<char> placed;
    for (int i = 0; i < n; ++i) {
      const auto pool = problem.candidates(i);
      placement.push_back(pool[rng.next_below(pool.size())]);
      placed.push_back(rng.next_below(4) != 0 ? 1 : 0);
    }
    for (int a = 0; a < n; ++a) {
      std::vector<int> grid(static_cast<std::size_t>(problem.origin_grid_size(a)), -1);
      const auto partners = problem.conflict_partners(a);
      for (auto b = partners.rbegin(); b != partners.rend(); ++b) {
        const auto ub = static_cast<std::size_t>(*b);
        if (placed[ub]) problem.mark_conflicts(a, *b, placement[ub], grid);
      }
      // Every origin of every type, including those covering a port or a
      // dead valve: the grid is dense, the candidates a subset of it.
      std::vector<char> seen(grid.size(), 0);
      for (const DeviceType& type : problem.task(a).types) {
        for (const Point& origin : problem.chip().placements_for(type)) {
          const DeviceInstance d{type, origin};
          const auto cell = static_cast<std::size_t>(problem.origin_cell(a, d));
          if (cell >= grid.size() || seen[cell]) {
            ADD_FAILURE() << "origin cell " << cell << " of " << d.footprint();
            return blocked;
          }
          seen[cell] = 1;
          const int expected = first_blocking_partner(problem, a, d, placement, placed);
          blocked += expected >= 0 ? 1 : 0;
          if (grid[cell] != expected) {
            ADD_FAILURE() << "task " << a << " at " << d.footprint() << ": map says "
                          << grid[cell] << ", pair_feasible says " << expected;
            return blocked;
          }
        }
      }
      EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<long>(grid.size()));
    }
  }
  return blocked;
}

TEST(MappingProblem, ConflictMapMatchesPairFeasible) {
  struct Case {
    assay::SequencingGraph graph;
    sched::Schedule schedule;
    int side;
  };
  std::vector<std::unique_ptr<Case>> cases;
  const auto add = [&](assay::SequencingGraph graph, int increments, int side) {
    auto c = std::make_unique<Case>(Case{std::move(graph), {}, side});
    c->schedule = sched::schedule_with_policy(c->graph, sched::make_policy(c->graph, increments));
    cases.push_back(std::move(c));
  };
  add(assay::make_pcr(), 0, 8);
  add(assay::make_benchmark("mixing_tree"), 1, 10);
  add(assay::make_interpolating_dilution(), 0, 13);
  add(assay::make_benchmark("exponential_dilution"), 2, 12);
  Rng graph_rng(5);
  for (int mixes : {8, 14}) {
    assay::RandomAssayOptions options;
    options.mixing_ops = mixes;
    add(assay::make_random_assay(graph_rng, options), mixes % 3, 11);
  }

  Rng rng(2015);
  int forbidding_cases = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c->graph.name());
    for (int config = 0; config < 5; ++config) {
      SCOPED_TRACE("config " + std::to_string(config));
      auto problem = MappingProblem::build(c->graph, c->schedule,
                                           arch::Architecture(c->side, c->side));
      if (config == 1) problem.set_routing_convenient(false);
      if (config == 2) problem.set_allow_storage_overlap(false);
      if (config == 3) {
        // Every other time-overlapping parent/child pair.
        bool forbid = true;
        for (int a = 0; a < problem.task_count(); ++a) {
          for (const int b : problem.conflict_partners(a)) {
            if (b < a || !problem.parent_child(a, b) || !problem.time_overlap(a, b)) continue;
            if (forbid) problem.forbid_storage_overlap(a, b);
            forbid = !forbid;
          }
        }
        forbidding_cases += problem.forbidden_pair_count() > 0 ? 1 : 0;
      }
      if (config == 4) {
        problem.set_dead_valves({Point{2, 3}, Point{c->side / 2, c->side / 2},
                                 Point{c->side - 3, c->side - 2}});
      }
      EXPECT_GT(expect_conflict_map_exact(problem, rng, 3), 0);
    }
  }
  // Some assays (exponential dilution) have no time-overlapping
  // parent/child pair to forbid.
  EXPECT_GE(forbidding_cases, 3);
}

TEST(MappingProblem, ConflictMapIsExactAtEveryPartnerPosition) {
  // Every position of every conflict partner, on a crafted assay whose
  // storages are nearly full: c's early parent a brings 6 of 8 cells
  // (ratio 3:1), so 2 stay free while b is live and a 3-cell overlap at
  // the edge of the overlap box already breaks the free-space rule.
  SequencingGraph g("edges");
  std::vector<OpId> in;
  for (const char* name : {"i0", "i1", "i2", "i3", "i4"}) {
    in.push_back(g.add_operation(input_op(name)));
  }
  const OpId a = g.add_operation(mix_op("a", {in[0], in[1]}, 8, 3));
  const OpId b = g.add_operation(mix_op("b", {in[2], in[3]}, 8, 9));
  const OpId c = g.add_operation(mix_op("c", {a, b}, 8, 5, {3, 1}));
  g.add_operation(mix_op("d", {c, in[4]}, 12, 4, {1, 1}));
  g.validate();
  const auto schedule = sched::schedule_asap(g);
  for (int config = 0; config < 3; ++config) {
    SCOPED_TRACE("config " + std::to_string(config));
    auto problem = MappingProblem::build(g, schedule, arch::Architecture(11, 11));
    ASSERT_EQ(problem.storage_occupied_before(problem.task_of(c),
                                              problem.task(problem.task_of(b)).release),
              6);
    problem.set_routing_convenient(config != 1);
    problem.set_allow_storage_overlap(config != 2);
    for (int ta = 0; ta < problem.task_count(); ++ta) {
      std::vector<int> grid(static_cast<std::size_t>(problem.origin_grid_size(ta)));
      for (const int tb : problem.conflict_partners(ta)) {
        for (const DeviceInstance& db : problem.candidates(tb)) {
          std::fill(grid.begin(), grid.end(), -1);
          problem.mark_conflicts(ta, tb, db, grid);
          for (const DeviceType& type : problem.task(ta).types) {
            for (const Point& origin : problem.chip().placements_for(type)) {
              const DeviceInstance da{type, origin};
              const int expected = problem.pair_feasible(ta, da, tb, db) ? -1 : tb;
              if (grid[static_cast<std::size_t>(problem.origin_cell(ta, da))] != expected) {
                ADD_FAILURE() << "task " << ta << " at " << da.footprint() << " against task "
                              << tb << " at " << db.footprint();
                return;
              }
            }
          }
        }
      }
    }
  }
}

TEST(MappingProblem, TimeDisjointTasksShareAreaFreely) {
  // Sequential chain long enough that a and c's grandchild never coexist…
  // simpler: two mixes scheduled far apart via a long middle op.
  SequencingGraph g("disjoint");
  const OpId i1 = g.add_operation(input_op("i1"));
  const OpId i2 = g.add_operation(input_op("i2"));
  const OpId a = g.add_operation(mix_op("a", {i1, i2}, 8, 4));
  const OpId b = g.add_operation(mix_op("b", {a}, 8, 4));
  const OpId c = g.add_operation(mix_op("c", {b}, 8, 4));
  g.validate();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(10, 10));
  const int ia = problem.task_of(a), ic = problem.task_of(c);
  ASSERT_FALSE(problem.time_overlap(ia, ic));
  // Identical footprints are fine for time-disjoint unrelated tasks.
  const DeviceInstance d{DeviceType{2, 4}, Point{0, 0}};
  EXPECT_TRUE(problem.pair_feasible(ia, d, ic, d));
}

TEST(MappingProblem, PumpLoadsBothSettings) {
  Fixture fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(12, 12));
  Placement placement(3, DeviceInstance{DeviceType{2, 4}, Point{0, 0}});
  placement[static_cast<std::size_t>(problem.task_of(fx.a))] = {DeviceType{2, 4}, Point{0, 0}};
  placement[static_cast<std::size_t>(problem.task_of(fx.b))] = {DeviceType{2, 4}, Point{3, 0}};
  placement[static_cast<std::size_t>(problem.task_of(fx.c))] = {DeviceType{2, 4}, Point{0, 4}};
  problem.validate_placement(placement);

  // Setting 1: all rings disjoint -> max 40; conservation: 3 ops x 8 x 40.
  EXPECT_EQ(problem.max_pump_load(placement), kPumpActuationsPerMix);
  const auto loads = problem.pump_loads(placement);
  long sum = 0;
  for (const int v : loads) sum += v;
  EXPECT_EQ(sum, 3L * 8 * kPumpActuationsPerMix);

  // Setting 2: per-valve work is ceil(120/8) = 15.
  EXPECT_EQ(problem.max_pump_load_setting2(placement), 15);
}

TEST(MappingProblem, ValidatePlacementRejectsViolations) {
  Fixture fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(12, 12));
  Placement bad(3, DeviceInstance{DeviceType{2, 4}, Point{0, 0}});
  // a and b concurrent at the same location: the first violating pair is
  // named.
  try {
    problem.validate_placement(bad);
    ADD_FAILURE() << "overlapping concurrent devices accepted";
  } catch (const LogicError& e) {
    EXPECT_NE(std::string(e.what()).find("pair constraints: 'a' vs 'b'"), std::string::npos)
        << e.what();
  }
  // Wrong size vector.
  EXPECT_THROW(problem.validate_placement(Placement{}), LogicError);
  // Off-chip placement.
  Placement off(3, DeviceInstance{DeviceType{2, 4}, Point{0, 0}});
  off[1] = {DeviceType{2, 4}, Point{11, 11}};
  EXPECT_THROW(problem.validate_placement(off), LogicError);
}

TEST(MappingProblem, CandidatesExcludePortCells) {
  Fixture fx;
  const auto schedule = sched::schedule_asap(fx.graph);
  auto problem = MappingProblem::build(fx.graph, schedule, arch::Architecture(10, 10));
  for (int i = 0; i < problem.task_count(); ++i) {
    const auto candidates = problem.candidates(i);
    EXPECT_FALSE(candidates.empty());
    for (const DeviceInstance& c : candidates) {
      for (const arch::ChipPort& port : problem.chip().ports()) {
        EXPECT_FALSE(c.footprint().contains(port.cell))
            << "candidate covers port " << port.name;
      }
    }
  }
}

/// The candidate enumeration by its definition: each of the task's types
/// in order, times that type's origins, kept when placement_allowed.
std::vector<DeviceInstance> enumerate(const MappingProblem& problem, int task) {
  std::vector<DeviceInstance> out;
  for (const DeviceType& type : problem.task(task).types) {
    for (const Point& origin : problem.chip().placements_for(type)) {
      const DeviceInstance instance{type, origin};
      if (problem.placement_allowed(task, instance)) out.push_back(instance);
    }
  }
  return out;
}

TEST(MappingProblem, CandidateListsFollowTheEnumerationAndAreShared) {
  const auto g = assay::make_exponential_dilution();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(16, 16));
  const auto expect_lists = [&] {
    std::vector<const DeviceInstance*> distinct;
    for (int i = 0; i < problem.task_count(); ++i) {
      const std::span<const DeviceInstance> list = problem.candidates(i);
      const std::vector<DeviceInstance> expected = enumerate(problem, i);
      ASSERT_FALSE(expected.empty());
      EXPECT_TRUE(std::equal(list.begin(), list.end(), expected.begin(), expected.end()))
          << problem.task(i).name;
      for (int j = 0; j < i; ++j) {
        const bool same_types = problem.task(j).types == problem.task(i).types;
        EXPECT_EQ(problem.candidates(j).data() == list.data(), same_types)
            << problem.task(j).name << " vs " << problem.task(i).name;
      }
      if (std::find(distinct.begin(), distinct.end(), list.data()) == distinct.end()) {
        distinct.push_back(list.data());
      }
    }
    // 51 tasks of 4 volumes.
    EXPECT_EQ(distinct.size(), 4u);
  };
  expect_lists();
  std::vector<std::vector<DeviceInstance>> healthy;
  for (int i = 0; i < problem.task_count(); ++i) {
    healthy.emplace_back(problem.candidates(i).begin(), problem.candidates(i).end());
  }

  // Dead valves remove exactly the candidates covering one of them.
  const std::vector<Point> dead = {Point{3, 4}, Point{9, 9}, Point{15, 0}};
  problem.set_dead_valves(dead);
  expect_lists();
  for (int i = 0; i < problem.task_count(); ++i) {
    std::vector<DeviceInstance> expected;
    for (const DeviceInstance& d : healthy[static_cast<std::size_t>(i)]) {
      if (std::none_of(dead.begin(), dead.end(),
                       [&](const Point& p) { return d.footprint().contains(p); })) {
        expected.push_back(d);
      }
    }
    const std::span<const DeviceInstance> list = problem.candidates(i);
    EXPECT_LT(list.size(), healthy[static_cast<std::size_t>(i)].size());
    EXPECT_TRUE(std::equal(list.begin(), list.end(), expected.begin(), expected.end()))
        << problem.task(i).name;
  }
}

bool contains(std::span<const int> sorted, int value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

/// Checks both partner lists against their definitions (ascending, no
/// self, symmetric) and that every task pair outside the conflict lists is
/// legal at every two candidate positions.
void expect_partner_lists_sound(const MappingProblem& problem) {
  const int n = problem.task_count();
  for (int a = 0; a < n; ++a) {
    const auto conflict = problem.conflict_partners(a);
    const auto proximity = problem.proximity_partners(a);
    EXPECT_TRUE(std::adjacent_find(conflict.begin(), conflict.end(), std::greater_equal<>()) ==
                conflict.end());
    EXPECT_TRUE(std::adjacent_find(proximity.begin(), proximity.end(),
                                   std::greater_equal<>()) == proximity.end());
    for (int b = 0; b < n; ++b) {
      const bool parent_child = problem.parent_child(a, b);
      EXPECT_EQ(contains(conflict, b), b != a && (parent_child || problem.time_overlap(a, b)));
      EXPECT_EQ(contains(proximity, b), b != a && (parent_child || problem.co_parents(a, b)));
      EXPECT_EQ(contains(conflict, b), contains(problem.conflict_partners(b), a));
      EXPECT_EQ(contains(proximity, b), contains(problem.proximity_partners(b), a));
      if (b == a || contains(conflict, b)) continue;
      for (const DeviceInstance& da : problem.candidates(a)) {
        for (const DeviceInstance& db : problem.candidates(b)) {
          if (!problem.pair_feasible(a, da, b, db)) {
            ADD_FAILURE() << "tasks " << a << " and " << b
                          << " are not conflict partners but can clash";
            return;
          }
        }
      }
    }
  }
}

TEST(MappingProblem, PartnerListsAreSoundAscendingAndSymmetric) {
  const auto pcr = assay::make_pcr();
  const auto pcr_schedule = sched::schedule_asap(pcr);
  Rng rng(11);
  assay::RandomAssayOptions random_options;
  random_options.mixing_ops = 9;
  const auto random = assay::make_random_assay(rng, random_options);
  const auto random_schedule = sched::schedule_with_policy(random, sched::make_policy(random, 1));

  for (const auto& [graph, schedule, side] :
       {std::tuple{&pcr, &pcr_schedule, 8}, std::tuple{&random, &random_schedule, 10}}) {
    SCOPED_TRACE(graph->name());
    auto problem = MappingProblem::build(*graph, *schedule, arch::Architecture(side, side));
    expect_partner_lists_sound(problem);
    // The lists do not depend on the switches pair_feasible honours.
    problem.set_allow_storage_overlap(false);
    problem.set_routing_convenient(false);
    expect_partner_lists_sound(problem);
  }
}

TEST(MappingProblem, DetectTasksHaveNoPumpActuations) {
  const auto g = assay::make_interpolating_dilution();
  const auto schedule = sched::schedule_asap(g);
  auto problem = MappingProblem::build(g, schedule, arch::Architecture(20, 20));
  int detect_tasks = 0;
  for (const MappingTask& task : problem.tasks()) {
    if (!task.is_mix) {
      ++detect_tasks;
      EXPECT_EQ(task.pump_actuations, 0);
      EXPECT_EQ(task.volume, 4);
    } else {
      EXPECT_EQ(task.pump_actuations, kPumpActuationsPerMix);
    }
  }
  EXPECT_EQ(detect_tasks, 4);
}

}  // namespace
}  // namespace fsyn::synth
