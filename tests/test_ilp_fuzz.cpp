// Randomized cross-check of the MILP solver against exhaustive enumeration.
//
// Small all-integer models (up to 6 variables with negative bounds, up to 10
// constraints including equalities) are solved four ways — warm-started
// best-first (the default), cold LPs, depth-first diving, and
// most-fractional branching — and every configuration must agree with the
// brute-force optimum.  A separate test drives LpSolver::resolve directly
// and compares each dual-simplex reoptimization against a cold solve of the
// same bound box.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ilp/branch_and_bound.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "obs/trace.hpp"
#include "svc/task_group.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fsyn::ilp {
namespace {

struct FuzzInstance {
  Model model;
  std::vector<int> lower, upper;  ///< integer bound box, model order
};

/// Random all-integer model.  Half the instances anchor all constraints on
/// a random integer point inside the box (guaranteed feasible); the rest
/// use fully random right-hand sides, so infeasible models are exercised
/// too.
FuzzInstance make_instance(std::uint64_t seed) {
  Rng rng(seed);
  FuzzInstance out;
  const int n = rng.next_int(2, 6);
  std::vector<int> anchor;
  for (int j = 0; j < n; ++j) {
    const int lo = rng.next_int(-3, 0);
    const int hi = rng.next_int(0, 4);
    out.lower.push_back(lo);
    out.upper.push_back(hi);
    out.model.add_integer(lo, hi);
    anchor.push_back(rng.next_int(lo, hi));
  }
  const bool anchored = rng.next_bool(0.5);
  const int rows = rng.next_int(1, 10);
  for (int i = 0; i < rows; ++i) {
    LinearExpr expr;
    double anchor_value = 0.0;
    int terms = 0;
    for (int j = 0; j < n; ++j) {
      if (!rng.next_bool(0.7)) continue;
      int coeff = rng.next_int(-4, 4);
      if (coeff == 0) coeff = 1;
      expr.add_term(VarId{j}, coeff);
      anchor_value += coeff * anchor[static_cast<std::size_t>(j)];
      ++terms;
    }
    if (terms == 0) {
      expr.add_term(VarId{0}, 1.0);
      anchor_value = anchor[0];
    }
    const int relation = rng.next_int(0, 2);
    if (relation == 0) {
      const double rhs = anchored ? anchor_value + rng.next_int(0, 4) : rng.next_int(-6, 10);
      out.model.add_constraint(expr, Relation::kLessEqual, rhs);
    } else if (relation == 1) {
      const double rhs = anchored ? anchor_value - rng.next_int(0, 4) : rng.next_int(-10, 6);
      out.model.add_constraint(expr, Relation::kGreaterEqual, rhs);
    } else {
      const double rhs = anchored ? anchor_value : rng.next_int(-4, 4);
      out.model.add_constraint(expr, Relation::kEqual, rhs);
    }
  }
  LinearExpr objective;
  for (int j = 0; j < n; ++j) {
    objective.add_term(VarId{j}, rng.next_int(-5, 5));
  }
  out.model.set_objective(objective, rng.next_bool(0.5) ? Sense::kMinimize : Sense::kMaximize);
  return out;
}

/// Brute force over every integer point in the bound box.
std::optional<double> enumerate_best(const FuzzInstance& instance) {
  const int n = instance.model.variable_count();
  std::vector<double> point(static_cast<std::size_t>(n));
  std::optional<double> best;
  const double sign = instance.model.objective_sign();
  std::vector<int> cursor(instance.lower.begin(), instance.lower.end());
  for (;;) {
    for (int j = 0; j < n; ++j) point[static_cast<std::size_t>(j)] = cursor[static_cast<std::size_t>(j)];
    if (instance.model.is_feasible(point)) {
      const double value = instance.model.objective_value(point);
      if (!best.has_value() || sign * value < sign * *best) best = value;
    }
    int j = 0;
    while (j < n && ++cursor[static_cast<std::size_t>(j)] > instance.upper[static_cast<std::size_t>(j)]) {
      cursor[static_cast<std::size_t>(j)] = instance.lower[static_cast<std::size_t>(j)];
      ++j;
    }
    if (j == n) break;
  }
  return best;
}

void check_config(const FuzzInstance& instance, const std::optional<double>& best,
                  const MilpOptions& options, const char* label) {
  const MilpResult result = solve_milp(instance.model, options);
  if (best.has_value()) {
    ASSERT_EQ(result.status, MilpStatus::kOptimal) << label;
    EXPECT_NEAR(result.objective, *best, 1e-6) << label;
    EXPECT_TRUE(instance.model.is_feasible(result.values)) << label;
  } else {
    EXPECT_EQ(result.status, MilpStatus::kInfeasible) << label;
  }
}

class MilpFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MilpFuzz, AllConfigurationsMatchEnumeration) {
  const FuzzInstance instance = make_instance(0xF002 + 977ULL * static_cast<std::uint64_t>(GetParam()));
  const std::optional<double> best = enumerate_best(instance);

  MilpOptions defaults;  // warm-started, best-first, pseudocosts
  check_config(instance, best, defaults, "default");

  MilpOptions cold = defaults;
  cold.lp_warm_start = false;
  check_config(instance, best, cold, "cold-lp");

  MilpOptions no_presolve = defaults;
  no_presolve.presolve = false;
  check_config(instance, best, no_presolve, "no-presolve");

  // Root cuts must never change the optimum, only the tree size: the
  // cuts-off run has to land on the same enumeration optimum as the
  // default (cuts-on) run above.
  MilpOptions no_cuts = defaults;
  no_cuts.cuts = false;
  check_config(instance, best, no_cuts, "no-cuts");

  // The dense explicit-inverse basis is the reference implementation the
  // sparse LU must agree with; dantzig pricing is the reference for devex.
  MilpOptions dense = defaults;
  dense.lp.basis = BasisKind::kDense;
  check_config(instance, best, dense, "dense-basis");

  MilpOptions dantzig = defaults;
  dantzig.lp.basis = BasisKind::kDense;
  dantzig.lp.pricing = PricingRule::kDantzig;
  check_config(instance, best, dantzig, "dense-basis/dantzig");

  // The parallel tree search must prove the same optimum at every worker
  // count (the search order differs, the fixpoint cannot), with either
  // basis representation.
  for (const int threads : {1, 2, 4}) {
    MilpOptions parallel = defaults;
    parallel.threads = threads;
    check_config(instance, best, parallel,
                 threads == 1 ? "parallel-1" : (threads == 2 ? "parallel-2" : "parallel-4"));

    MilpOptions parallel_dense = dense;
    parallel_dense.threads = threads;
    check_config(instance, best, parallel_dense,
                 threads == 1 ? "parallel-1/dense"
                              : (threads == 2 ? "parallel-2/dense" : "parallel-4/dense"));

    MilpOptions parallel_no_cuts = no_cuts;
    parallel_no_cuts.threads = threads;
    check_config(instance, best, parallel_no_cuts,
                 threads == 1 ? "parallel-1/no-cuts"
                              : (threads == 2 ? "parallel-2/no-cuts" : "parallel-4/no-cuts"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpFuzz, ::testing::Range(0, 80));

/// Serial-search contract: the default threads = 0 solve of the same
/// instance is bit-identical across runs, node counts and LP iterations
/// included.
TEST(ParallelBranchAndBound, DeterministicModeIsBitIdentical) {
  for (int round = 0; round < 12; ++round) {
    const FuzzInstance instance = make_instance(0xDE7 + 131ULL * static_cast<std::uint64_t>(round));
    const MilpResult first = solve_milp(instance.model);
    const MilpResult second = solve_milp(instance.model);
    const std::string where = "round " + std::to_string(round);
    ASSERT_EQ(first.status, second.status) << where;
    EXPECT_EQ(first.nodes, second.nodes) << where;
    EXPECT_EQ(first.lp_iterations, second.lp_iterations) << where;
    EXPECT_EQ(first.objective, second.objective) << where;  // bit-equal doubles
    EXPECT_EQ(first.best_bound, second.best_bound) << where;
    EXPECT_EQ(first.values, second.values) << where;
    ASSERT_EQ(first.worker_stats.size(), second.worker_stats.size()) << where;
    for (std::size_t w = 0; w < first.worker_stats.size(); ++w) {
      EXPECT_EQ(first.worker_stats[w].nodes, second.worker_stats[w].nodes)
          << where << " worker " << w;
      EXPECT_EQ(first.worker_stats[w].lp_iterations, second.worker_stats[w].lp_iterations)
          << where << " worker " << w;
    }
  }
}

/// First fuzz instance whose default (threads = 0) solve with cuts off
/// proves optimality after a real tree search: root cuts close most fuzz
/// instances in a node or two, and presolve-infeasible models return
/// before any worker launches.
FuzzInstance searchable_instance() {
  for (std::uint64_t seed = 0xF002; seed < 0xF002 + 64; ++seed) {
    FuzzInstance candidate = make_instance(seed);
    MilpOptions options;
    options.cuts = false;
    const MilpResult r = solve_milp(candidate.model, options);
    if (r.status == MilpStatus::kOptimal && r.nodes >= 4) return candidate;
  }
  ADD_FAILURE() << "no searchable fuzz instance in seed range";
  return make_instance(0xF002);
}

/// The default one-worker (threads = 0) and parallel results carry
/// consistent telemetry.
TEST(ParallelBranchAndBound, TelemetryShape) {
  const FuzzInstance instance = searchable_instance();
  MilpOptions single;
  single.cuts = false;
  const MilpResult s = solve_milp(instance.model, single);
  EXPECT_EQ(s.threads, 1);
  ASSERT_EQ(s.worker_stats.size(), 1u);
  EXPECT_EQ(s.worker_stats[0].nodes, s.nodes);
  EXPECT_EQ(s.worker_stats[0].lp_iterations, s.lp_iterations);
  EXPECT_EQ(s.steals, 0);
  EXPECT_EQ(s.idle_seconds, 0.0);
  EXPECT_EQ(s.parallel_efficiency, 1.0);

  MilpOptions parallel;
  parallel.threads = 2;
  parallel.cuts = false;
  const MilpResult p = solve_milp(instance.model, parallel);
  EXPECT_EQ(p.threads, 2);
  ASSERT_EQ(p.worker_stats.size(), 2u);
  long worker_nodes = 0;
  std::int64_t worker_iters = 0;
  for (const MilpWorkerStats& w : p.worker_stats) {
    worker_nodes += w.nodes;
    worker_iters += w.lp_iterations;
  }
  EXPECT_EQ(worker_nodes, p.nodes);
  EXPECT_EQ(worker_iters, p.lp_iterations);
  EXPECT_GE(p.parallel_efficiency, 0.0);
  EXPECT_LE(p.parallel_efficiency, 1.0);
}

/// The serial search (threads = 0) emits all three progress tracks, and
/// its open-node samples count the open list.
TEST(ParallelBranchAndBound, EpochScheduleEmitsProgressTracks) {
  const FuzzInstance instance = searchable_instance();
  obs::Tracer& tracer = obs::Tracer::instance();
  MilpOptions options;
  options.cuts = false;
  tracer.drain();
  tracer.enable();
  const MilpResult r = solve_milp(instance.model, options);
  tracer.disable();
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  bool incumbent = false, bound = false, open = false;
  double max_open = 0.0;
  for (const obs::TraceEvent& e : tracer.drain()) {
    if (e.kind != obs::EventKind::kCounter) continue;
    if (e.name.rfind("milp incumbent", 0) == 0) incumbent = true;
    if (e.name.rfind("milp bound", 0) == 0) bound = true;
    if (e.name.rfind("milp open_nodes", 0) == 0) {
      open = true;
      max_open = std::max(max_open, e.value);
    }
  }
  EXPECT_TRUE(incumbent);
  EXPECT_TRUE(bound);
  EXPECT_TRUE(open);
  EXPECT_GT(max_open, 0.0);
}

/// Mid-search cancellation: the token is honored promptly by the parallel
/// search and the best incumbent found so far is still reported.
TEST(ParallelBranchAndBound, CancellationStopsTheSearch) {
  // A big enough box that exhausting the tree without pruning would take a
  // while; cancellation must cut it short regardless.
  const FuzzInstance instance = make_instance(0xF002 + 977ULL * 3);

  CancelSource cancelled;
  cancelled.cancel();  // already cancelled before the solve starts
  MilpOptions early;
  early.threads = 4;
  early.cancel = cancelled.token();
  const MilpResult stopped = solve_milp(instance.model, early);
  // No node was expanded: either the limit path reports the cut-short
  // search, or presolve alone proved infeasibility before it started.
  EXPECT_TRUE(stopped.status == MilpStatus::kLimit || stopped.status == MilpStatus::kInfeasible);
  EXPECT_NE(stopped.status, MilpStatus::kOptimal);

  // A deadline that fires mid-search: the solve returns (promptly) with a
  // coherent status.
  CancelSource deadline;
  deadline.set_deadline_after(std::chrono::milliseconds(30));
  MilpOptions options;
  options.threads = 4;
  options.cancel = deadline.token();
  const MilpResult result = solve_milp(instance.model, options);
  EXPECT_TRUE(result.status == MilpStatus::kOptimal || result.status == MilpStatus::kFeasible ||
              result.status == MilpStatus::kLimit || result.status == MilpStatus::kInfeasible);
}

/// Parallel solves nested in executor tasks: twice as many 4-worker solves
/// as the host has threads, each started from a task, all complete and
/// prove the one-worker optimum (their helper workers run on the callers
/// when the executor is saturated).
TEST(ParallelBranchAndBound, NestedSolvesOnTheExecutorProveTheOptimum) {
  const FuzzInstance instance = searchable_instance();
  MilpOptions serial;
  serial.cuts = false;
  const MilpResult expected = solve_milp(instance.model, serial);
  ASSERT_EQ(expected.status, MilpStatus::kOptimal);

  const int solves = 2 * std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<MilpResult> results(static_cast<std::size_t>(solves));
  svc::TaskGroup group;
  for (int i = 0; i < solves; ++i) {
    group.run([&, i] {
      MilpOptions parallel = serial;
      parallel.threads = 4;
      results[static_cast<std::size_t>(i)] = solve_milp(instance.model, parallel);
    });
  }
  group.wait();
  for (const MilpResult& r : results) {
    ASSERT_EQ(r.status, MilpStatus::kOptimal);
    EXPECT_NEAR(r.objective, expected.objective, 1e-6);
    EXPECT_EQ(r.threads, 4);
  }
}

TEST(ParallelBranchAndBound, RejectsOutOfRangeWorkerCounts) {
  const FuzzInstance instance = make_instance(0xDE7);
  for (const int threads : {-1, kMaxMilpThreads + 1}) {
    MilpOptions options;
    options.threads = threads;
    EXPECT_THROW(solve_milp(instance.model, options), Error) << threads;
  }
}

/// Drives the persistent solver's warm path directly: every dual-simplex
/// resolve after a bound tightening must match a cold solve of the same box.
TEST(LpSolverWarmStart, ResolveMatchesColdSolve) {
  Rng rng(0xC01D);
  for (int round = 0; round < 20; ++round) {
    const FuzzInstance instance = make_instance(0xAB5E + 31ULL * static_cast<std::uint64_t>(round));
    const Model& model = instance.model;
    const int n = model.variable_count();
    std::vector<double> lower(instance.lower.begin(), instance.lower.end());
    std::vector<double> upper(instance.upper.begin(), instance.upper.end());

    LpSolver solver(model);
    LpResult warm = solver.solve(lower, upper);
    for (int step = 0; step < 12; ++step) {
      // Tighten a random variable's box (the branching pattern), sometimes
      // relaxing back to the original bounds.
      const int j = rng.next_int(0, n - 1);
      const std::size_t sj = static_cast<std::size_t>(j);
      if (rng.next_bool(0.25)) {
        lower[sj] = instance.lower[sj];
        upper[sj] = instance.upper[sj];
      } else if (rng.next_bool(0.5)) {
        upper[sj] = std::max(lower[sj], upper[sj] - 1.0);
      } else {
        lower[sj] = std::min(upper[sj], lower[sj] + 1.0);
      }
      warm = solver.resolve(lower, upper);
      const LpResult cold = solve_lp(model, {}, &lower, &upper);
      ASSERT_EQ(warm.status == LpStatus::kOptimal, cold.status == LpStatus::kOptimal)
          << "round " << round << " step " << step;
      if (cold.status == LpStatus::kOptimal) {
        EXPECT_NEAR(warm.objective, cold.objective, 1e-6)
            << "round " << round << " step " << step;
      }
    }
    EXPECT_GT(solver.stats().warm_solves + solver.stats().cold_solves, 0);
  }
}

/// A warm resolve whose dual reoptimization crosses the cutoff while still
/// primal infeasible must report kCutoff and stay reusable afterwards.
TEST(LpSolverWarmStart, CutoffPrunesAndKeepsBasis) {
  Model model;
  const VarId x = model.add_continuous(0.0, 10.0);
  const VarId y = model.add_continuous(0.0, 10.0);
  const VarId z = model.add_continuous(0.0, 10.0);
  model.add_constraint(1.0 * x + 1.0 * y + 1.0 * z, Relation::kGreaterEqual, 6.0);
  model.set_objective(1.0 * x + 2.0 * y + 3.0 * z, Sense::kMinimize);

  LpSolver solver(model);
  std::vector<double> lower{0.0, 0.0, 0.0}, upper{10.0, 10.0, 10.0};
  const LpResult root = solver.solve(lower, upper);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  EXPECT_NEAR(root.objective, 6.0, 1e-9);  // x = 6

  // Force x <= 1 and y <= 1: the optimum jumps to x=1, y=1, z=4 -> 15.
  // The first dual pivot already pushes the (monotone) dual objective past
  // 8 with the basis still primal infeasible, so the resolve must stop
  // with kCutoff instead of finishing the reoptimization.
  upper[0] = 1.0;
  upper[1] = 1.0;
  const LpResult pruned = solver.resolve(lower, upper, /*cutoff=*/8.0);
  EXPECT_EQ(pruned.status, LpStatus::kCutoff);
  EXPECT_TRUE(solver.has_basis());

  // The solver must still produce exact optima afterwards.
  const LpResult exact = solver.resolve(lower, upper);
  ASSERT_EQ(exact.status, LpStatus::kOptimal);
  EXPECT_NEAR(exact.objective, 15.0, 1e-6);

  // A resolve that regains primal feasibility while still below the cutoff
  // finishes to the exact optimum even when that optimum exceeds the
  // cutoff (a stronger prune for B&B than the bound alone).
  upper[0] = 10.0;
  upper[1] = 10.0;
  lower[1] = 3.0;
  const LpResult absorbed = solver.resolve(lower, upper, /*cutoff=*/8.0);
  ASSERT_EQ(absorbed.status, LpStatus::kOptimal);
  EXPECT_NEAR(absorbed.objective, 9.0, 1e-6);  // x = 3, y = 3
}

}  // namespace
}  // namespace fsyn::ilp
