// Tests for the MILP substrate: LP simplex correctness on hand instances,
// MILP vs brute-force enumeration on randomized instances, big-M
// disjunctions (the exact pattern used by the non-overlap constraints of the
// dynamic-device mapping model), warm starts and limits.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "util/rng.hpp"

namespace fsyn::ilp {
namespace {

TEST(LinearExpr, OperatorsBuildTerms) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  const VarId y = m.add_continuous(0, 10, "y");
  const LinearExpr e = 2.0 * x + 3.0 * y + LinearExpr(1.5);
  EXPECT_EQ(e.terms().size(), 2u);
  EXPECT_DOUBLE_EQ(e.constant(), 1.5);
}

TEST(Model, DuplicateTermsAreFolded) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  LinearExpr e;
  e.add_term(x, 2.0).add_term(x, 3.0);
  m.add_constraint(e, Relation::kLessEqual, 10.0);
  ASSERT_EQ(m.constraints().size(), 1u);
  ASSERT_EQ(m.constraints()[0].terms.size(), 1u);
  EXPECT_DOUBLE_EQ(m.constraints()[0].terms[0].coeff, 5.0);
}

TEST(Model, ConstraintConstantMovesToRhs) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  LinearExpr e = 1.0 * x;
  e.add_constant(4.0);
  m.add_constraint(e, Relation::kLessEqual, 10.0);  // x + 4 <= 10  ->  x <= 6
  EXPECT_DOUBLE_EQ(m.constraints()[0].rhs, 6.0);
}

TEST(Model, InvalidBoundsRejected) {
  Model m;
  EXPECT_THROW(m.add_variable(5.0, 4.0, VarType::kContinuous), Error);
  EXPECT_THROW(m.add_variable(-1.0, 1.0, VarType::kBinary), Error);
}

TEST(Model, IsFeasibleChecksEverything) {
  Model m;
  const VarId x = m.add_integer(0, 5, "x");
  const VarId y = m.add_continuous(0, 5, "y");
  m.add_constraint(1.0 * x + 1.0 * y, Relation::kLessEqual, 6.0);
  EXPECT_TRUE(m.is_feasible({2.0, 3.0}));
  EXPECT_FALSE(m.is_feasible({2.5, 3.0}));  // integrality
  EXPECT_FALSE(m.is_feasible({4.0, 3.0}));  // constraint
  EXPECT_FALSE(m.is_feasible({-1.0, 0.0})); // bound
  EXPECT_FALSE(m.is_feasible({1.0}));       // size
}

// ---------------------------------------------------------------- LP tests

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18  ->  (2, 6), obj 36.
  Model m;
  const VarId x = m.add_continuous(0, kInfinity, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(1.0 * x, Relation::kLessEqual, 4.0);
  m.add_constraint(2.0 * y, Relation::kLessEqual, 12.0);
  m.add_constraint(3.0 * x + 2.0 * y, Relation::kLessEqual, 18.0);
  m.set_objective(3.0 * x + 5.0 * y, Sense::kMaximize);

  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-6);
  EXPECT_NEAR(r.values[0], 2.0, 1e-6);
  EXPECT_NEAR(r.values[1], 6.0, 1e-6);
}

TEST(Simplex, MinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  ->  x=7, y=3, obj 23.
  Model m;
  const VarId x = m.add_continuous(2, kInfinity, "x");
  const VarId y = m.add_continuous(3, kInfinity, "y");
  m.add_constraint(1.0 * x + 1.0 * y, Relation::kGreaterEqual, 10.0);
  m.set_objective(2.0 * x + 3.0 * y, Sense::kMinimize);

  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 23.0, 1e-6);
  EXPECT_NEAR(r.values[0], 7.0, 1e-6);
  EXPECT_NEAR(r.values[1], 3.0, 1e-6);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 5, 0<=x<=3  ->  x=3, y=2, obj 7.
  Model m;
  const VarId x = m.add_continuous(0, 3, "x");
  const VarId y = m.add_continuous(0, kInfinity, "y");
  m.add_constraint(1.0 * x + 1.0 * y, Relation::kEqual, 5.0);
  m.set_objective(1.0 * x + 2.0 * y, Sense::kMinimize);

  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-6);
  EXPECT_NEAR(r.values[0], 3.0, 1e-6);
  EXPECT_NEAR(r.values[1], 2.0, 1e-6);
}

TEST(Simplex, UpperBoundedVariablesUseBoundFlips) {
  // max x + y + z with all in [0, 2] and x + y + z <= 5  ->  obj 5.
  Model m;
  const VarId x = m.add_continuous(0, 2, "x");
  const VarId y = m.add_continuous(0, 2, "y");
  const VarId z = m.add_continuous(0, 2, "z");
  m.add_constraint(1.0 * x + 1.0 * y + 1.0 * z, Relation::kLessEqual, 5.0);
  m.set_objective(1.0 * x + 1.0 * y + 1.0 * z, Sense::kMaximize);

  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const VarId x = m.add_continuous(0, 1, "x");
  m.add_constraint(1.0 * x, Relation::kGreaterEqual, 2.0);
  m.set_objective(1.0 * x, Sense::kMinimize);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const VarId x = m.add_continuous(0, kInfinity, "x");
  m.set_objective(1.0 * x, Sense::kMaximize);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with x in [-5, -1], y in [-2, 4], x + y >= -4  ->  obj -4.
  Model m;
  const VarId x = m.add_continuous(-5, -1, "x");
  const VarId y = m.add_continuous(-2, 4, "y");
  m.add_constraint(1.0 * x + 1.0 * y, Relation::kGreaterEqual, -4.0);
  m.set_objective(1.0 * x + 1.0 * y, Sense::kMinimize);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-6);
}

TEST(Simplex, BoundOverridesTightenTheBox) {
  Model m;
  const VarId x = m.add_continuous(0, 10, "x");
  m.set_objective(1.0 * x, Sense::kMaximize);
  m.add_constraint(1.0 * x, Relation::kLessEqual, 8.0);

  const std::vector<double> lo{0.0}, hi{3.0};
  const LpResult r = solve_lp(m, {}, &lo, &hi);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);

  const std::vector<double> lo_bad{4.0}, hi_bad{3.0};
  EXPECT_EQ(solve_lp(m, {}, &lo_bad, &hi_bad).status, LpStatus::kInfeasible);
}

// Property: on random feasible-by-construction LPs, the simplex optimum is
// feasible and at least as good as the sampled construction point.
TEST(SimplexProperty, OptimumBeatsRandomFeasiblePoints) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    Model m;
    const int n = rng.next_int(2, 5);
    std::vector<VarId> vars;
    std::vector<double> witness;
    for (int j = 0; j < n; ++j) {
      vars.push_back(m.add_continuous(0, rng.next_int(1, 10)));
      witness.push_back(rng.next_double() * m.variable(vars.back()).upper);
    }
    const int rows = rng.next_int(1, 4);
    for (int i = 0; i < rows; ++i) {
      LinearExpr e;
      double lhs_at_witness = 0.0;
      for (int j = 0; j < n; ++j) {
        const double coeff = rng.next_int(-3, 3);
        e.add_term(vars[static_cast<std::size_t>(j)], coeff);
        lhs_at_witness += coeff * witness[static_cast<std::size_t>(j)];
      }
      // rhs chosen so the witness satisfies the row.
      m.add_constraint(e, Relation::kLessEqual, lhs_at_witness + rng.next_double() * 2.0);
    }
    LinearExpr obj;
    for (int j = 0; j < n; ++j) obj.add_term(vars[static_cast<std::size_t>(j)], rng.next_int(-5, 5));
    m.set_objective(obj, Sense::kMaximize);

    const LpResult r = solve_lp(m);
    ASSERT_EQ(r.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_TRUE(m.is_feasible(r.values, 1e-6)) << "trial " << trial;
    EXPECT_GE(r.objective, m.objective_value(witness) - 1e-6) << "trial " << trial;
  }
}

// --------------------------------------------------------------- MILP tests

TEST(Milp, SolvesSmallKnapsack) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary  ->  a=1,c=1 obj 17? or
  // b=1,c=1 obj 20 (weight 6).  Optimal: b + c = 20.
  Model m;
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  const VarId c = m.add_binary("c");
  m.add_constraint(3.0 * a + 4.0 * b + 2.0 * c, Relation::kLessEqual, 6.0);
  m.set_objective(10.0 * a + 13.0 * b + 7.0 * c, Sense::kMaximize);

  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.values[1], 1.0, 1e-6);
  EXPECT_NEAR(r.values[2], 1.0, 1e-6);
}

TEST(Milp, IntegerRoundingMatters) {
  // max y s.t. 2y <= 7, y integer  ->  y = 3 (LP gives 3.5).
  Model m;
  const VarId y = m.add_integer(0, 100, "y");
  m.add_constraint(2.0 * y, Relation::kLessEqual, 7.0);
  m.set_objective(1.0 * y, Sense::kMaximize);
  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(Milp, InfeasibleIntegerModel) {
  // 0.4 <= x <= 0.6 has no integer point.
  Model m;
  const VarId x = m.add_integer(0, 1, "x");
  m.add_constraint(1.0 * x, Relation::kGreaterEqual, 0.4);
  m.add_constraint(1.0 * x, Relation::kLessEqual, 0.6);
  m.set_objective(1.0 * x, Sense::kMinimize);
  EXPECT_EQ(solve_milp(m).status, MilpStatus::kInfeasible);
}

TEST(Milp, BigMDisjunctionPicksOneSide) {
  // Two unit squares on a line segment [0, 3]: x2 >= x1 + 1 OR x1 >= x2 + 1
  // (the paper's non-overlap pattern, Eq. (3)-(8)).  Minimize x1 + x2.
  Model m;
  const double big_m = 100.0;
  const VarId x1 = m.add_integer(0, 3, "x1");
  const VarId x2 = m.add_integer(0, 3, "x2");
  const VarId c1 = m.add_binary("c1");
  const VarId c2 = m.add_binary("c2");
  // x1 + 1 <= x2 + M*c1  and  x2 + 1 <= x1 + M*c2, with c1 + c2 = 1.
  m.add_constraint(1.0 * x1 + (-1.0) * x2 + (-big_m) * c1, Relation::kLessEqual, -1.0);
  m.add_constraint(1.0 * x2 + (-1.0) * x1 + (-big_m) * c2, Relation::kLessEqual, -1.0);
  m.add_constraint(1.0 * c1 + 1.0 * c2, Relation::kEqual, 1.0);
  m.set_objective(1.0 * x1 + 1.0 * x2, Sense::kMinimize);

  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-6);  // {0, 1} in either order
  EXPECT_NEAR(std::abs(r.values[0] - r.values[1]), 1.0, 1e-6);
}

TEST(Milp, MinimizeMaximumViaBoundVariable) {
  // The mapping model's shape: minimize w with load_i <= w.  Three items of
  // weight 40 onto two slots -> optimal max load 80.
  Model m;
  const VarId w = m.add_continuous(0, kInfinity, "w");
  std::vector<std::vector<VarId>> assign(3);
  for (int i = 0; i < 3; ++i) {
    LinearExpr choose_one;
    for (int s = 0; s < 2; ++s) {
      assign[static_cast<std::size_t>(i)].push_back(m.add_binary());
      choose_one.add_term(assign[static_cast<std::size_t>(i)].back(), 1.0);
    }
    m.add_constraint(choose_one, Relation::kEqual, 1.0);
  }
  for (int s = 0; s < 2; ++s) {
    LinearExpr load;
    for (int i = 0; i < 3; ++i) load.add_term(assign[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)], 40.0);
    load.add_term(w, -1.0);
    m.add_constraint(load, Relation::kLessEqual, 0.0);
  }
  m.set_objective(1.0 * w, Sense::kMinimize);

  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 80.0, 1e-6);
}

TEST(Milp, WarmStartIncumbentIsRespected) {
  Model m;
  const VarId x = m.add_integer(0, 10, "x");
  m.add_constraint(1.0 * x, Relation::kLessEqual, 7.0);
  m.set_objective(1.0 * x, Sense::kMaximize);

  MilpOptions options;
  options.initial_incumbent = std::vector<double>{5.0};
  const MilpResult r = solve_milp(m, options);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-9);
}

TEST(Milp, InfeasibleWarmStartThrows) {
  Model m;
  const VarId x = m.add_integer(0, 10, "x");
  m.add_constraint(1.0 * x, Relation::kLessEqual, 7.0);
  m.set_objective(1.0 * x, Sense::kMaximize);
  MilpOptions options;
  options.initial_incumbent = std::vector<double>{9.0};
  EXPECT_THROW(solve_milp(m, options), LogicError);
}

TEST(Milp, NodeLimitReturnsBestFound) {
  // A model with many symmetric solutions; with node limit 1 we should still
  // report something sensible (kFeasible with an incumbent, or kLimit).
  Model m;
  std::vector<VarId> xs;
  LinearExpr sum;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(m.add_binary());
    sum.add_term(xs.back(), 1.0);
  }
  m.add_constraint(sum, Relation::kEqual, 5.0);
  LinearExpr obj;
  for (int i = 0; i < 10; ++i) obj.add_term(xs[static_cast<std::size_t>(i)], i % 3 + 1);
  m.set_objective(obj, Sense::kMinimize);

  MilpOptions options;
  options.max_nodes = 1;
  const MilpResult r = solve_milp(m, options);
  EXPECT_TRUE(r.status == MilpStatus::kFeasible || r.status == MilpStatus::kLimit ||
              r.status == MilpStatus::kOptimal);
  if (!r.values.empty()) EXPECT_TRUE(m.is_feasible(r.values));
}

TEST(Milp, RootLpThatGivesUpIsSolvedOnce) {
  // The root LP stops at its iteration cap.  With cuts on, the cut loop
  // solves it first; the tree must not solve it a second time.
  Model m;
  const VarId w = m.add_continuous(0, kInfinity, "w");
  std::vector<VarId> slot0;
  LinearExpr load0, load1;
  for (int i = 0; i < 3; ++i) {
    const VarId a = m.add_binary();
    const VarId b = m.add_binary();
    m.add_constraint(1.0 * a + 1.0 * b, Relation::kEqual, 1.0);
    load0.add_term(a, 40.0);
    load1.add_term(b, 40.0);
    slot0.push_back(a);
  }
  load0.add_term(w, -1.0);
  load1.add_term(w, -1.0);
  m.add_constraint(load0, Relation::kLessEqual, 0.0);
  m.add_constraint(load1, Relation::kLessEqual, 0.0);
  m.set_objective(1.0 * w, Sense::kMinimize);

  std::vector<double> start(static_cast<std::size_t>(m.variable_count()), 0.0);
  start[static_cast<std::size_t>(w.index)] = 120.0;
  for (const VarId a : slot0) start[static_cast<std::size_t>(a.index)] = 1.0;
  MilpOptions options;
  options.lp.max_iterations = 1;
  options.initial_incumbent = start;
  const MilpResult with_cuts = solve_milp(m, options);
  options.cuts = false;
  const MilpResult without_cuts = solve_milp(m, options);
  EXPECT_EQ(with_cuts.status, MilpStatus::kFeasible);
  EXPECT_EQ(with_cuts.status, without_cuts.status);
  EXPECT_EQ(with_cuts.nodes, without_cuts.nodes);
  EXPECT_EQ(with_cuts.lp_iterations, without_cuts.lp_iterations);
  EXPECT_EQ(with_cuts.lp, without_cuts.lp);
  EXPECT_EQ(with_cuts.values, start);
  EXPECT_EQ(without_cuts.values, start);
}

// Brute-force reference: enumerate all binary assignments.
double brute_force_best(const Model& m, int n_bin) {
  double best = -kInfinity;
  for (int mask = 0; mask < (1 << n_bin); ++mask) {
    std::vector<double> point(static_cast<std::size_t>(n_bin));
    for (int j = 0; j < n_bin; ++j) point[static_cast<std::size_t>(j)] = (mask >> j) & 1;
    if (m.is_feasible(point)) best = std::max(best, m.objective_value(point));
  }
  return best;
}

// Property: on random pure-binary models the B&B optimum equals exhaustive
// enumeration (both value and feasibility).
class MilpVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(MilpVsBruteForce, MatchesEnumeration) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Model m;
  const int n = rng.next_int(4, 10);
  std::vector<VarId> vars;
  for (int j = 0; j < n; ++j) vars.push_back(m.add_binary());
  const int rows = rng.next_int(1, 5);
  for (int i = 0; i < rows; ++i) {
    LinearExpr e;
    for (int j = 0; j < n; ++j) e.add_term(vars[static_cast<std::size_t>(j)], rng.next_int(-4, 4));
    const Relation rel = rng.next_bool(0.8) ? Relation::kLessEqual : Relation::kGreaterEqual;
    m.add_constraint(e, rel, rng.next_int(-3, 8));
  }
  LinearExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(vars[static_cast<std::size_t>(j)], rng.next_int(-6, 6));
  m.set_objective(obj, Sense::kMaximize);

  const double reference = brute_force_best(m, n);
  const MilpResult r = solve_milp(m);
  if (reference == -kInfinity) {
    EXPECT_EQ(r.status, MilpStatus::kInfeasible);
  } else {
    ASSERT_EQ(r.status, MilpStatus::kOptimal);
    EXPECT_TRUE(m.is_feasible(r.values));
    EXPECT_NEAR(r.objective, reference, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, MilpVsBruteForce, ::testing::Range(0, 40));

}  // namespace
}  // namespace fsyn::ilp
