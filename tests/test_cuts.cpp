// Validity and policy tests for the root cutting-plane machinery.
//
// The load-bearing check is CutValidity: on the same 80-seed fuzz family
// `test_ilp_fuzz.cpp` uses, every cut the separators produce — first-round
// Gomory and cover cuts straight from the generators, plus the multi-round
// survivors `run_root_cut_loop` retains — must be satisfied by *every*
// integer-feasible point of the instance, verified by full enumeration of
// the bound box.  A single violated point would mean the cut can slice off
// an optimum and silently break the cuts-on/cuts-off objective parity the
// solver promises.  The remaining tests exercise the CutPool filtering and
// aging policy and `LpSolver::append_rows` (warm row appending) directly.
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "ilp/cuts.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace fsyn::ilp {
namespace {

struct FuzzInstance {
  Model model;
  std::vector<int> lower, upper;  ///< integer bound box, model order
};

/// Same generator (and seed schedule) as tests/test_ilp_fuzz.cpp, so the cut
/// validity sweep covers exactly the instances the solver parity matrix runs.
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

double cut_lhs(const Cut& cut, const std::vector<double>& point) {
  double lhs = 0.0;
  for (std::size_t k = 0; k < cut.cols.size(); ++k) {
    lhs += cut.vals[k] * point[static_cast<std::size_t>(cut.cols[k])];
  }
  return lhs;
}

/// Visits every integer point of the instance's bound box that satisfies the
/// model constraints; returns the number of feasible points visited.
template <typename Visit>
int for_each_feasible_point(const FuzzInstance& instance, Visit&& visit) {
  const int n = instance.model.variable_count();
  std::vector<double> point(static_cast<std::size_t>(n));
  std::vector<int> cursor(instance.lower.begin(), instance.lower.end());
  int feasible = 0;
  for (;;) {
    for (int j = 0; j < n; ++j) point[static_cast<std::size_t>(j)] = cursor[static_cast<std::size_t>(j)];
    if (instance.model.is_feasible(point)) {
      ++feasible;
      visit(point);
    }
    int j = 0;
    while (j < n && ++cursor[static_cast<std::size_t>(j)] > instance.upper[static_cast<std::size_t>(j)]) {
      cursor[static_cast<std::size_t>(j)] = instance.lower[static_cast<std::size_t>(j)];
      ++j;
    }
    if (j == n) break;
  }
  return feasible;
}

void expect_cut_valid(const FuzzInstance& instance, const Cut& cut, const char* label,
                      std::uint64_t seed) {
  for_each_feasible_point(instance, [&](const std::vector<double>& point) {
    EXPECT_LE(cut_lhs(cut, point), cut.rhs + 1e-6)
        << label << " cut violated by feasible integer point (seed " << seed << ")";
  });
}

class CutFuzz : public ::testing::TestWithParam<int> {};

/// Every generated cut must hold at every integer-feasible point.  Checks
/// both the raw first-round output of the two separators and the retained
/// set of the full multi-round loop (whose later rounds cut a relaxation
/// already tightened by earlier cuts).
TEST_P(CutFuzz, NoGeneratedCutViolatesAnIntegerFeasiblePoint) {
  const std::uint64_t seed = 0xF002 + 977ULL * static_cast<std::uint64_t>(GetParam());
  const FuzzInstance instance = make_instance(seed);
  std::vector<double> lower(instance.lower.begin(), instance.lower.end());
  std::vector<double> upper(instance.upper.begin(), instance.upper.end());
  const CutOptions options;  // defaults = what solve_milp runs

  // First-round separators against the raw root relaxation.
  LpSolver solver(instance.model);
  const LpResult root = solver.solve(lower, upper);
  if (root.status == LpStatus::kOptimal) {
    for (const Cut& cut :
         generate_gomory_cuts(instance.model, solver, {}, lower, upper, options)) {
      expect_cut_valid(instance, cut, "gomory", seed);
    }
    for (const Cut& cut :
         generate_cover_cuts(instance.model, lower, upper, root.values)) {
      expect_cut_valid(instance, cut, "cover", seed);
    }
  }

  // The full loop's retained cuts (later rounds separate a point the earlier
  // cuts already moved, so these are not covered by the first-round check).
  const RootCutOutcome outcome =
      run_root_cut_loop(instance.model, lower, upper, LpOptions{}, options, CancelToken{});
  for (const Cut& cut : outcome.cuts) {
    expect_cut_valid(instance, cut, "retained", seed);
  }

  // A root that went infeasible under valid cuts proves integer
  // infeasibility; cross-check that claim against the enumeration.
  if (outcome.root_infeasible) {
    const int feasible = for_each_feasible_point(instance, [](const std::vector<double>&) {});
    EXPECT_EQ(feasible, 0) << "cut loop claims infeasible but seed " << seed
                           << " has integer-feasible points";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutFuzz, ::testing::Range(0, 80));

// ---------------------------------------------------------------------------
// CutPool policy
// ---------------------------------------------------------------------------

Cut make_cut(std::vector<int> cols, std::vector<double> vals, double rhs,
             CutKind kind = CutKind::kGomory) {
  Cut cut;
  cut.kind = kind;
  cut.cols = std::move(cols);
  cut.vals = std::move(vals);
  cut.rhs = rhs;
  return cut;
}

TEST(CutPool, RejectsWeakAndParallelCandidates) {
  CutPool pool(CutOptions{});
  const std::vector<double> point = {0.5, 0.5};

  // x0 <= 0 is violated by 0.5 at the point: accepted.
  EXPECT_TRUE(pool.add(make_cut({0}, {1.0}, 0.0), point));
  // x0 <= 1 is satisfied at the point: rejected (violation <= 0).
  EXPECT_FALSE(pool.add(make_cut({0}, {1.0}, 1.0), point));
  // 2 x0 <= 0.2 is parallel to the stored x0 <= 0 (cosine 1): rejected even
  // though it is violated.
  EXPECT_FALSE(pool.add(make_cut({0}, {2.0}, 0.2), point));
  // An orthogonal violated cut is accepted alongside.
  EXPECT_TRUE(pool.add(make_cut({1}, {1.0}, 0.0), point));
  EXPECT_EQ(pool.size(), 2u);
}

TEST(CutPool, TakeRoundOrdersByViolationAndFiltersParallel) {
  CutOptions options;
  options.max_cuts_per_round = 2;
  CutPool pool(options);
  const std::vector<double> point = {0.9, 0.4, 0.7};

  ASSERT_TRUE(pool.add(make_cut({0}, {1.0}, 0.0), point));  // violation 0.9
  ASSERT_TRUE(pool.add(make_cut({1}, {1.0}, 0.0), point));  // violation 0.4
  ASSERT_TRUE(pool.add(make_cut({2}, {1.0}, 0.0), point));  // violation 0.7

  const std::vector<Cut> round = pool.take_round(point);
  ASSERT_EQ(round.size(), 2u);  // capped by max_cuts_per_round
  EXPECT_EQ(round[0].cols[0], 0);  // most violated first
  EXPECT_EQ(round[1].cols[0], 2);
  EXPECT_EQ(pool.size(), 1u);  // the x1 cut stays pooled
}

TEST(CutPool, AgesOutCutsThatStopSeparating) {
  CutPool pool(CutOptions{});
  const std::vector<double> point = {0.5};
  ASSERT_TRUE(pool.add(make_cut({0}, {1.0}, 0.0), point));

  // A point that satisfies the cut: take_round selects nothing, the cut
  // lingers and ages; it expires once its age reaches the limit of 2.
  const std::vector<double> interior = {0.0};
  EXPECT_TRUE(pool.take_round(interior).empty());
  pool.age_round();  // age 1 < 2: kept
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.take_round(interior).empty());
  pool.age_round();  // age 2: dropped
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.aged_out(), 1);
}

TEST(CutPool, ViolatedCutIsSelectedBeforeItExpires) {
  CutPool pool(CutOptions{});
  const std::vector<double> point = {0.5};
  ASSERT_TRUE(pool.add(make_cut({0}, {1.0}, 0.0), point));
  pool.age_round();  // age 1 — one more idle round would drop it
  ASSERT_EQ(pool.size(), 1u);
  // Still violated at the current point, so the next round selects it
  // instead of letting it expire.
  const std::vector<Cut> round = pool.take_round(point);
  ASSERT_EQ(round.size(), 1u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.aged_out(), 0);
}

TEST(CutViolationAndParallelism, AreScaleFree) {
  const std::vector<double> point = {1.0, 1.0};
  const Cut a = make_cut({0, 1}, {1.0, 1.0}, 1.0);
  const Cut scaled = make_cut({0, 1}, {10.0, 10.0}, 10.0);
  EXPECT_NEAR(cut_violation(a, point), cut_violation(scaled, point), 1e-12);
  EXPECT_NEAR(cut_parallelism(a, scaled), 1.0, 1e-12);
  const Cut orthogonal = make_cut({0, 1}, {1.0, -1.0}, 0.0);
  EXPECT_NEAR(cut_parallelism(a, orthogonal), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// LpSolver::append_rows
// ---------------------------------------------------------------------------

class AppendRows : public ::testing::TestWithParam<BasisKind> {};

/// Appending a row to a warm basis and reoptimizing must land on the same
/// optimum as a cold solve of a model that carried the row from the start.
TEST_P(AppendRows, WarmAppendMatchesColdSolveOfExtendedModel) {
  // max 3x + 2y  s.t.  x + y <= 4,  x, y in [0, 3]  ->  (3, 1), obj 11.
  Model base;
  const VarId x = base.add_continuous(0.0, 3.0, "x");
  const VarId y = base.add_continuous(0.0, 3.0, "y");
  base.add_constraint(1.0 * x + 1.0 * y, Relation::kLessEqual, 4.0);
  base.set_objective(3.0 * x + 2.0 * y, Sense::kMaximize);

  LpOptions lp_options;
  lp_options.basis = GetParam();
  const std::vector<double> lower = {0.0, 0.0};
  const std::vector<double> upper = {3.0, 3.0};

  LpSolver solver(base, lp_options);
  const LpResult before = solver.solve(lower, upper);
  ASSERT_EQ(before.status, LpStatus::kOptimal);
  EXPECT_NEAR(before.objective, 11.0, 1e-7);

  // Append 2x + y <= 5 (cuts off (3,1); new optimum (1, 3), obj 9).
  LpCutRow row;
  row.cols = {0, 1};
  row.vals = {2.0, 1.0};
  row.rhs = 5.0;
  ASSERT_TRUE(solver.append_rows({row}));
  EXPECT_EQ(solver.stats().rows_appended, 1);
  EXPECT_EQ(solver.row_count(), 2);
  const LpResult after = solver.resolve(lower, upper);
  ASSERT_EQ(after.status, LpStatus::kOptimal);

  Model extended;
  const VarId ex = extended.add_continuous(0.0, 3.0, "x");
  const VarId ey = extended.add_continuous(0.0, 3.0, "y");
  extended.add_constraint(1.0 * ex + 1.0 * ey, Relation::kLessEqual, 4.0);
  extended.add_constraint(2.0 * ex + 1.0 * ey, Relation::kLessEqual, 5.0);
  extended.set_objective(3.0 * ex + 2.0 * ey, Sense::kMaximize);
  const LpResult cold = solve_lp(extended, lp_options, &lower, &upper);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_NEAR(after.objective, cold.objective, 1e-7);
  ASSERT_EQ(after.values.size(), 2u);
  EXPECT_NEAR(after.values[0], cold.values[0], 1e-7);
  EXPECT_NEAR(after.values[1], cold.values[1], 1e-7);
}

/// Several rows in one batch, including one that is slack at the optimum.
TEST_P(AppendRows, BatchAppendKeepsWarmPathUsable) {
  Model base;
  const VarId x = base.add_continuous(0.0, 10.0, "x");
  const VarId y = base.add_continuous(0.0, 10.0, "y");
  base.add_constraint(1.0 * x + 1.0 * y, Relation::kLessEqual, 12.0);
  base.set_objective(1.0 * x + 1.0 * y, Sense::kMaximize);

  LpOptions lp_options;
  lp_options.basis = GetParam();
  const std::vector<double> lower = {0.0, 0.0};
  const std::vector<double> upper = {10.0, 10.0};

  LpSolver solver(base, lp_options);
  ASSERT_EQ(solver.solve(lower, upper).status, LpStatus::kOptimal);

  LpCutRow tight;   // x + y <= 7: binding at the new optimum
  tight.cols = {0, 1};
  tight.vals = {1.0, 1.0};
  tight.rhs = 7.0;
  LpCutRow loose;   // x <= 9: never binding
  loose.cols = {0};
  loose.vals = {1.0};
  loose.rhs = 9.0;
  ASSERT_TRUE(solver.append_rows({tight, loose}));
  EXPECT_EQ(solver.stats().rows_appended, 2);
  EXPECT_EQ(solver.row_count(), 3);

  const LpResult after = solver.resolve(lower, upper);
  ASSERT_EQ(after.status, LpStatus::kOptimal);
  EXPECT_NEAR(after.objective, 7.0, 1e-7);

  // The basis survives the append: a subsequent bound tightening still
  // reoptimizes warm (this is the cut loop's steady-state pattern).
  const std::vector<double> tighter_upper = {2.0, 10.0};
  const LpResult warm = solver.resolve(lower, tighter_upper);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, 7.0, 1e-7);  // y picks up the slack
  EXPECT_TRUE(warm.warm_started);
}

INSTANTIATE_TEST_SUITE_P(Bases, AppendRows,
                         ::testing::Values(BasisKind::kDense, BasisKind::kSparseLu),
                         [](const ::testing::TestParamInfo<BasisKind>& info) {
                           return info.param == BasisKind::kDense ? "dense" : "sparse";
                         });

}  // namespace
}  // namespace fsyn::ilp
