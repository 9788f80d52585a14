// Root-node cutting planes for the MILP solver.
//
// Branch and bound explores fewer nodes when the LP relaxation at the root
// is tighter, so before the tree search starts `run_root_cut_loop` rounds of
// two classic cut families are separated against the relaxation optimum:
//
//  - Gomory mixed-integer cuts, derived from the fractional rows of the
//    optimal simplex tableau (one BTRAN per row through the existing basis
//    factors — `LpSolver::tableau_row`), with slack variables substituted
//    away so every cut lives purely in structural-variable space;
//  - knapsack cover cuts, separated combinatorially from the CSR rows of
//    `Model::compressed_matrix` whose variables are all binary.
//
// Generated cuts pass through a bounded `CutPool` that keeps only violated,
// mutually non-parallel rows and ages out cuts that stop separating; the
// survivors of each round are appended to the *warm* LP basis
// (`LpSolver::append_rows` — new slacks enter the basis, one refactorization
// per round) and the relaxation is reoptimized with the dual simplex.  Cuts
// whose slack stays loose for two consecutive rounds are dropped from the
// final retained set, so the branch-and-bound tree only carries rows that
// were still doing work at the end of the loop.
//
// Every cut is globally valid (satisfied by every integer-feasible point of
// the model under the root bound box), which `tests/test_cuts.cpp` checks by
// full enumeration on the fuzz-instance family.
#pragma once

#include <cstdint>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "util/cancel.hpp"

namespace fsyn::ilp {

/// Parameter of the root cut loop.  The default is deliberately mild: a
/// handful of rounds (cuts.cpp's kMaxRounds) with a small per-round batch
/// captures most of the tree-size win without inflating the LP.
struct CutOptions {
  int max_cuts_per_round = 16;  ///< rows appended per round
};

/// Where a cut came from (telemetry and test labelling).
enum class CutKind { kGomory, kCover };

/// One cutting plane `sum(vals * x) <= rhs` over structural variables.
struct Cut {
  CutKind kind = CutKind::kGomory;
  std::vector<int> cols;
  std::vector<double> vals;
  double rhs = 0.0;
  int age = 0;  ///< rounds since the cut last separated / was tight
};

/// Root cut-loop counters; carried in ilp::SolveCounters (branch_and_bound.hpp).
struct CutStats {
  std::int64_t gomory_generated = 0;  ///< GMI cuts that passed numerical vetting
  std::int64_t cover_generated = 0;   ///< cover cuts separated
  std::int64_t applied = 0;           ///< rows appended to the root LP
  std::int64_t retained = 0;          ///< rows still active, handed to the tree
  std::int64_t aged_out = 0;          ///< pool + applied cuts dropped as inactive
  std::int64_t rounds = 0;            ///< separation rounds that appended rows

  void accumulate(const CutStats& other) {
    gomory_generated += other.gomory_generated;
    cover_generated += other.cover_generated;
    applied += other.applied;
    retained += other.retained;
    aged_out += other.aged_out;
    rounds += other.rounds;
  }

  bool operator==(const CutStats&) const = default;
};

/// Bounded candidate store between separation rounds.
///
/// `add` rejects rows that are insufficiently violated at the current LP
/// point (or near-parallel to a cut already in the pool); `take_round`
/// extracts the most violated, mutually non-parallel batch for appending;
/// `age_round` ages everything left behind and drops cuts that reach age
/// 2.  Exposed (rather than buried in the loop) so the unit tests can
/// exercise the aging policy directly.
class CutPool {
 public:
  explicit CutPool(const CutOptions& options) : options_(options) {}

  /// Returns true when the cut was stored.
  bool add(Cut cut, const std::vector<double>& point);
  /// Extracts up to `max_cuts_per_round` violated, mutually non-parallel
  /// cuts, ordered by decreasing violation; removes them from the pool.
  std::vector<Cut> take_round(const std::vector<double>& point);
  /// Ages every remaining cut by one round and drops the expired ones.
  void age_round();

  std::size_t size() const { return cuts_.size(); }
  std::int64_t aged_out() const { return aged_out_; }

 private:
  CutOptions options_;
  std::vector<Cut> cuts_;
  std::int64_t aged_out_ = 0;
};

/// Violation of `cut` at `point` (positive = cut separates the point),
/// normalized by the cut's coefficient norm so thresholds are scale-free.
double cut_violation(const Cut& cut, const std::vector<double>& point);

/// Cosine similarity of two cuts' coefficient vectors (in [0, 1] up to
/// sign); 1 means the rows are parallel.
double cut_parallelism(const Cut& a, const Cut& b);

/// Derives Gomory mixed-integer cuts from every fractional integer basic
/// row of `solver`'s optimal basis.  `applied_cuts` are the cut rows already
/// appended to the solver (row order), needed to substitute their slacks
/// away; rows `< model.constraint_count()` substitute from the model.
/// Bounds are the root box the relaxation was solved under (integer-variable
/// entries must be integral).  Numerically fragile rows are discarded.
std::vector<Cut> generate_gomory_cuts(const Model& model, LpSolver& solver,
                                      const std::vector<Cut>& applied_cuts,
                                      const std::vector<double>& lower,
                                      const std::vector<double>& upper,
                                      const CutOptions& options);

/// Separates knapsack cover cuts from the model rows whose support is all
/// binary (under the root box) against the fractional point `point`.
std::vector<Cut> generate_cover_cuts(const Model& model, const std::vector<double>& lower,
                                     const std::vector<double>& upper,
                                     const std::vector<double>& point);

/// Result of the root cut loop: the retained (still-active) cuts plus the
/// loop's counters and the LP work it spent.
struct RootCutOutcome {
  std::vector<Cut> cuts;
  CutStats stats;
  LpSolverStats lp;                 ///< the cut loop's own solver counters
  std::int64_t lp_iterations = 0;   ///< simplex iterations spent in the loop
  double root_objective = 0.0;      ///< final root bound (user sense)
  bool root_infeasible = false;     ///< relaxation went infeasible under cuts
  /// How the first, cut-free root LP ended (kOptimal also when the loop
  /// did not run).  It is the tree's root LP: when it was not solved, the
  /// tree would only solve it again and end the same way.
  LpStatus root_status = LpStatus::kOptimal;
};

/// Runs the root separation loop: solve the relaxation under the root box,
/// alternate (separate -> filter -> append -> reoptimize) for at most 8
/// rounds, and return the cuts still active at the end.  Returns an empty
/// outcome when the batch size is not positive, the model has no integer
/// variables, or the root relaxation is not optimal.  `stop` (the solve's
/// deadline and cancel) is polled between rounds and inside every LP solve.
RootCutOutcome run_root_cut_loop(const Model& model, const std::vector<double>& lower,
                                 const std::vector<double>& upper,
                                 const LpOptions& lp_options, const CutOptions& options,
                                 const CancelToken& stop);

}  // namespace fsyn::ilp
