// Sparse revised simplex for LPs with bounded variables, reusable across
// branch-and-bound nodes.
//
// This is the workhorse under the branch-and-bound MILP solver that replaces
// Gurobi in this reproduction.  The constraint matrix is stored column-major
// sparse (CSC, plus a row-major mirror for pivot-row scatters; the assay
// models are >95% zeros) and every row carries a logical (slack) column, so
// the basis always has an all-logical fallback.
// The basis is represented either as a sparse LU factorization with
// Markowitz pivoting and product-form eta updates (`BasisKind::kSparseLu`,
// the default — FTRAN/BTRAN cost follows the basis sparsity) or as the
// original dense inverse updated in product form (`BasisKind::kDense`, kept
// as a cross-check oracle); both refactorize periodically.  Reduced costs
// are maintained incrementally and priced through a candidate list, scored
// by devex reference-framework weights by default (plain Dantzig remains
// selectable); the dual simplex uses devex row norms the same way.
//
// `LpSolver` is persistent: after an optimal solve the factorized basis
// stays alive, and `resolve` reoptimizes a changed bound box with the
// bounded-variable *dual* simplex — the reoptimization pattern branch and
// bound needs after a branching bound change — instead of re-running
// Phase 1 + Phase 2 from scratch.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "ilp/lu.hpp"
#include "ilp/model.hpp"
#include "util/cancel.hpp"

namespace fsyn::ilp {

/// Basis representation used by the revised simplex.
enum class BasisKind {
  kDense,     ///< dense B^{-1}, product-form updates (PR 2 behaviour)
  kSparseLu,  ///< Markowitz LU + eta file; cost scales with basis sparsity
};

/// Entering-variable pricing rule (primal Phase 2 and dual row choice).
enum class PricingRule {
  kDantzig,  ///< most-violating reduced cost
  kDevex,    ///< devex reference-framework weights (approx. steepest edge)
};

const char* to_string(BasisKind kind);
const char* to_string(PricingRule rule);
/// Parses "dense" / "sparse_lu" (alias "sparse"); false on unknown input.
bool basis_kind_from_string(std::string_view text, BasisKind* out);
/// Parses "dantzig" / "devex"; false on unknown input.
bool pricing_rule_from_string(std::string_view text, PricingRule* out);

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// Warm `resolve` only: the objective provably exceeds the caller's
  /// cutoff, so the reoptimization stopped early (the LP itself may be
  /// feasible; its optimum is >= the cutoff).
  kCutoff,
};

struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  /// Structural variable values (model order); empty unless kOptimal.
  std::vector<double> values;
  /// Objective in the model's user sense; meaningful only when kOptimal.
  double objective = 0.0;
  /// Simplex iterations (pivots + bound flips) spent in this call.
  std::int64_t iterations = 0;
  /// True when the call was served by dual-simplex reoptimization of the
  /// previous basis rather than a cold Phase 1 + Phase 2 run.
  bool warm_started = false;
};

struct LpOptions {
  int max_iterations = 50000;
  /// Basis representation; the dense inverse is kept as an oracle for
  /// cross-checking the sparse LU path (fuzz harness runs both).
  BasisKind basis = BasisKind::kSparseLu;
  /// Pricing rule for primal Phase 2 and the dual leaving-row choice.
  PricingRule pricing = PricingRule::kDevex;
};

/// Lifetime counters of one LpSolver (monotone; never reset).
struct LpSolverStats {
  std::int64_t iterations = 0;        ///< pivots + bound flips, all calls
  std::int64_t primal_pivots = 0;
  std::int64_t dual_pivots = 0;
  std::int64_t bound_flips = 0;
  std::int64_t refactorizations = 0;
  std::int64_t warm_solves = 0;  ///< resolves served by the dual simplex
  std::int64_t cold_solves = 0;  ///< Phase 1 + Phase 2 runs (incl. fallbacks)
  std::int64_t rows_appended = 0;  ///< cut rows grafted onto a warm basis
  // Sparse-LU basis telemetry (zero under BasisKind::kDense).
  std::int64_t lu_refactorizations = 0;  ///< Markowitz factorizations built
  std::int64_t eta_pivots = 0;           ///< basis changes absorbed as etas
  std::int64_t eta_nnz = 0;              ///< total eta-file nonzeros appended
  std::int64_t lu_fill_nnz = 0;          ///< summed L+U nonzeros
  std::int64_t lu_basis_nnz = 0;         ///< summed basis nonzeros (fill ratio denom.)
  std::int64_t devex_resets = 0;         ///< devex reference-framework restarts

  /// Average LU fill-in: (L+U nnz) / (basis nnz) over all factorizations.
  double fill_in_ratio() const {
    return lu_basis_nnz > 0 ? static_cast<double>(lu_fill_nnz) / static_cast<double>(lu_basis_nnz)
                            : 0.0;
  }

  /// Sums counters from another solver (aggregation across solves/layers).
  void accumulate(const LpSolverStats& other) {
    iterations += other.iterations;
    primal_pivots += other.primal_pivots;
    dual_pivots += other.dual_pivots;
    bound_flips += other.bound_flips;
    refactorizations += other.refactorizations;
    warm_solves += other.warm_solves;
    cold_solves += other.cold_solves;
    rows_appended += other.rows_appended;
    lu_refactorizations += other.lu_refactorizations;
    eta_pivots += other.eta_pivots;
    eta_nnz += other.eta_nnz;
    lu_fill_nnz += other.lu_fill_nnz;
    lu_basis_nnz += other.lu_basis_nnz;
    devex_resets += other.devex_resets;
  }

  bool operator==(const LpSolverStats&) const = default;
};

/// One row appended to a live LP by the root cut loop: `sum(vals * x) <= rhs`
/// over structural columns only (cut generators substitute slacks away).
struct LpCutRow {
  std::vector<int> cols;
  std::vector<double> vals;
  double rhs = 0.0;
};

/// Read-only view of one simplex tableau row at an optimal basis, used by
/// the Gomory cut generator: `x_B(r) = value - sum(alphas * t)` where each
/// t is the nonbasic column's displacement from its rest bound.
struct LpTableauRow {
  int basic_col = -1;   ///< basic column of row r (may be a logical)
  double value = 0.0;   ///< x_B(r) with nonbasics at their rest bounds
  std::vector<int> cols;       ///< nonbasic columns with a nonzero alpha
  std::vector<double> alphas;  ///< e_r' B^{-1} A entries for those columns
};

/// Persistent bounded-variable revised simplex over one Model.
///
/// The model must outlive the solver and must not change shape (variables,
/// constraints, objective) after construction; only variable bounds vary
/// between calls — plus `append_rows`, which grafts extra `<=` rows (cutting
/// planes) onto the warm basis without a cold restart.
class LpSolver {
 public:
  explicit LpSolver(const Model& model, const LpOptions& options = {});

  /// Cold solve of the LP under the given bound box (structural variables,
  /// model order): all-logical starting basis, Phase 1, then primal Phase 2.
  LpResult solve(const std::vector<double>& lower, const std::vector<double>& upper);

  /// Warm solve: keeps the previous optimal basis, applies the new bound
  /// box and reoptimizes with the dual simplex.  Falls back to a cold solve
  /// when no reusable basis exists or the warm path stalls.  When `cutoff`
  /// is finite (internal minimize-sense objective, no constant), the dual
  /// loop stops with kCutoff as soon as the objective provably exceeds it.
  LpResult resolve(const std::vector<double>& lower, const std::vector<double>& upper,
                   double cutoff = kInfinity);

  const LpSolverStats& stats() const { return stats_; }
  bool has_basis() const { return has_basis_; }

  /// Interrupts solves once `stop` fires (a deadline or a cancel): every
  /// simplex loop polls it every few dozen iterations, and an interrupted
  /// solve ends with kIterationLimit, as at the cap, without the cold
  /// fallback.  Not an LpOptions field: the options configure the engine;
  /// a stop belongs to one solve.
  void set_stop(CancelToken stop) {
    stop_ = std::move(stop);
    stopped_ = false;
  }

  // -- cut-generation support ----------------------------------------------
  // Cheap structural accessors the root cut loop needs to read the optimal
  // basis.  Columns in [structural_count(), structural_count()+row_count())
  // are the logical (slack) columns, one per row in row order.
  int row_count() const { return m_; }
  int structural_count() const { return n_; }
  bool column_is_logical(int j) const { return is_logical(j); }
  int logical_row(int j) const { return j - n_; }
  double column_lower(int j) const { return lower_[static_cast<std::size_t>(j)]; }
  double column_upper(int j) const { return upper_[static_cast<std::size_t>(j)]; }
  bool column_at_upper(int j) const { return at_upper_[static_cast<std::size_t>(j)] != 0; }
  bool column_basic(int j) const { return basic_row_[static_cast<std::size_t>(j)] >= 0; }
  int basic_column(int r) const { return basis_[static_cast<std::size_t>(r)]; }
  double basic_value(int r) const { return xb_[static_cast<std::size_t>(r)]; }

  /// Extracts tableau row `r` by one BTRAN through the current factors plus
  /// a sparse pivot-row scatter.  Requires `has_basis()`.
  void tableau_row(int r, LpTableauRow* out);

  /// Appends `<=` rows to a solved LP without a cold restart: the CSR/CSC
  /// mirrors grow, each new row gets a `>= 0` slack logical that enters the
  /// basis (the basis matrix becomes [[B,0],[C,I]], nonsingular whenever B
  /// was), and the representation refactorizes exactly once.  The next
  /// `resolve` repairs primal feasibility with the dual simplex.  Returns
  /// false (and drops the basis) if the refactorization fails.
  bool append_rows(const std::vector<LpCutRow>& rows);

 private:
  // -- geometry helpers -----------------------------------------------------
  int total_columns() const { return n_ + m_; }
  bool is_logical(int j) const { return j >= n_; }
  double rest_value(int j) const {
    return at_upper_[static_cast<std::size_t>(j)] ? upper_[static_cast<std::size_t>(j)]
                                                  : lower_[static_cast<std::size_t>(j)];
  }
  double* binv_col(int k) { return binv_.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(m_); }
  bool sparse_basis() const { return options_.basis == BasisKind::kSparseLu; }
  bool devex() const { return options_.pricing == PricingRule::kDevex; }

  // -- linear algebra -------------------------------------------------------
  void ftran(int j, std::vector<double>& w) const;      ///< w = B^{-1} a_j
  void gather_row(int r, std::vector<double>& rho) const;  ///< rho = e_r' B^{-1}
  void btran_vec(const std::vector<double>& v, std::vector<double>& y) const;  ///< y = B^{-T} v
  double column_dot(const std::vector<double>& y, int j) const;  ///< y . a_j
  /// Absorbs the basis change at row r (FTRAN'd entering column w) into the
  /// current representation; false means the representation is stale and
  /// the caller must refactorize (sparse eta pivot too small).
  bool apply_basis_change(int r, const std::vector<double>& w);
  bool needs_refactor() const;
  bool refactor();  ///< rebuild the basis factors, xb (and d in Phase 2); false if singular
  bool factorize_sparse_basis();
  /// Scatters alpha_j = rho . a_j for every column with a nonzero, through
  /// the row-major matrix mirror; fills alpha_touched_ (cost follows the
  /// sparsity of rho instead of the full column count).
  void compute_pivot_row_alphas(const std::vector<double>& rho);
  void reset_devex_weights();

  // -- state management -----------------------------------------------------
  void set_structural_bounds(const std::vector<double>& lower,
                             const std::vector<double>& upper);
  void reset_to_logical_basis();
  void recompute_basic_values();
  void recompute_reduced_costs();
  double internal_objective() const;  ///< minimize-sense, no constant
  bool restore_dual_feasible_rests();  ///< after bound changes; false = cold
  LpResult extract(std::int64_t iterations, bool warm);

  // -- simplex loops --------------------------------------------------------
  LpStatus phase1(std::int64_t* iterations);
  LpStatus primal_loop(std::int64_t* iterations);
  LpStatus dual_loop(double cutoff, std::int64_t* iterations);
  /// The loops' exit test: the iteration cap, or `stop_` has fired (polled
  /// every kStopPollIterations iterations; sticky once seen).
  bool out_of_iterations(std::int64_t iterations);
  int select_entering_primal(bool bland);
  LpResult cold_solve_current_bounds();

  const Model* model_;
  LpOptions options_;
  int m_ = 0;  ///< rows
  int n_ = 0;  ///< structural columns (logical columns follow)

  // Constraint matrix, structural part, compressed sparse column plus a
  // row-major mirror (same nonzeros) for pivot-row alpha scatters.
  std::vector<int> col_start_;   ///< size n_+1
  std::vector<int> col_row_;
  std::vector<double> col_val_;
  std::vector<int> row_start_;   ///< size m_+1
  std::vector<int> row_col_;
  std::vector<double> row_val_;
  std::vector<double> rhs_;
  std::vector<double> cost_;     ///< minimize-sense, structural (logicals 0)

  std::vector<double> lower_, upper_;       ///< per column incl. logicals
  std::vector<int> basis_;                  ///< row -> basic column
  std::vector<int> basic_row_;              ///< column -> row, -1 if nonbasic
  std::vector<std::uint8_t> at_upper_;      ///< nonbasic rest side
  std::vector<double> xb_;                  ///< basic values, row order
  std::vector<double> d_;                   ///< Phase-2 reduced costs
  std::vector<double> binv_;                ///< dense B^{-1}, column-major (kDense only)
  LuFactors lu_;                            ///< sparse factors (kSparseLu only)
  bool has_basis_ = false;                  ///< optimal factorized basis alive
  int updates_since_refactor_ = 0;
  bool in_phase2_ = false;                  ///< refactor() refreshes d_ too

  std::vector<double> work_col_, work_row_, work_rhs_;
  std::vector<double> work_alpha_;  ///< per-column pivot-row values
  std::vector<std::int64_t> alpha_stamp_;  ///< validity stamp for work_alpha_
  std::vector<int> alpha_touched_;         ///< columns with nonzero alpha
  std::int64_t alpha_epoch_ = 0;
  std::vector<double> devex_w_;      ///< per-column primal devex weights
  std::vector<double> devex_row_w_;  ///< per-row dual devex weights
  std::vector<double> refactor_mat_;
  std::vector<int> fb_start_, fb_row_;  ///< basis-column scratch for the LU
  std::vector<double> fb_val_;
  std::vector<int> candidates_;
  std::vector<std::pair<double, int>> sweep_;  ///< pricing scratch
  LpSolverStats stats_;
  CancelToken stop_;
  bool stopped_ = false;  ///< `stop_` has fired
};

/// Solves the continuous relaxation of `model` (integrality dropped).
///
/// When `lower_override` / `upper_override` are provided they replace the
/// model's variable bounds — this is how branch and bound tightens bounds
/// per node without copying the model.  All variables must have a finite
/// lower or finite upper bound (true for every model this library builds).
LpResult solve_lp(const Model& model, const LpOptions& options = {},
                  const std::vector<double>* lower_override = nullptr,
                  const std::vector<double>* upper_override = nullptr);

}  // namespace fsyn::ilp
