#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::ilp {

namespace {

/// Primal feasibility tolerance: basic values within this of their bounds
/// count as feasible (the solution is clamped into the box on extraction).
constexpr double kFeasTol = 1e-7;
/// Residual Phase-1 violation above which the LP is declared infeasible.
constexpr double kInfeasibleTol = 1e-6;
/// Reduced-cost sign tolerance when revalidating rest sides on warm starts.
constexpr double kDualSignTol = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
constexpr int kBlandThreshold = 64;
/// Devex weights above this trigger a reference-framework restart (all
/// weights back to 1); keeps the approximation from drifting unboundedly.
constexpr double kDevexResetLimit = 1e7;
/// Iterations between polls of the stop token (a few ms on the mapping
/// models, a clock read each).
constexpr std::int64_t kStopPollIterations = 32;
/// Zero tolerance of the ratio tests, pricing and reduced-cost signs.
constexpr double kZeroTol = 1e-9;
/// Product-form basis updates between full refactorizations (numerical
/// refresh of the factorization, basic values and reduced costs).
constexpr int kRefactorInterval = 96;
/// Sparse LU only: refactorize early once the eta file holds more than
/// this multiple of the factorization's nonzeros (fill control between
/// the periodic refactorizations).
constexpr double kEtaGrowthLimit = 8.0;

}  // namespace

const char* to_string(BasisKind kind) {
  return kind == BasisKind::kDense ? "dense" : "sparse_lu";
}

const char* to_string(PricingRule rule) {
  return rule == PricingRule::kDantzig ? "dantzig" : "devex";
}

bool basis_kind_from_string(std::string_view text, BasisKind* out) {
  if (text == "dense") {
    *out = BasisKind::kDense;
    return true;
  }
  if (text == "sparse_lu" || text == "sparse") {
    *out = BasisKind::kSparseLu;
    return true;
  }
  return false;
}

bool pricing_rule_from_string(std::string_view text, PricingRule* out) {
  if (text == "dantzig") {
    *out = PricingRule::kDantzig;
    return true;
  }
  if (text == "devex") {
    *out = PricingRule::kDevex;
    return true;
  }
  return false;
}

LpSolver::LpSolver(const Model& model, const LpOptions& options)
    : model_(&model), options_(options) {
  n_ = model.variable_count();
  m_ = model.constraint_count();
  const int total = total_columns();

  // ---- constraint matrix, structural columns: CSC + row-major mirror ----
  Model::CompressedMatrix cm = model.compressed_matrix();
  col_start_ = std::move(cm.col_start);
  col_row_ = std::move(cm.col_row);
  col_val_ = std::move(cm.col_val);
  row_start_ = std::move(cm.row_start);
  row_col_ = std::move(cm.row_col);
  row_val_ = std::move(cm.row_val);
  rhs_.reserve(static_cast<std::size_t>(m_));
  for (const Constraint& c : model.constraints()) rhs_.push_back(c.rhs);
  cost_ = model.minimize_objective();

  // ---- bounds: structural (set per solve) then one logical per row ----
  lower_.assign(static_cast<std::size_t>(total), 0.0);
  upper_.assign(static_cast<std::size_t>(total), 0.0);
  for (int i = 0; i < m_; ++i) {
    const std::size_t j = static_cast<std::size_t>(n_ + i);
    switch (model.constraints()[static_cast<std::size_t>(i)].relation) {
      case Relation::kLessEqual:
        lower_[j] = 0.0;
        upper_[j] = kInfinity;
        break;
      case Relation::kGreaterEqual:
        lower_[j] = -kInfinity;
        upper_[j] = 0.0;
        break;
      case Relation::kEqual:
        lower_[j] = 0.0;
        upper_[j] = 0.0;
        break;
    }
  }

  basis_.assign(static_cast<std::size_t>(m_), -1);
  basic_row_.assign(static_cast<std::size_t>(total), -1);
  at_upper_.assign(static_cast<std::size_t>(total), 0);
  xb_.assign(static_cast<std::size_t>(m_), 0.0);
  d_.assign(static_cast<std::size_t>(total), 0.0);
  if (!sparse_basis()) {
    // The dense inverse (m^2 doubles) exists only in dense mode; the sparse
    // path keeps the basis in lu_ instead.
    binv_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_), 0.0);
  }
  work_col_.assign(static_cast<std::size_t>(m_), 0.0);
  work_row_.assign(static_cast<std::size_t>(m_), 0.0);
  work_rhs_.assign(static_cast<std::size_t>(m_), 0.0);
  work_alpha_.assign(static_cast<std::size_t>(total), 0.0);
  alpha_stamp_.assign(static_cast<std::size_t>(total), 0);
  devex_w_.assign(static_cast<std::size_t>(total), 1.0);
  devex_row_w_.assign(static_cast<std::size_t>(m_), 1.0);
}

// ---------------------------------------------------------- linear algebra

void LpSolver::ftran(int j, std::vector<double>& w) const {
  std::fill(w.begin(), w.end(), 0.0);
  if (sparse_basis()) {
    if (is_logical(j)) {
      w[static_cast<std::size_t>(j - n_)] = 1.0;
    } else {
      for (int idx = col_start_[static_cast<std::size_t>(j)]; idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
        w[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(idx)])] =
            col_val_[static_cast<std::size_t>(idx)];
      }
    }
    lu_.ftran(w);
    return;
  }
  if (is_logical(j)) {
    const double* col = binv_.data() + static_cast<std::size_t>(j - n_) * static_cast<std::size_t>(m_);
    std::copy(col, col + m_, w.begin());
    return;
  }
  for (int idx = col_start_[static_cast<std::size_t>(j)]; idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
    const double v = col_val_[static_cast<std::size_t>(idx)];
    const double* col = binv_.data() +
                        static_cast<std::size_t>(col_row_[static_cast<std::size_t>(idx)]) * static_cast<std::size_t>(m_);
    for (int i = 0; i < m_; ++i) w[static_cast<std::size_t>(i)] += v * col[i];
  }
}

void LpSolver::gather_row(int r, std::vector<double>& rho) const {
  if (sparse_basis()) {
    std::fill(rho.begin(), rho.end(), 0.0);
    rho[static_cast<std::size_t>(r)] = 1.0;
    lu_.btran(rho);
    return;
  }
  for (int k = 0; k < m_; ++k) {
    rho[static_cast<std::size_t>(k)] =
        binv_[static_cast<std::size_t>(k) * static_cast<std::size_t>(m_) + static_cast<std::size_t>(r)];
  }
}

void LpSolver::btran_vec(const std::vector<double>& v, std::vector<double>& y) const {
  if (sparse_basis()) {
    y = v;
    lu_.btran(y);
    return;
  }
  for (int k = 0; k < m_; ++k) {
    const double* col = binv_.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(m_);
    double acc = 0.0;
    for (int i = 0; i < m_; ++i) acc += v[static_cast<std::size_t>(i)] * col[i];
    y[static_cast<std::size_t>(k)] = acc;
  }
}

void LpSolver::compute_pivot_row_alphas(const std::vector<double>& rho) {
  alpha_touched_.clear();
  const std::int64_t cur = ++alpha_epoch_;
  for (int i = 0; i < m_; ++i) {
    const double t = rho[static_cast<std::size_t>(i)];
    if (t == 0.0) continue;
    const int lj = n_ + i;  // logical column of row i has alpha rho_i
    work_alpha_[static_cast<std::size_t>(lj)] = t;
    alpha_stamp_[static_cast<std::size_t>(lj)] = cur;
    alpha_touched_.push_back(lj);
    for (int idx = row_start_[static_cast<std::size_t>(i)]; idx < row_start_[static_cast<std::size_t>(i) + 1]; ++idx) {
      const int j = row_col_[static_cast<std::size_t>(idx)];
      if (alpha_stamp_[static_cast<std::size_t>(j)] != cur) {
        work_alpha_[static_cast<std::size_t>(j)] = 0.0;
        alpha_stamp_[static_cast<std::size_t>(j)] = cur;
        alpha_touched_.push_back(j);
      }
      work_alpha_[static_cast<std::size_t>(j)] += t * row_val_[static_cast<std::size_t>(idx)];
    }
  }
}

void LpSolver::reset_devex_weights() {
  std::fill(devex_w_.begin(), devex_w_.end(), 1.0);
  std::fill(devex_row_w_.begin(), devex_row_w_.end(), 1.0);
  ++stats_.devex_resets;
}

double LpSolver::column_dot(const std::vector<double>& y, int j) const {
  if (is_logical(j)) return y[static_cast<std::size_t>(j - n_)];
  double acc = 0.0;
  for (int idx = col_start_[static_cast<std::size_t>(j)]; idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
    acc += col_val_[static_cast<std::size_t>(idx)] * y[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(idx)])];
  }
  return acc;
}

bool LpSolver::apply_basis_change(int r, const std::vector<double>& w) {
  ++updates_since_refactor_;
  if (sparse_basis()) {
    const std::int64_t before = lu_.eta_nnz();
    if (!lu_.update(r, w)) return false;  // unstable eta pivot: refactorize
    ++stats_.eta_pivots;
    stats_.eta_nnz += lu_.eta_nnz() - before;
    return true;
  }
  // B_new^{-1} = E B^{-1} with E the elementary matrix of pivot column w at
  // row r; applied column by column (binv_ is column-major).
  const double pivot = w[static_cast<std::size_t>(r)];
  // Same relative stability guard as LuFactors::update: a pivot much smaller
  // than the rest of the column amplifies roundoff by |w_i / pivot|; fall
  // back to a fresh refactorization instead of poisoning binv_.
  double wmax = 0.0;
  for (int i = 0; i < m_; ++i) wmax = std::max(wmax, std::abs(w[static_cast<std::size_t>(i)]));
  if (std::abs(pivot) < 1e-6 * wmax) return false;
  for (int k = 0; k < m_; ++k) {
    double* col = binv_col(k);
    const double f = col[r] / pivot;
    if (f == 0.0) continue;
    for (int i = 0; i < m_; ++i) col[i] -= f * w[static_cast<std::size_t>(i)];
    col[r] = f;
  }
  return true;
}

bool LpSolver::needs_refactor() const {
  if (updates_since_refactor_ >= kRefactorInterval) return true;
  // Sparse only: cut the eta file short once applying it costs more than a
  // fresh factorization would.
  return sparse_basis() &&
         static_cast<double>(lu_.eta_nnz()) >
             kEtaGrowthLimit * static_cast<double>(std::max<std::int64_t>(lu_.lu_nnz(), m_));
}

bool LpSolver::factorize_sparse_basis() {
  fb_start_.assign(1, 0);
  fb_row_.clear();
  fb_val_.clear();
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[static_cast<std::size_t>(i)];
    if (is_logical(j)) {
      fb_row_.push_back(j - n_);
      fb_val_.push_back(1.0);
    } else {
      for (int idx = col_start_[static_cast<std::size_t>(j)]; idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
        fb_row_.push_back(col_row_[static_cast<std::size_t>(idx)]);
        fb_val_.push_back(col_val_[static_cast<std::size_t>(idx)]);
      }
    }
    fb_start_.push_back(static_cast<int>(fb_row_.size()));
  }
  if (!lu_.factorize(m_, fb_start_, fb_row_, fb_val_)) return false;
  ++stats_.lu_refactorizations;
  stats_.lu_fill_nnz += lu_.lu_nnz();
  stats_.lu_basis_nnz += lu_.basis_nnz();
  return true;
}

bool LpSolver::refactor() {
  ++stats_.refactorizations;
  updates_since_refactor_ = 0;
  if (m_ == 0) return true;
  if (sparse_basis()) {
    if (!factorize_sparse_basis()) return false;
    recompute_basic_values();
    if (in_phase2_) recompute_reduced_costs();
    return true;
  }
  const std::size_t mm = static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
  // Row-major Gauss-Jordan with partial pivoting: a = B, inv = I.
  refactor_mat_.assign(mm * 2, 0.0);
  double* a = refactor_mat_.data();
  double* inv = refactor_mat_.data() + mm;
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[static_cast<std::size_t>(i)];
    if (is_logical(j)) {
      a[static_cast<std::size_t>(j - n_) * static_cast<std::size_t>(m_) + static_cast<std::size_t>(i)] = 1.0;
    } else {
      for (int idx = col_start_[static_cast<std::size_t>(j)]; idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
        a[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(idx)]) * static_cast<std::size_t>(m_) +
          static_cast<std::size_t>(i)] = col_val_[static_cast<std::size_t>(idx)];
      }
    }
    inv[static_cast<std::size_t>(i) * static_cast<std::size_t>(m_) + static_cast<std::size_t>(i)] = 1.0;
  }
  for (int c = 0; c < m_; ++c) {
    int p = c;
    double best = std::abs(a[static_cast<std::size_t>(c) * static_cast<std::size_t>(m_) + static_cast<std::size_t>(c)]);
    for (int r = c + 1; r < m_; ++r) {
      const double mag = std::abs(a[static_cast<std::size_t>(r) * static_cast<std::size_t>(m_) + static_cast<std::size_t>(c)]);
      if (mag > best) {
        best = mag;
        p = r;
      }
    }
    if (best < 1e-11) return false;
    double* row_c = a + static_cast<std::size_t>(c) * static_cast<std::size_t>(m_);
    double* inv_c = inv + static_cast<std::size_t>(c) * static_cast<std::size_t>(m_);
    if (p != c) {
      std::swap_ranges(row_c, row_c + m_, a + static_cast<std::size_t>(p) * static_cast<std::size_t>(m_));
      std::swap_ranges(inv_c, inv_c + m_, inv + static_cast<std::size_t>(p) * static_cast<std::size_t>(m_));
    }
    const double scale = 1.0 / row_c[c];
    for (int k = 0; k < m_; ++k) {
      row_c[k] *= scale;
      inv_c[k] *= scale;
    }
    for (int r = 0; r < m_; ++r) {
      if (r == c) continue;
      double* row_r = a + static_cast<std::size_t>(r) * static_cast<std::size_t>(m_);
      const double f = row_r[c];
      if (f == 0.0) continue;
      double* inv_r = inv + static_cast<std::size_t>(r) * static_cast<std::size_t>(m_);
      for (int k = 0; k < m_; ++k) {
        row_r[k] -= f * row_c[k];
        inv_r[k] -= f * inv_c[k];
      }
    }
  }
  // Transpose the row-major inverse into the column-major binv_.
  for (int i = 0; i < m_; ++i) {
    for (int k = 0; k < m_; ++k) {
      binv_[static_cast<std::size_t>(k) * static_cast<std::size_t>(m_) + static_cast<std::size_t>(i)] =
          inv[static_cast<std::size_t>(i) * static_cast<std::size_t>(m_) + static_cast<std::size_t>(k)];
    }
  }
  recompute_basic_values();
  if (in_phase2_) recompute_reduced_costs();
  return true;
}

// -------------------------------------------------------- state management

void LpSolver::set_structural_bounds(const std::vector<double>& lower,
                                     const std::vector<double>& upper) {
  std::copy(lower.begin(), lower.end(), lower_.begin());
  std::copy(upper.begin(), upper.end(), upper_.begin());
}

void LpSolver::reset_to_logical_basis() {
  std::fill(basic_row_.begin(), basic_row_.end(), -1);
  for (int j = 0; j < n_; ++j) {
    check_input(std::isfinite(lower_[static_cast<std::size_t>(j)]) ||
                    std::isfinite(upper_[static_cast<std::size_t>(j)]),
                "simplex requires each variable to have a finite bound");
    at_upper_[static_cast<std::size_t>(j)] = !std::isfinite(lower_[static_cast<std::size_t>(j)]);
  }
  for (int i = 0; i < m_; ++i) {
    basis_[static_cast<std::size_t>(i)] = n_ + i;
    basic_row_[static_cast<std::size_t>(n_ + i)] = i;
    at_upper_[static_cast<std::size_t>(n_ + i)] = 0;
  }
  if (sparse_basis()) {
    factorize_sparse_basis();  // identity basis: cannot fail
  } else {
    std::fill(binv_.begin(), binv_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      binv_[static_cast<std::size_t>(i) * static_cast<std::size_t>(m_) + static_cast<std::size_t>(i)] = 1.0;
    }
  }
  // A cold start abandons the old basis trajectory, so the devex reference
  // framework restarts too (not counted as a drift reset).
  std::fill(devex_w_.begin(), devex_w_.end(), 1.0);
  std::fill(devex_row_w_.begin(), devex_row_w_.end(), 1.0);
  updates_since_refactor_ = 0;
  recompute_basic_values();
}

void LpSolver::recompute_basic_values() {
  work_rhs_ = rhs_;
  for (int j = 0; j < total_columns(); ++j) {
    if (basic_row_[static_cast<std::size_t>(j)] >= 0) continue;
    const double x = rest_value(j);
    require(std::isfinite(x), "nonbasic rest value not finite");
    if (x == 0.0) continue;
    if (is_logical(j)) {
      work_rhs_[static_cast<std::size_t>(j - n_)] -= x;
    } else {
      for (int idx = col_start_[static_cast<std::size_t>(j)]; idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
        work_rhs_[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(idx)])] -=
            col_val_[static_cast<std::size_t>(idx)] * x;
      }
    }
  }
  if (sparse_basis()) {
    xb_ = work_rhs_;
    lu_.ftran(xb_);
  } else {
    std::fill(xb_.begin(), xb_.end(), 0.0);
    for (int k = 0; k < m_; ++k) {
      const double t = work_rhs_[static_cast<std::size_t>(k)];
      if (t == 0.0) continue;
      const double* col = binv_.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(m_);
      for (int i = 0; i < m_; ++i) xb_[static_cast<std::size_t>(i)] += t * col[i];
    }
  }
}

void LpSolver::recompute_reduced_costs() {
  // y = c_B' B^{-1}: one BTRAN with the basic cost vector.
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[static_cast<std::size_t>(i)];
    work_col_[static_cast<std::size_t>(i)] = is_logical(j) ? 0.0 : cost_[static_cast<std::size_t>(j)];
  }
  btran_vec(work_col_, work_row_);
  std::fill(d_.begin(), d_.end(), 0.0);
  for (int j = 0; j < total_columns(); ++j) {
    if (basic_row_[static_cast<std::size_t>(j)] >= 0) continue;
    const double cost = is_logical(j) ? 0.0 : cost_[static_cast<std::size_t>(j)];
    d_[static_cast<std::size_t>(j)] = cost - column_dot(work_row_, j);
  }
}

double LpSolver::internal_objective() const {
  double obj = 0.0;
  for (int j = 0; j < n_; ++j) {
    const double c = cost_[static_cast<std::size_t>(j)];
    if (c == 0.0) continue;
    const int row = basic_row_[static_cast<std::size_t>(j)];
    obj += c * (row >= 0 ? xb_[static_cast<std::size_t>(row)] : rest_value(j));
  }
  return obj;
}

bool LpSolver::restore_dual_feasible_rests() {
  for (int j = 0; j < n_; ++j) {
    if (basic_row_[static_cast<std::size_t>(j)] >= 0) continue;
    const double lo = lower_[static_cast<std::size_t>(j)];
    const double hi = upper_[static_cast<std::size_t>(j)];
    if (hi - lo <= kZeroTol) {  // fixed: rest value is unique, dual sign is free
      at_upper_[static_cast<std::size_t>(j)] = 0;
      continue;
    }
    const double dj = d_[static_cast<std::size_t>(j)];
    const bool upper_ok = std::isfinite(hi) && dj <= kDualSignTol;
    const bool lower_ok = std::isfinite(lo) && dj >= -kDualSignTol;
    if (at_upper_[static_cast<std::size_t>(j)]) {
      if (!upper_ok) {
        if (!lower_ok) return false;
        at_upper_[static_cast<std::size_t>(j)] = 0;
      }
    } else {
      if (!lower_ok) {
        if (!upper_ok) return false;
        at_upper_[static_cast<std::size_t>(j)] = 1;
      }
    }
  }
  return true;
}

LpResult LpSolver::extract(std::int64_t iterations, bool warm) {
  LpResult result;
  result.status = LpStatus::kOptimal;
  result.iterations = iterations;
  result.warm_started = warm;
  result.values.assign(static_cast<std::size_t>(n_), 0.0);
  for (int j = 0; j < n_; ++j) {
    const int row = basic_row_[static_cast<std::size_t>(j)];
    double v = row >= 0 ? xb_[static_cast<std::size_t>(row)] : rest_value(j);
    // Clamp tiny numerical excursions back into the bound box.
    const double lo = lower_[static_cast<std::size_t>(j)];
    const double hi = upper_[static_cast<std::size_t>(j)];
    v = std::clamp(v, std::isfinite(lo) ? lo : v, std::isfinite(hi) ? hi : v);
    result.values[static_cast<std::size_t>(j)] = v;
  }
  result.objective = model_->objective_value(result.values);
  return result;
}

// ------------------------------------------------------------ simplex loops

bool LpSolver::out_of_iterations(std::int64_t iterations) {
  if (iterations >= options_.max_iterations || stopped_) return true;
  if (stop_.valid() && iterations % kStopPollIterations == 0) stopped_ = stop_.cancelled();
  return stopped_;
}

/// Artificial-free Phase 1: minimize the total bound violation of the basic
/// variables (composite cost: -1 below lower, +1 above upper), recomputed
/// per iteration.  Violated basics may leave at the bound they reach.
LpStatus LpSolver::phase1(std::int64_t* iterations) {
  int degenerate_streak = 0;
  bool bland = false;
  std::vector<double>& w = work_col_;
  std::vector<double>& y = work_row_;
  std::vector<double>& cb = work_rhs_;

  for (;;) {
    if (out_of_iterations(*iterations)) return LpStatus::kIterationLimit;
    double total_violation = 0.0;
    bool any_violated = false;
    for (int i = 0; i < m_; ++i) {
      const int p = basis_[static_cast<std::size_t>(i)];
      const double lo = lower_[static_cast<std::size_t>(p)];
      const double hi = upper_[static_cast<std::size_t>(p)];
      double c = 0.0;
      if (xb_[static_cast<std::size_t>(i)] < lo - kFeasTol) {
        c = -1.0;
        total_violation += lo - xb_[static_cast<std::size_t>(i)];
      } else if (xb_[static_cast<std::size_t>(i)] > hi + kFeasTol) {
        c = 1.0;
        total_violation += xb_[static_cast<std::size_t>(i)] - hi;
      }
      cb[static_cast<std::size_t>(i)] = c;
      any_violated |= c != 0.0;
    }
    if (!any_violated) return LpStatus::kOptimal;

    btran_vec(cb, y);

    // Entering column: reduces the composite infeasibility.
    int entering = -1;
    double entering_dir = 0.0;
    double best_violation = kZeroTol;
    for (int j = 0; j < total_columns(); ++j) {
      if (basic_row_[static_cast<std::size_t>(j)] >= 0) continue;
      const double lo = lower_[static_cast<std::size_t>(j)];
      const double hi = upper_[static_cast<std::size_t>(j)];
      if (hi - lo <= kZeroTol) continue;  // fixed column can never improve
      const double dj = -column_dot(y, j);
      double violation = 0.0;
      double dir = 0.0;
      if (!at_upper_[static_cast<std::size_t>(j)] && dj < -kZeroTol) {
        violation = -dj;
        dir = 1.0;
      } else if (at_upper_[static_cast<std::size_t>(j)] && dj > kZeroTol) {
        violation = dj;
        dir = -1.0;
      } else {
        continue;
      }
      if (bland) {  // first eligible index
        entering = j;
        entering_dir = dir;
        break;
      }
      if (violation > best_violation) {
        best_violation = violation;
        entering = j;
        entering_dir = dir;
      }
    }
    if (entering == -1) {
      return total_violation > kInfeasibleTol ? LpStatus::kInfeasible : LpStatus::kOptimal;
    }

    ftran(entering, w);

    // Ratio test.  Feasible basics stay inside their bounds; violated
    // basics are capped only when moving toward (and reaching) the bound
    // they violate, where they leave the basis exactly feasible.
    const double own_span =
        upper_[static_cast<std::size_t>(entering)] - lower_[static_cast<std::size_t>(entering)];
    double best_t = own_span;
    int leaving_row = -1;
    bool leaving_at_upper = false;
    double best_mag = 0.0;
    for (int i = 0; i < m_; ++i) {
      const double rate = -w[static_cast<std::size_t>(i)] * entering_dir;
      if (std::abs(rate) <= kZeroTol) continue;
      const int p = basis_[static_cast<std::size_t>(i)];
      const double lo = lower_[static_cast<std::size_t>(p)];
      const double hi = upper_[static_cast<std::size_t>(p)];
      const double value = xb_[static_cast<std::size_t>(i)];
      double limit = kInfinity;
      bool at_up = false;
      if (value < lo - kFeasTol) {
        if (rate > 0.0) limit = (lo - value) / rate;
      } else if (value > hi + kFeasTol) {
        if (rate < 0.0) {
          limit = (hi - value) / rate;
          at_up = true;
        }
      } else if (rate > 0.0) {
        if (std::isfinite(hi)) {
          limit = (hi - value) / rate;
          at_up = true;
        }
      } else {
        if (std::isfinite(lo)) limit = (lo - value) / rate;
      }
      if (!std::isfinite(limit)) continue;
      limit = std::max(limit, 0.0);
      const double mag = std::abs(w[static_cast<std::size_t>(i)]);
      const bool strictly_better = limit < best_t - kZeroTol;
      const bool tie = limit < best_t + kZeroTol;
      if (strictly_better ||
          (tie && leaving_row >= 0 &&
           (bland ? p < basis_[static_cast<std::size_t>(leaving_row)] : mag > best_mag))) {
        best_t = std::min(best_t, limit);
        leaving_row = i;
        best_mag = mag;
        leaving_at_upper = at_up;
      }
    }
    // The composite objective is bounded below by zero, so an unbounded
    // ray is a numerical artifact; give up rather than loop.
    if (!std::isfinite(best_t)) return LpStatus::kIterationLimit;

    if (best_t < kZeroTol) {
      if (++degenerate_streak > kBlandThreshold) bland = true;
    } else {
      degenerate_streak = 0;
    }

    ++*iterations;
    ++stats_.iterations;
    const double delta = entering_dir * best_t;
    for (int i = 0; i < m_; ++i) {
      xb_[static_cast<std::size_t>(i)] -= w[static_cast<std::size_t>(i)] * delta;
    }
    if (leaving_row < 0 || own_span <= best_t) {
      at_upper_[static_cast<std::size_t>(entering)] = entering_dir > 0.0;
      ++stats_.bound_flips;
      continue;
    }

    ++stats_.primal_pivots;
    const double entering_value = rest_value(entering) + delta;
    const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
    require(std::abs(w[static_cast<std::size_t>(leaving_row)]) > kZeroTol, "zero pivot in simplex");
    at_upper_[static_cast<std::size_t>(leaving)] = leaving_at_upper;
    basis_[static_cast<std::size_t>(leaving_row)] = entering;
    basic_row_[static_cast<std::size_t>(entering)] = leaving_row;
    basic_row_[static_cast<std::size_t>(leaving)] = -1;
    const bool rep_ok = apply_basis_change(leaving_row, w);
    xb_[static_cast<std::size_t>(leaving_row)] = entering_value;
    if (!rep_ok || needs_refactor()) {
      if (!refactor()) return LpStatus::kIterationLimit;  // numerically wedged basis
    }
  }
}

int LpSolver::select_entering_primal(bool bland) {
  const bool use_devex = devex();
  auto violation_of = [&](int j) -> double {
    if (basic_row_[static_cast<std::size_t>(j)] >= 0) return 0.0;
    const double lo = lower_[static_cast<std::size_t>(j)];
    const double hi = upper_[static_cast<std::size_t>(j)];
    if (hi - lo <= kZeroTol) return 0.0;  // fixed column can never improve
    const double dj = d_[static_cast<std::size_t>(j)];
    if (!at_upper_[static_cast<std::size_t>(j)] && dj < -kZeroTol) return -dj;
    if (at_upper_[static_cast<std::size_t>(j)] && dj > kZeroTol) return dj;
    return 0.0;
  };
  // Devex scores d_j^2 / w_j — the approximate steepest-edge merit — while
  // Dantzig scores |d_j| directly.  Eligibility is by |d_j| either way.
  auto score_of = [&](int j) -> double {
    const double v = violation_of(j);
    if (v == 0.0 || !use_devex) return v;
    return v * v / devex_w_[static_cast<std::size_t>(j)];
  };

  if (bland) {
    for (int j = 0; j < total_columns(); ++j) {
      if (violation_of(j) > 0.0) return j;
    }
    return -1;
  }

  // Partial pricing: reuse the candidate list while any entry is still
  // eligible, refresh with a full sweep only when it runs dry.
  int best = -1;
  double best_violation = 0.0;
  for (const int j : candidates_) {
    const double v = score_of(j);
    if (v > best_violation) {
      best_violation = v;
      best = j;
    }
  }
  if (best != -1) return best;

  sweep_.clear();
  for (int j = 0; j < total_columns(); ++j) {
    const double v = score_of(j);
    if (v > 0.0) sweep_.push_back({v, j});
  }
  if (sweep_.empty()) return -1;
  // Partial pricing: keep a short list sized from the column count instead
  // of pricing every column on every pivot.
  const std::size_t keep = static_cast<std::size_t>(std::clamp(total_columns() / 8, 8, 64));
  if (sweep_.size() > keep) {
    std::nth_element(sweep_.begin(), sweep_.begin() + static_cast<std::ptrdiff_t>(keep) - 1,
                     sweep_.end(), std::greater<>());
    sweep_.resize(keep);
  }
  candidates_.clear();
  best_violation = 0.0;
  for (const auto& [v, j] : sweep_) {
    candidates_.push_back(j);
    if (v > best_violation) {
      best_violation = v;
      best = j;
    }
  }
  return best;
}

LpStatus LpSolver::primal_loop(std::int64_t* iterations) {
  int degenerate_streak = 0;
  bool bland = false;
  std::vector<double>& w = work_col_;

  for (;;) {
    if (out_of_iterations(*iterations)) return LpStatus::kIterationLimit;
    const int entering = select_entering_primal(bland);
    if (entering == -1) return LpStatus::kOptimal;
    if (devex() && devex_w_[static_cast<std::size_t>(entering)] > kDevexResetLimit) {
      reset_devex_weights();  // reference framework drifted too far
    }
    const double dir = at_upper_[static_cast<std::size_t>(entering)] ? -1.0 : 1.0;
    ftran(entering, w);

    const double own_span =
        upper_[static_cast<std::size_t>(entering)] - lower_[static_cast<std::size_t>(entering)];
    double best_t = own_span;
    int leaving_row = -1;
    double best_mag = 0.0;
    for (int i = 0; i < m_; ++i) {
      const double g = w[static_cast<std::size_t>(i)] * dir;
      const int p = basis_[static_cast<std::size_t>(i)];
      double limit = kInfinity;
      if (g > kZeroTol) {
        const double lo = lower_[static_cast<std::size_t>(p)];
        if (std::isfinite(lo)) limit = (xb_[static_cast<std::size_t>(i)] - lo) / g;
      } else if (g < -kZeroTol) {
        const double hi = upper_[static_cast<std::size_t>(p)];
        if (std::isfinite(hi)) limit = (hi - xb_[static_cast<std::size_t>(i)]) / (-g);
      } else {
        continue;
      }
      if (!std::isfinite(limit)) continue;
      limit = std::max(limit, 0.0);
      const double mag = std::abs(w[static_cast<std::size_t>(i)]);
      const bool strictly_better = limit < best_t - kZeroTol;
      const bool tie = limit < best_t + kZeroTol;
      if (strictly_better ||
          (tie && leaving_row >= 0 &&
           (bland ? p < basis_[static_cast<std::size_t>(leaving_row)] : mag > best_mag))) {
        best_t = std::min(best_t, limit);
        leaving_row = i;
        best_mag = mag;
      }
    }
    if (!std::isfinite(best_t)) return LpStatus::kUnbounded;

    if (best_t < kZeroTol) {
      if (++degenerate_streak > kBlandThreshold) bland = true;
    } else {
      degenerate_streak = 0;
    }

    ++*iterations;
    ++stats_.iterations;
    const double delta = dir * best_t;
    for (int i = 0; i < m_; ++i) {
      xb_[static_cast<std::size_t>(i)] -= w[static_cast<std::size_t>(i)] * delta;
    }
    if (leaving_row < 0 || own_span <= best_t) {
      // Entering reached its opposite bound first: flip, no basis change.
      at_upper_[static_cast<std::size_t>(entering)] = dir > 0.0;
      ++stats_.bound_flips;
      continue;
    }

    ++stats_.primal_pivots;
    const double entering_value = rest_value(entering) + delta;
    const double pivot = w[static_cast<std::size_t>(leaving_row)];
    require(std::abs(pivot) > kZeroTol, "zero pivot in simplex");
    const int leaving = basis_[static_cast<std::size_t>(leaving_row)];

    // Incremental reduced-cost update: d_j -= theta_d * alpha_rj using the
    // pivot row gathered from the (pre-update) basis representation.  The
    // alphas come from a row-major scatter over the pivot row's nonzeros,
    // so the cost follows the sparsity of e_r' B^{-1} — and the devex
    // weight update rides the same loop for free.
    gather_row(leaving_row, work_row_);
    compute_pivot_row_alphas(work_row_);
    const double theta_d = d_[static_cast<std::size_t>(entering)] / pivot;
    const bool use_devex = devex();
    const double wq = devex_w_[static_cast<std::size_t>(entering)];
    const double inv_pivot2 = 1.0 / (pivot * pivot);
    for (const int j : alpha_touched_) {
      if (basic_row_[static_cast<std::size_t>(j)] >= 0 || j == entering) continue;
      const double alpha = work_alpha_[static_cast<std::size_t>(j)];
      if (alpha == 0.0) continue;
      d_[static_cast<std::size_t>(j)] -= theta_d * alpha;
      if (use_devex) {
        const double cand = alpha * alpha * inv_pivot2 * wq;
        if (cand > devex_w_[static_cast<std::size_t>(j)]) devex_w_[static_cast<std::size_t>(j)] = cand;
      }
    }
    d_[static_cast<std::size_t>(leaving)] = -theta_d;
    d_[static_cast<std::size_t>(entering)] = 0.0;
    if (use_devex) {
      devex_w_[static_cast<std::size_t>(leaving)] = std::max(wq * inv_pivot2, 1.0);
    }

    at_upper_[static_cast<std::size_t>(leaving)] = pivot * dir < 0.0;
    basis_[static_cast<std::size_t>(leaving_row)] = entering;
    basic_row_[static_cast<std::size_t>(entering)] = leaving_row;
    basic_row_[static_cast<std::size_t>(leaving)] = -1;
    const bool rep_ok = apply_basis_change(leaving_row, w);
    xb_[static_cast<std::size_t>(leaving_row)] = entering_value;
    if (!rep_ok || needs_refactor()) {
      if (!refactor()) return LpStatus::kIterationLimit;  // numerically wedged basis
    }
  }
}

/// Bounded-variable dual simplex: the basis stays dual feasible while
/// primal bound violations (introduced by branching bound changes) are
/// pivoted out one by one.  The running objective is a valid lower bound,
/// so a finite `cutoff` allows early termination.
LpStatus LpSolver::dual_loop(double cutoff, std::int64_t* iterations) {
  int degenerate_streak = 0;
  bool bland = false;
  std::vector<double>& rho = work_row_;
  std::vector<double>& w = work_col_;
  const bool use_devex = devex();
  double obj = internal_objective();
  // The incremental objective is exact until a non-degenerate pivot moves
  // it; tracking that means a cutoff rejection triggers at most one exact
  // recomputation per improving pivot instead of one per iteration while
  // the objective hovers at the cutoff (degenerate stalls recompute never).
  bool obj_exact = true;

  for (;;) {
    if (out_of_iterations(*iterations)) return LpStatus::kIterationLimit;

    // Leaving row: the most violated basic variable, scaled by the devex
    // row norms when enabled (violation^2 / gamma_i, approx. steepest edge).
    int r = -1;
    double best_score = 0.0;
    bool below = false;
    for (int i = 0; i < m_; ++i) {
      const int p = basis_[static_cast<std::size_t>(i)];
      const double lo_gap = lower_[static_cast<std::size_t>(p)] - xb_[static_cast<std::size_t>(i)];
      const double hi_gap = xb_[static_cast<std::size_t>(i)] - upper_[static_cast<std::size_t>(p)];
      const double gap = lo_gap > hi_gap ? lo_gap : hi_gap;
      if (gap <= kFeasTol) continue;
      const double score =
          use_devex ? gap * gap / devex_row_w_[static_cast<std::size_t>(i)] : gap;
      if (score > best_score) {
        best_score = score;
        r = i;
        below = lo_gap > hi_gap;
      }
    }
    if (r == -1) return LpStatus::kOptimal;  // primal feasible again
    if (use_devex && devex_row_w_[static_cast<std::size_t>(r)] > kDevexResetLimit) {
      std::fill(devex_row_w_.begin(), devex_row_w_.end(), 1.0);
      ++stats_.devex_resets;
    }

    if (obj >= cutoff) {
      // The bound only ever grows; confirm with an exact recomputation
      // before pruning on it — unless the running value is already exact.
      if (!obj_exact) {
        obj = internal_objective();
        obj_exact = true;
      }
      if (obj >= cutoff) return LpStatus::kCutoff;
    }

    const int p = basis_[static_cast<std::size_t>(r)];
    const double e = below ? xb_[static_cast<std::size_t>(r)] - lower_[static_cast<std::size_t>(p)]
                           : xb_[static_cast<std::size_t>(r)] - upper_[static_cast<std::size_t>(p)];
    const double s = below ? -1.0 : 1.0;
    gather_row(r, rho);
    compute_pivot_row_alphas(rho);

    // Dual ratio test, two passes over the pivot row's nonzero columns:
    // find the smallest ratio keeping every nonbasic reduced cost on its
    // feasible side, then take the largest pivot inside a small window
    // above it (numerical stability; tiny pivots are what drive the basis
    // singular).  Columns outside alpha_touched_ have alpha 0 and can
    // neither enter nor need a d update.
    auto dual_ratio = [&](int j) -> double {
      const double a = s * work_alpha_[static_cast<std::size_t>(j)];
      if (at_upper_[static_cast<std::size_t>(j)] ? a >= -kZeroTol : a <= kZeroTol) return kInfinity;
      return std::max(d_[static_cast<std::size_t>(j)] / a, 0.0);  // clamp drift
    };
    double min_ratio = kInfinity;
    for (const int j : alpha_touched_) {
      if (basic_row_[static_cast<std::size_t>(j)] >= 0) continue;
      if (upper_[static_cast<std::size_t>(j)] - lower_[static_cast<std::size_t>(j)] <= kZeroTol) {
        continue;  // fixed column can never enter
      }
      min_ratio = std::min(min_ratio, dual_ratio(j));
    }
    if (!std::isfinite(min_ratio)) return LpStatus::kInfeasible;  // dual unbounded
    int q = -1;
    double best_mag = 0.0;
    double alpha_q = 0.0;
    const double window = min_ratio + (bland ? 0.0 : kDualSignTol);
    for (const int j : alpha_touched_) {
      if (basic_row_[static_cast<std::size_t>(j)] >= 0) continue;
      const std::size_t sj = static_cast<std::size_t>(j);
      if (upper_[sj] - lower_[sj] <= kZeroTol) continue;
      if (dual_ratio(j) > window) continue;
      const double mag = std::abs(work_alpha_[static_cast<std::size_t>(j)]);
      if (q == -1 || (bland ? j < q : mag > best_mag)) {
        q = j;
        best_mag = mag;
        alpha_q = work_alpha_[static_cast<std::size_t>(j)];
      }
    }

    ftran(q, w);
    const double delta = e / alpha_q;  // entering movement off its bound
    const double entering_value = rest_value(q) + delta;
    const double theta_d = d_[static_cast<std::size_t>(q)] / alpha_q;

    for (int i = 0; i < m_; ++i) {
      xb_[static_cast<std::size_t>(i)] -= w[static_cast<std::size_t>(i)] * delta;
    }
    for (const int j : alpha_touched_) {
      if (basic_row_[static_cast<std::size_t>(j)] >= 0 || j == q) continue;
      const double alpha = work_alpha_[static_cast<std::size_t>(j)];
      if (alpha != 0.0) d_[static_cast<std::size_t>(j)] -= theta_d * alpha;
    }
    d_[static_cast<std::size_t>(p)] = -theta_d;
    d_[static_cast<std::size_t>(q)] = 0.0;

    if (use_devex) {
      // Row-norm update rides the FTRAN column already in hand: gamma_i is
      // kept a valid reference-framework weight for the new basis.
      const double ar = w[static_cast<std::size_t>(r)];  // == alpha_q up to drift
      const double inv_ar2 = 1.0 / (ar * ar);
      const double gr = devex_row_w_[static_cast<std::size_t>(r)];
      for (int i = 0; i < m_; ++i) {
        if (i == r) continue;
        const double wi = w[static_cast<std::size_t>(i)];
        if (wi == 0.0) continue;
        const double cand = wi * wi * inv_ar2 * gr;
        if (cand > devex_row_w_[static_cast<std::size_t>(i)]) {
          devex_row_w_[static_cast<std::size_t>(i)] = cand;
        }
      }
      devex_row_w_[static_cast<std::size_t>(r)] = std::max(gr * inv_ar2, 1.0);
    }

    at_upper_[static_cast<std::size_t>(p)] = !below;
    basis_[static_cast<std::size_t>(r)] = q;
    basic_row_[static_cast<std::size_t>(q)] = r;
    basic_row_[static_cast<std::size_t>(p)] = -1;
    const bool rep_ok = apply_basis_change(r, w);
    xb_[static_cast<std::size_t>(r)] = entering_value;

    const double gain = theta_d * e;  // >= 0: the dual objective is monotone
    obj += gain;
    if (gain != 0.0) obj_exact = false;
    if (gain < kZeroTol) {
      if (++degenerate_streak > kBlandThreshold) bland = true;
    } else {
      degenerate_streak = 0;
    }

    ++*iterations;
    ++stats_.iterations;
    ++stats_.dual_pivots;
    if (!rep_ok || needs_refactor()) {
      if (!refactor()) return LpStatus::kIterationLimit;  // numerically wedged basis
      obj = internal_objective();
      obj_exact = true;
    }
  }
}

// ------------------------------------------------------------- entry points

LpResult LpSolver::cold_solve_current_bounds() {
  ++stats_.cold_solves;
  has_basis_ = false;
  in_phase2_ = false;
  reset_to_logical_basis();

  std::int64_t iterations = 0;
  const LpStatus feasibility = phase1(&iterations);
  if (feasibility != LpStatus::kOptimal) {
    LpResult result;
    result.status = feasibility == LpStatus::kInfeasible ? LpStatus::kInfeasible
                                                         : LpStatus::kIterationLimit;
    result.iterations = iterations;
    return result;
  }

  recompute_reduced_costs();
  in_phase2_ = true;
  const LpStatus status = primal_loop(&iterations);
  if (status != LpStatus::kOptimal) {
    LpResult result;
    result.status = status;
    result.iterations = iterations;
    return result;
  }
  has_basis_ = true;
  return extract(iterations, false);
}

LpResult LpSolver::solve(const std::vector<double>& lower, const std::vector<double>& upper) {
  set_structural_bounds(lower, upper);
  return cold_solve_current_bounds();
}

LpResult LpSolver::resolve(const std::vector<double>& lower, const std::vector<double>& upper,
                           double cutoff) {
  if (!has_basis_) return solve(lower, upper);
  set_structural_bounds(lower, upper);
  if (!restore_dual_feasible_rests()) return cold_solve_current_bounds();
  recompute_basic_values();
  in_phase2_ = true;

  std::int64_t iterations = 0;
  const LpStatus dual = dual_loop(cutoff, &iterations);
  if (dual == LpStatus::kIterationLimit && !stopped_) {
    // The warm path stalled (degeneracy or drift); a cold run is always
    // available and correct.
    LpResult cold = cold_solve_current_bounds();
    cold.iterations += iterations;
    return cold;
  }
  if (dual != LpStatus::kOptimal) {
    // Cutoff, infeasible or stopped: the basis stays dual feasible, so the
    // next resolve can warm start.
    ++stats_.warm_solves;
    LpResult result;
    result.status = dual;
    result.iterations = iterations;
    result.warm_started = true;
    return result;
  }

  // Primal feasible again: refresh the reduced costs and certify optimality
  // with a (usually zero-pivot) primal cleanup pass.
  recompute_reduced_costs();
  const LpStatus status = primal_loop(&iterations);
  if (status == LpStatus::kOptimal) {
    ++stats_.warm_solves;
    has_basis_ = true;
    return extract(iterations, true);
  }
  has_basis_ = false;
  LpResult result;
  result.status = status;
  result.iterations = iterations;
  result.warm_started = true;
  return result;
}

// ---------------------------------------------------- cut-loop row support

void LpSolver::tableau_row(int r, LpTableauRow* out) {
  require(has_basis_ && r >= 0 && r < m_, "tableau_row requires an optimal basis");
  out->basic_col = basis_[static_cast<std::size_t>(r)];
  out->value = xb_[static_cast<std::size_t>(r)];
  out->cols.clear();
  out->alphas.clear();
  gather_row(r, work_row_);
  compute_pivot_row_alphas(work_row_);
  for (const int j : alpha_touched_) {
    if (basic_row_[static_cast<std::size_t>(j)] >= 0) continue;  // basic: alpha unused
    const double alpha = work_alpha_[static_cast<std::size_t>(j)];
    // Alphas at roundoff level contribute O(1e-12) to a cut coefficient; the
    // generator's rhs safety margin absorbs that, so drop them here.
    if (std::abs(alpha) <= 1e-12) continue;
    out->cols.push_back(j);
    out->alphas.push_back(alpha);
  }
}

bool LpSolver::append_rows(const std::vector<LpCutRow>& rows) {
  if (rows.empty()) return true;
  require(has_basis_, "append_rows requires a solved basis");
  const int added = static_cast<int>(rows.size());
  const int old_total = total_columns();

  // Grow the row-major mirror and rhs.  Entries are sorted by column so the
  // per-row layout matches what the Model constructor would have produced.
  for (const LpCutRow& row : rows) {
    require(row.cols.size() == row.vals.size(), "cut row shape mismatch");
    std::vector<std::pair<int, double>> entries;
    entries.reserve(row.cols.size());
    for (std::size_t k = 0; k < row.cols.size(); ++k) {
      const int j = row.cols[k];
      require(j >= 0 && j < n_, "cut row touches a non-structural column");
      if (row.vals[k] != 0.0) entries.emplace_back(j, row.vals[k]);
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [j, v] : entries) {
      row_col_.push_back(j);
      row_val_.push_back(v);
    }
    row_start_.push_back(static_cast<int>(row_col_.size()));
    rhs_.push_back(row.rhs);
  }
  m_ += added;

  // Rebuild the CSC columns from the mirror (row-sorted within each column
  // because rows are scanned in order).
  col_start_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const int j : row_col_) ++col_start_[static_cast<std::size_t>(j) + 1];
  for (int j = 0; j < n_; ++j) {
    col_start_[static_cast<std::size_t>(j) + 1] += col_start_[static_cast<std::size_t>(j)];
  }
  std::vector<int> next(col_start_.begin(), col_start_.end() - 1);
  std::vector<int> new_col_row(row_col_.size());
  std::vector<double> new_col_val(row_val_.size());
  for (int i = 0; i < m_; ++i) {
    for (int idx = row_start_[static_cast<std::size_t>(i)]; idx < row_start_[static_cast<std::size_t>(i) + 1]; ++idx) {
      const int j = row_col_[static_cast<std::size_t>(idx)];
      const int at = next[static_cast<std::size_t>(j)]++;
      new_col_row[static_cast<std::size_t>(at)] = i;
      new_col_val[static_cast<std::size_t>(at)] = row_val_[static_cast<std::size_t>(idx)];
    }
  }
  col_row_ = std::move(new_col_row);
  col_val_ = std::move(new_col_val);

  // Column-indexed state grows at the tail: old logical columns keep their
  // indices (n_ + row), the new rows' logicals land after them.
  const int total = total_columns();
  lower_.resize(static_cast<std::size_t>(total), 0.0);
  upper_.resize(static_cast<std::size_t>(total), kInfinity);
  at_upper_.resize(static_cast<std::size_t>(total), 0);
  basic_row_.resize(static_cast<std::size_t>(total), -1);
  d_.resize(static_cast<std::size_t>(total), 0.0);
  work_alpha_.resize(static_cast<std::size_t>(total), 0.0);
  alpha_stamp_.resize(static_cast<std::size_t>(total), 0);
  devex_w_.resize(static_cast<std::size_t>(total), 1.0);

  // Row-indexed state.
  xb_.resize(static_cast<std::size_t>(m_), 0.0);
  work_col_.resize(static_cast<std::size_t>(m_), 0.0);
  work_row_.resize(static_cast<std::size_t>(m_), 0.0);
  work_rhs_.resize(static_cast<std::size_t>(m_), 0.0);
  devex_row_w_.resize(static_cast<std::size_t>(m_), 1.0);
  if (!sparse_basis()) {
    binv_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_), 0.0);
  }

  // Each new slack enters the basis: the basis matrix becomes [[B,0],[C,I]],
  // nonsingular whenever B was, and the new rows' duals start at zero so the
  // existing reduced costs are unchanged.
  for (int k = 0; k < added; ++k) {
    const int j = old_total + k;
    basis_.push_back(j);
    basic_row_[static_cast<std::size_t>(j)] = (m_ - added) + k;
  }
  stats_.rows_appended += added;
  in_phase2_ = true;  // refactor() refreshes the reduced costs too
  if (!refactor()) {
    has_basis_ = false;
    return false;
  }
  return true;
}

LpResult solve_lp(const Model& model, const LpOptions& options,
                  const std::vector<double>* lower_override,
                  const std::vector<double>* upper_override) {
  if (lower_override) {
    require(static_cast<int>(lower_override->size()) == model.variable_count(),
            "lower_override size mismatch");
  }
  if (upper_override) {
    require(static_cast<int>(upper_override->size()) == model.variable_count(),
            "upper_override size mismatch");
  }
  std::vector<double> lower, upper;
  lower.reserve(static_cast<std::size_t>(model.variable_count()));
  upper.reserve(static_cast<std::size_t>(model.variable_count()));
  for (int j = 0; j < model.variable_count(); ++j) {
    const Variable& v = model.variable(VarId{j});
    const double lo = lower_override ? (*lower_override)[static_cast<std::size_t>(j)] : v.lower;
    const double hi = upper_override ? (*upper_override)[static_cast<std::size_t>(j)] : v.upper;
    // A bound box that is empty in any coordinate is trivially infeasible.
    if (lo > hi) {
      LpResult r;
      r.status = LpStatus::kInfeasible;
      return r;
    }
    lower.push_back(lo);
    upper.push_back(hi);
  }
  LpSolver solver(model, options);
  return solver.solve(lower, upper);
}

}  // namespace fsyn::ilp
