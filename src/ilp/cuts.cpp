#include "ilp/cuts.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace fsyn::ilp {

namespace {

/// Basic-value fractionality outside [kFracMin, 1-kFracMin] is too close to
/// integral to yield a numerically trustworthy Gomory cut.
constexpr double kFracMin = 0.005;
/// Relative slack added to every GMI right-hand side so floating-point noise
/// in the tableau extraction can never make an integer-feasible point
/// violate the cut (validity is exact in rational arithmetic).
constexpr double kRhsSafety = 1e-6;
/// Coefficients below this fraction of the cut's largest one are dropped
/// (with a conservative rhs correction) to keep rows short and stable.
constexpr double kTinyCoef = 1e-9;
/// Cuts whose kept coefficients span a wider dynamic range than this are
/// discarded as numerically fragile.
constexpr double kMaxDynamicRange = 1e8;
/// Bound-fix / integrality classification tolerance.
constexpr double kIntegralTol = 1e-9;
/// Separation rounds at the root.
constexpr int kMaxRounds = 8;
/// Unapplied candidates the pool keeps between rounds.
constexpr int kMaxPoolSize = 64;
/// LP-point violation a cut needs to enter the pool.
constexpr double kMinViolation = 1e-4;
/// Cosine similarity above which a candidate counts as parallel to a cut
/// already held or selected and is skipped (near-duplicate rows add no
/// strength).
constexpr double kMaxParallelism = 0.9;
/// Rounds a cut may stay inactive (pool: unselected; applied: slack loose)
/// before it ages out.
constexpr int kMaxAge = 2;
/// The loop stops once a round improves the root bound by no more than
/// this (absolute, internal minimize sense).
constexpr double kMinBoundImprovement = 1e-9;

double fractional_part(double v) { return v - std::floor(v); }

bool near_integral(double v) { return std::abs(v - std::round(v)) <= kIntegralTol; }

double cut_activity(const Cut& cut, const std::vector<double>& point) {
  double acc = 0.0;
  for (std::size_t k = 0; k < cut.cols.size(); ++k) {
    acc += cut.vals[k] * point[static_cast<std::size_t>(cut.cols[k])];
  }
  return acc;
}

double cut_norm(const Cut& cut) {
  double acc = 0.0;
  for (const double v : cut.vals) acc += v * v;
  return std::sqrt(acc);
}

/// Compacts a dense >=-form inequality into a <=-form Cut, dropping tiny
/// coefficients with a conservative rhs correction against the root box.
/// Returns false when the row is numerically useless or fragile.
bool finalize_gomory_cut(const std::vector<double>& coef_ge, double rhs_ge,
                         const std::vector<double>& lower, const std::vector<double>& upper,
                         Cut* out) {
  const int n = static_cast<int>(coef_ge.size());
  double max_abs = 0.0;
  for (const double c : coef_ge) max_abs = std::max(max_abs, std::abs(c));
  if (max_abs < 1e-7) return false;  // empty or all-noise row

  out->kind = CutKind::kGomory;
  out->cols.clear();
  out->vals.clear();
  double rhs_le = -rhs_ge;
  double min_abs = max_abs;
  for (int j = 0; j < n; ++j) {
    const double d = -coef_ge[static_cast<std::size_t>(j)];  // <=-form coefficient
    if (d == 0.0) continue;
    if (std::abs(d) < kTinyCoef * max_abs) {
      // Dropping d*x_j stays valid if the rhs absorbs the term's worst case
      // over the root box; an unbounded direction means the term must stay.
      const double bound = d > 0.0 ? lower[static_cast<std::size_t>(j)]
                                   : upper[static_cast<std::size_t>(j)];
      if (!std::isfinite(bound)) return false;
      rhs_le -= d * bound;
      continue;
    }
    min_abs = std::min(min_abs, std::abs(d));
    out->cols.push_back(j);
    out->vals.push_back(d);
  }
  if (out->cols.empty()) return false;
  if (max_abs / min_abs > kMaxDynamicRange) return false;
  if (!std::isfinite(rhs_le) || std::abs(rhs_le) > 1e10) return false;
  out->rhs = rhs_le + kRhsSafety * (1.0 + std::abs(rhs_le));
  out->age = 0;
  return true;
}

}  // namespace

double cut_violation(const Cut& cut, const std::vector<double>& point) {
  const double norm = std::max(1.0, cut_norm(cut));
  return (cut_activity(cut, point) - cut.rhs) / norm;
}

double cut_parallelism(const Cut& a, const Cut& b) {
  // Sparse dot over column-sorted supports.
  double dot = 0.0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.cols.size() && ib < b.cols.size()) {
    if (a.cols[ia] < b.cols[ib]) {
      ++ia;
    } else if (a.cols[ia] > b.cols[ib]) {
      ++ib;
    } else {
      dot += a.vals[ia] * b.vals[ib];
      ++ia;
      ++ib;
    }
  }
  const double na = cut_norm(a);
  const double nb = cut_norm(b);
  if (na <= 0.0 || nb <= 0.0) return 1.0;
  return std::abs(dot) / (na * nb);
}

// ------------------------------------------------------------------- pool

bool CutPool::add(Cut cut, const std::vector<double>& point) {
  const double violation = cut_violation(cut, point);
  if (!(violation >= kMinViolation)) return false;
  for (const Cut& held : cuts_) {
    if (cut_parallelism(cut, held) > kMaxParallelism) return false;
  }
  if (static_cast<int>(cuts_.size()) >= kMaxPoolSize) {
    // Full: replace the weakest cut if the newcomer separates deeper.
    std::size_t weakest = 0;
    double weakest_violation = cut_violation(cuts_[0], point);
    for (std::size_t k = 1; k < cuts_.size(); ++k) {
      const double v = cut_violation(cuts_[k], point);
      if (v < weakest_violation) {
        weakest_violation = v;
        weakest = k;
      }
    }
    if (violation <= weakest_violation) return false;
    cuts_[weakest] = std::move(cut);
    return true;
  }
  cuts_.push_back(std::move(cut));
  return true;
}

std::vector<Cut> CutPool::take_round(const std::vector<double>& point) {
  std::vector<std::pair<double, std::size_t>> ranked;  // violation desc
  ranked.reserve(cuts_.size());
  for (std::size_t k = 0; k < cuts_.size(); ++k) {
    const double v = cut_violation(cuts_[k], point);
    if (v >= kMinViolation) ranked.emplace_back(-v, k);
  }
  std::sort(ranked.begin(), ranked.end());

  std::vector<Cut> selected;
  std::vector<std::size_t> taken;
  for (const auto& [neg_violation, k] : ranked) {
    if (static_cast<int>(selected.size()) >= options_.max_cuts_per_round) break;
    bool parallel = false;
    for (const Cut& s : selected) {
      if (cut_parallelism(cuts_[k], s) > kMaxParallelism) {
        parallel = true;
        break;
      }
    }
    if (parallel) continue;
    selected.push_back(cuts_[k]);
    taken.push_back(k);
  }
  // Remove the selected cuts from the pool (descending index erase).
  std::sort(taken.begin(), taken.end());
  for (std::size_t q = taken.size(); q-- > 0;) {
    cuts_.erase(cuts_.begin() + static_cast<std::ptrdiff_t>(taken[q]));
  }
  return selected;
}

void CutPool::age_round() {
  std::size_t kept = 0;
  for (std::size_t k = 0; k < cuts_.size(); ++k) {
    if (++cuts_[k].age >= kMaxAge) {
      ++aged_out_;
      continue;
    }
    if (kept != k) cuts_[kept] = std::move(cuts_[k]);
    ++kept;
  }
  cuts_.resize(kept);
}

// ------------------------------------------------------------- generators

std::vector<Cut> generate_gomory_cuts(const Model& model, LpSolver& solver,
                                      const std::vector<Cut>& applied_cuts,
                                      const std::vector<double>& lower,
                                      const std::vector<double>& upper,
                                      const CutOptions& options) {
  std::vector<Cut> cuts;
  if (!solver.has_basis()) return cuts;
  const int n = solver.structural_count();
  const int model_rows = model.constraint_count();

  // Candidate rows: structural integer basic variables at fractional values,
  // most fractional first, capped so huge LPs don't pay one BTRAN per row.
  std::vector<std::pair<double, int>> candidates;  // |f0 - 0.5| asc, row
  for (int r = 0; r < solver.row_count(); ++r) {
    const int bj = solver.basic_column(r);
    if (bj >= n) continue;
    if (model.variable(VarId{bj}).type == VarType::kContinuous) continue;
    const double f0 = fractional_part(solver.basic_value(r));
    if (f0 < kFracMin || f0 > 1.0 - kFracMin) continue;
    candidates.emplace_back(std::abs(f0 - 0.5), r);
  }
  std::sort(candidates.begin(), candidates.end());
  const std::size_t row_cap =
      static_cast<std::size_t>(std::max(64, 4 * options.max_cuts_per_round));
  if (candidates.size() > row_cap) candidates.resize(row_cap);

  std::vector<double> coef(static_cast<std::size_t>(n), 0.0);
  LpTableauRow row;
  for (const auto& [dist, r] : candidates) {
    const double beta = solver.basic_value(r);
    const double f0 = fractional_part(beta);
    solver.tableau_row(r, &row);

    // GMI over the shifted nonbasics t_j (displacement from the rest bound):
    //   sum(gamma_j t_j) >= f0.
    // Unshift each t_j back to x_j and substitute slack columns away so the
    // final inequality touches structural variables only.
    std::fill(coef.begin(), coef.end(), 0.0);
    double rhs_ge = f0;
    bool ok = true;
    for (std::size_t k = 0; k < row.cols.size() && ok; ++k) {
      const int j = row.cols[k];
      const double lo = solver.column_lower(j);
      const double hi = solver.column_upper(j);
      if (hi - lo <= kIntegralTol) continue;  // fixed at its rest bound: t = 0
      const bool at_up = solver.column_at_upper(j);
      const double abar = at_up ? -row.alphas[k] : row.alphas[k];
      // Integer-variable strengthening applies only when the shift keeps
      // integrality: a structural integer column resting on an integral
      // bound.  Everything else (continuous columns, slacks) takes the
      // continuous GMI coefficient, which is always valid.
      const bool integer_shift = j < n &&
                                 model.variable(VarId{j}).type != VarType::kContinuous &&
                                 near_integral(at_up ? hi : lo);
      double gamma;
      if (integer_shift) {
        const double fj = fractional_part(abar);
        gamma = fj <= f0 ? fj : f0 * (1.0 - fj) / (1.0 - f0);
      } else {
        gamma = abar >= 0.0 ? abar : f0 * (-abar) / (1.0 - f0);
      }
      if (gamma <= 1e-12) continue;
      const double rest = at_up ? hi : lo;
      if (!std::isfinite(rest)) {  // a rest bound is finite by construction
        ok = false;
        break;
      }
      // gamma * t_j with t_j = x_j - lo (rest low) or hi - x_j (rest high):
      // the x part keeps sign c, the constant moves to the right-hand side.
      const double c = at_up ? -gamma : gamma;
      rhs_ge += c * rest;
      if (j < n) {
        coef[static_cast<std::size_t>(j)] += c;
        continue;
      }
      // Slack substitution: s_i = rhs_i - (row_i . x).
      const int i = solver.logical_row(j);
      if (i < model_rows) {
        const Constraint& con = model.constraints()[static_cast<std::size_t>(i)];
        for (const LinearExpr::Term& t : con.terms) {
          coef[static_cast<std::size_t>(t.var.index)] -= c * t.coeff;
        }
        rhs_ge -= c * con.rhs;
      } else {
        const Cut& ac = applied_cuts[static_cast<std::size_t>(i - model_rows)];
        for (std::size_t q = 0; q < ac.cols.size(); ++q) {
          coef[static_cast<std::size_t>(ac.cols[q])] -= c * ac.vals[q];
        }
        rhs_ge -= c * ac.rhs;
      }
    }
    if (!ok) continue;

    Cut cut;
    if (finalize_gomory_cut(coef, rhs_ge, lower, upper, &cut)) {
      cuts.push_back(std::move(cut));
    }
  }
  return cuts;
}

std::vector<Cut> generate_cover_cuts(const Model& model, const std::vector<double>& lower,
                                     const std::vector<double>& upper,
                                     const std::vector<double>& point) {
  std::vector<Cut> cuts;

  // One separation attempt for a single <=-sense knapsack direction
  // sum(a_j x_j) <= b over free binary columns.
  auto separate = [&](const std::vector<std::pair<int, double>>& terms, double b) {
    // Complement negative coefficients: x~ = 1 - x turns every weight
    // positive, so the classic cover argument applies.
    struct Item {
      int col;
      double weight;      // |a_j|
      double value;       // complemented LP value in [0, 1]
      bool complemented;  // a_j < 0
    };
    std::vector<Item> items;
    items.reserve(terms.size());
    double btilde = b;
    for (const auto& [j, a] : terms) {
      if (a == 0.0) continue;
      const double x = point[static_cast<std::size_t>(j)];
      if (a > 0.0) {
        items.push_back({j, a, std::clamp(x, 0.0, 1.0), false});
      } else {
        items.push_back({j, -a, std::clamp(1.0 - x, 0.0, 1.0), true});
        btilde -= a;  // shift: a*x = -|a| + |a|*(1-x)
      }
    }
    if (items.empty() || btilde < 0.0) return;

    // Greedy cover: take items the LP pushes hardest toward 1 until the
    // complemented weights overflow the capacity.
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.value > b.value; });
    double weight_sum = 0.0;
    std::size_t count = 0;
    while (count < items.size() && weight_sum <= btilde) {
      weight_sum += items[count].weight;
      ++count;
    }
    if (weight_sum <= btilde) return;  // the whole row fits: no cover exists
    std::vector<Item> cover(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(count));

    // Minimalize from the least fractional end: every removal that keeps the
    // weights above capacity strengthens the cut.
    for (std::size_t k = cover.size(); k-- > 0;) {
      if (weight_sum - cover[k].weight > btilde) {
        weight_sum -= cover[k].weight;
        cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }

    // Cover inequality sum(x~_j) <= |C| - 1, un-complemented back to x.
    double lp_lhs = 0.0;
    Cut cut;
    cut.kind = CutKind::kCover;
    double rhs = static_cast<double>(cover.size()) - 1.0;
    for (const Item& item : cover) {
      lp_lhs += item.value;
      if (item.complemented) {
        cut.cols.push_back(item.col);
        cut.vals.push_back(-1.0);
        rhs -= 1.0;
      } else {
        cut.cols.push_back(item.col);
        cut.vals.push_back(1.0);
      }
    }
    if (lp_lhs <= static_cast<double>(cover.size()) - 1.0 + kMinViolation) {
      return;  // not violated at the LP point: useless this round
    }
    cut.rhs = rhs;
    // Sort the support by column for the sparse parallelism dot.
    std::vector<std::size_t> order(cut.cols.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return cut.cols[a] < cut.cols[b]; });
    Cut sorted;
    sorted.kind = cut.kind;
    sorted.rhs = cut.rhs;
    for (const std::size_t k : order) {
      sorted.cols.push_back(cut.cols[k]);
      sorted.vals.push_back(cut.vals[k]);
    }
    cuts.push_back(std::move(sorted));
  };

  for (const Constraint& con : model.constraints()) {
    // The cover argument needs every free variable in the row to be binary
    // under the root box; variables fixed by the box fold into the capacity.
    std::vector<std::pair<int, double>> terms;
    double fixed = 0.0;
    bool eligible = true;
    for (const LinearExpr::Term& t : con.terms) {
      const int j = t.var.index;
      const double lo = lower[static_cast<std::size_t>(j)];
      const double hi = upper[static_cast<std::size_t>(j)];
      if (hi - lo <= kIntegralTol) {
        fixed += t.coeff * lo;
        continue;
      }
      if (model.variable(t.var).type == VarType::kContinuous ||
          std::abs(lo) > kIntegralTol || std::abs(hi - 1.0) > kIntegralTol) {
        eligible = false;
        break;
      }
      terms.emplace_back(j, t.coeff);
    }
    if (!eligible || terms.empty()) continue;
    if (con.relation == Relation::kLessEqual || con.relation == Relation::kEqual) {
      separate(terms, con.rhs - fixed);
    }
    if (con.relation == Relation::kGreaterEqual || con.relation == Relation::kEqual) {
      std::vector<std::pair<int, double>> negated = terms;
      for (auto& [j, a] : negated) a = -a;
      separate(negated, -(con.rhs - fixed));
    }
  }
  return cuts;
}

// -------------------------------------------------------------- root loop

RootCutOutcome run_root_cut_loop(const Model& model, const std::vector<double>& lower,
                                 const std::vector<double>& upper,
                                 const LpOptions& lp_options, const CutOptions& options,
                                 const CancelToken& stop) {
  RootCutOutcome out;
  if (options.max_cuts_per_round <= 0) return out;
  if (!model.has_integer_variables() || model.constraint_count() == 0) return out;

  LpSolver solver(model, lp_options);
  solver.set_stop(stop);
  LpResult lp = solver.solve(lower, upper);
  out.root_status = lp.status;
  if (lp.status != LpStatus::kOptimal) {
    out.lp = solver.stats();
    out.lp_iterations = out.lp.iterations;
    return out;
  }
  out.root_objective = lp.objective;
  const double sign = model.objective_sign();
  double prev_bound = sign * (lp.objective - model.objective_constant());

  CutPool pool(options);
  std::vector<Cut> applied;  // rows appended to the LP, in row order
  for (int round = 0; round < kMaxRounds; ++round) {
    if (stop.valid() && stop.cancelled()) break;

    std::vector<Cut> gomory =
        generate_gomory_cuts(model, solver, applied, lower, upper, options);
    std::vector<Cut> covers = generate_cover_cuts(model, lower, upper, lp.values);
    out.stats.gomory_generated += static_cast<std::int64_t>(gomory.size());
    out.stats.cover_generated += static_cast<std::int64_t>(covers.size());
    for (Cut& cut : gomory) pool.add(std::move(cut), lp.values);
    for (Cut& cut : covers) pool.add(std::move(cut), lp.values);

    std::vector<Cut> batch = pool.take_round(lp.values);
    if (batch.empty()) break;
    std::vector<LpCutRow> rows;
    rows.reserve(batch.size());
    for (const Cut& cut : batch) rows.push_back({cut.cols, cut.vals, cut.rhs});
    if (!solver.append_rows(rows)) break;
    out.stats.applied += static_cast<std::int64_t>(batch.size());
    ++out.stats.rounds;
    for (Cut& cut : batch) {
      cut.age = 0;
      applied.push_back(std::move(cut));
    }

    lp = solver.resolve(lower, upper);
    if (lp.status != LpStatus::kOptimal) {
      // Infeasible here proves the MILP infeasible (cuts are valid), but the
      // tree search re-derives that from the extended model either way.
      out.root_infeasible = lp.status == LpStatus::kInfeasible;
      break;
    }
    out.root_objective = lp.objective;

    // Age the applied rows by slack activity at the fresh optimum; a cut
    // that stays loose stopped shaping the relaxation.
    for (Cut& cut : applied) {
      const double slack = cut.rhs - cut_activity(cut, lp.values);
      if (slack > 1e-6 * (1.0 + std::abs(cut.rhs))) {
        ++cut.age;
      } else {
        cut.age = 0;
      }
    }
    pool.age_round();

    const double bound = sign * (lp.objective - model.objective_constant());
    const bool improved = bound - prev_bound > kMinBoundImprovement;
    prev_bound = bound;
    if (!improved) break;  // tailing off: extra rounds just bloat the LP
  }

  // The tree only carries cuts still doing work at the end of the loop.
  for (Cut& cut : applied) {
    if (cut.age >= kMaxAge) {
      ++out.stats.aged_out;
      continue;
    }
    out.cuts.push_back(std::move(cut));
  }
  out.stats.aged_out += pool.aged_out();
  out.stats.retained = static_cast<std::int64_t>(out.cuts.size());
  out.lp = solver.stats();
  out.lp_iterations = out.lp.iterations;
  return out;
}

}  // namespace fsyn::ilp
