#include "ilp/presolve.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace fsyn::ilp {

namespace {

/// Propagation rounds before presolve stops short of a fixpoint.
constexpr int kMaxRounds = 16;
/// Bound-comparison tolerance: the rounding slack of integer bounds and the
/// margin a tightening, or crossed bounds, must exceed.
constexpr double kTol = 1e-9;

/// One directed inequality sum(a_j x_j) <= b (equalities contribute two).
struct Row {
  std::vector<LinearExpr::Term> terms;
  double rhs;
};

/// The bound that minimizes a term's contribution to its row's activity.
double minimizing_bound(const LinearExpr::Term& term, const std::vector<double>& lower,
                        const std::vector<double>& upper) {
  return term.coeff > 0 ? lower[static_cast<std::size_t>(term.var.index)]
                        : upper[static_cast<std::size_t>(term.var.index)];
}

}  // namespace

PresolveResult presolve(const Model& model) {
  PresolveResult result;
  result.lower.reserve(static_cast<std::size_t>(model.variable_count()));
  result.upper.reserve(static_cast<std::size_t>(model.variable_count()));
  for (const Variable& v : model.variables()) {
    result.lower.push_back(v.lower);
    result.upper.push_back(v.upper);
  }

  // Normalize: every constraint becomes one or two <= rows.
  std::vector<Row> rows;
  for (const Constraint& c : model.constraints()) {
    if (c.relation == Relation::kLessEqual || c.relation == Relation::kEqual) {
      rows.push_back(Row{c.terms, c.rhs});
    }
    if (c.relation == Relation::kGreaterEqual || c.relation == Relation::kEqual) {
      Row flipped{c.terms, -c.rhs};
      for (auto& term : flipped.terms) term.coeff = -term.coeff;
      rows.push_back(std::move(flipped));
    }
  }

  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (const Row& row : rows) {
      // Row min activity in one pass: finite part plus a count of infinite
      // contributions.  "Activity without term k" is then O(1) per term: it
      // is finite only when every *other* term is finite.  Tightenings
      // inside this row never invalidate the sums, because a term's min
      // activity uses the opposite bound from the one its tightening moves.
      double finite_sum = 0.0;
      std::size_t infinite_count = 0;
      std::size_t infinite_term = 0;
      for (std::size_t k = 0; k < row.terms.size(); ++k) {
        const double contribution =
            row.terms[k].coeff * minimizing_bound(row.terms[k], result.lower, result.upper);
        if (std::isfinite(contribution)) {
          finite_sum += contribution;
        } else {
          ++infinite_count;
          infinite_term = k;
        }
      }
      if (infinite_count > 1) continue;  // no implied bound available anywhere
      for (std::size_t k = 0; k < row.terms.size(); ++k) {
        const auto& term = row.terms[k];
        const std::size_t j = static_cast<std::size_t>(term.var.index);
        if (infinite_count == 1 && k != infinite_term) continue;
        const double others =
            infinite_count == 1
                ? finite_sum
                : finite_sum - term.coeff * minimizing_bound(term, result.lower, result.upper);
        if (!std::isfinite(others)) continue;  // no implied bound available
        const double residual = row.rhs - others;
        // a_j * x_j <= residual.
        if (term.coeff > 0) {
          double implied = residual / term.coeff;
          if (model.variable(term.var).type != VarType::kContinuous) {
            implied = std::floor(implied + kTol);
          }
          if (implied < result.upper[j] - kTol) {
            result.upper[j] = implied;
            ++result.tightenings;
            changed = true;
          }
        } else {
          double implied = residual / term.coeff;  // negative coeff: lower bound
          if (model.variable(term.var).type != VarType::kContinuous) {
            implied = std::ceil(implied - kTol);
          }
          if (implied > result.lower[j] + kTol) {
            result.lower[j] = implied;
            ++result.tightenings;
            changed = true;
          }
        }
        if (result.lower[j] > result.upper[j] + kTol) {
          result.status = PresolveStatus::kInfeasible;
          return result;
        }
      }
    }
    if (!changed) break;
  }

  for (int j = 0; j < model.variable_count(); ++j) {
    if (std::abs(result.lower[static_cast<std::size_t>(j)] -
                 result.upper[static_cast<std::size_t>(j)]) <= kTol) {
      ++result.fixed_variables;
    }
  }
  return result;
}

}  // namespace fsyn::ilp
