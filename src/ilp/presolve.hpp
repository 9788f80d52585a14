// Presolve for MILP models: iterated bound propagation.
//
// For each row sum(a_j x_j) <= b, the minimum activity of the other terms
// implies a bound on every variable; integer bounds are rounded inward.
// Iterating to a fixpoint shrinks the branch & bound root box, detects
// trivially infeasible models early, and fixes variables whose bounds
// collapse.  This is the standard first stage of production MILP solvers;
// solve_milp runs it by default.
#pragma once

#include <vector>

#include "ilp/model.hpp"

namespace fsyn::ilp {

enum class PresolveStatus { kOk, kInfeasible };

struct PresolveResult {
  PresolveStatus status = PresolveStatus::kOk;
  std::vector<double> lower;  ///< tightened bounds, model variable order
  std::vector<double> upper;
  int tightenings = 0;        ///< number of individual bound improvements
  int fixed_variables = 0;    ///< variables with lower == upper afterwards
};

/// Propagates bounds through all constraints until a fixpoint or 16
/// rounds.  Never loses integer-feasible points: only implied bounds are
/// applied.
PresolveResult presolve(const Model& model);

}  // namespace fsyn::ilp
