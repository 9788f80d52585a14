// Exact dynamic-device mapping via the paper's ILP model (Section 3.2-3.4),
// solved with the in-tree MILP solver (the Gurobi substitute).
//
// Variables and constraints follow the paper:
//   s_{x,y,k,i}   selection binaries, one per (task, type, origin)   (Eq. 1)
//   v_{x,y} <= w  per-valve peristaltic load bound                   (Eq. 2, 9)
//   b_{i,le/ri/up/do} boundary (wall) coordinates linked to s        (Fig. 6a)
//   big-M disjunctive non-overlap with c1..c4, sum = 3               (Eq. 3-8)
//   storage-overlap relaxation binary c5, sum = 3 + c5               (Eq. 12)
//   routing-convenience distance d between sequential devices        (Eq. 13-16)
// The objective minimizes w (Eq. 10).  No placement has w below the load
// bound max_i p_i (each mixer pumps p_i on every valve of its ring): a warm
// start that meets it is returned as optimal without a search.
//
// The free-space rule for in-situ storages is *not* in the model (the paper
// also leaves it out for runtime, Algorithm 1 L6-L8): synthesis re-runs the
// mapper with the offending pair forbidden when the post-check fails.
#pragma once

#include <optional>

#include "ilp/branch_and_bound.hpp"
#include "synth/mapping_problem.hpp"

namespace fsyn::synth {

struct IlpMapperOptions {
  double time_limit_seconds = 120.0;
  std::int64_t max_nodes = 500'000;
  /// Optional warm start (e.g. the heuristic mapper's placement); must be
  /// feasible for the problem.
  std::optional<Placement> warm_start;
  /// Cooperative cancellation, forwarded to the MILP solve (polled with its
  /// deadline inside every LP and between nodes).
  CancelToken cancel;
  /// Tree-search workers (ilp::MilpOptions::threads); 0 = one reproducible worker.
  int threads = 0;
  /// Root cutting-plane loop (ilp::MilpOptions::cuts).
  bool cuts = true;
};

/// The solve's counters (ilp::SolveCounters) plus the placement it chose.
/// A warm start proved at the load bound has zero counters.
struct IlpMappingOutcome : ilp::SolveCounters {
  Placement placement;
  int max_pump_load = 0;
  int max_pump_load_setting2 = 0;
  ilp::MilpStatus status = ilp::MilpStatus::kLimit;
  double best_bound = 0.0;  ///< proven lower bound on w, never below max_i p_i
};

/// Builds and solves the mapping ILP.  Returns std::nullopt when the model
/// is infeasible (chip too small) or no incumbent was found within limits.
std::optional<IlpMappingOutcome> map_ilp(const MappingProblem& problem,
                                         const IlpMapperOptions& options = {});

}  // namespace fsyn::synth
