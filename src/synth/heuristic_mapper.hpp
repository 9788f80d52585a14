// Heuristic dynamic-device mapper: greedy construction + simulated
// annealing refinement.
//
// The paper solves the mapping ILP with Gurobi; this reproduction's exact
// solver (synth/ilp_mapper.hpp) handles PCR-sized instances, while the two
// large dilution cases use this heuristic.  Both optimize the identical
// objective — the largest per-valve peristaltic actuation count — under the
// identical feasibility predicate (MappingProblem::pair_feasible), so the
// comparison against the traditional baseline is apples-to-apples.  On
// small instances the heuristic is validated against the exact ILP optimum
// in tests and in bench_ablation_ilp.
#pragma once

#include <cstdint>
#include <optional>

#include "synth/mapping_problem.hpp"
#include "util/cancel.hpp"

namespace fsyn::synth {

struct HeuristicOptions {
  std::uint64_t seed = 2015;
  /// Randomized greedy restarts when the deterministic pass finds no
  /// feasible construction (tight chips).
  int greedy_retries = 12;
  /// Simulated-annealing move budget; 0 disables refinement (pure greedy).
  int sa_iterations = 20000;
  /// Cooperative cancellation, polled between greedy restarts and every few
  /// hundred annealing moves; `map_heuristic` throws CancelledError.
  CancelToken cancel;
  /// Optional incumbent placement to start from (e.g. a minimally repaired
  /// previous mapping during degraded re-synthesis).  Adopted instead of
  /// greedy construction when it is feasible for this problem; annealing
  /// then refines it.  Silently ignored when infeasible or wrongly sized.
  std::optional<Placement> warm_start;
};

struct MappingOutcome {
  Placement placement;
  int max_pump_load = 0;           ///< paper objective w, setting 1
  int max_pump_load_setting2 = 0;  ///< same placement, rescaled p_i
  long moves_tried = 0;
  long moves_accepted = 0;
};

/// Maps all tasks; returns std::nullopt when even greedy construction finds
/// no feasible placement (chip too small — the caller should enlarge it).
std::optional<MappingOutcome> map_heuristic(const MappingProblem& problem,
                                            const HeuristicOptions& options = {});

}  // namespace fsyn::synth
