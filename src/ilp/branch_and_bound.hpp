// Exact MILP solver: best-first branch & bound over a persistent
// bounded-variable simplex relaxation (simplex.hpp).
//
// Features mirrored from production solvers because the mapping engine needs
// them: one `LpSolver` reused across all nodes with dual-simplex warm starts
// and objective-cutoff pruning inside the LP, an explicit best-first node
// stack ordered by parent LP bound (no recursion), pseudocost branching,
// warm starts from an initial incumbent (the heuristic mapper), node and
// wall-clock limits with best-found reporting, and a rounding primal
// heuristic at every node.
//
// One search engine, two schedules.  Each worker owns a private
// warm-started `LpSolver`, and the incumbent is shared through an atomic
// objective so bound pruning takes effect across all workers immediately.
// The default `threads = 0` runs one worker on the calling thread whose
// reruns are bit-identical.  `MilpOptions::threads >= 1` runs N
// asynchronous workers that pull bound-ordered nodes from a shared pool
// (global best-first heap plus per-worker dive stacks with stealing): the
// caller plus N - 1 tasks on the process-wide executor (svc/task_group.hpp),
// so solves nested in pooled jobs or sweep attempts share its helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "ilp/cuts.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "util/cancel.hpp"

namespace fsyn::ilp {

/// Largest `MilpOptions::threads` a solve accepts.
inline constexpr int kMaxMilpThreads = 64;

enum class MilpStatus {
  kOptimal,     ///< proven optimal incumbent
  kFeasible,    ///< limit hit; best incumbent returned
  kInfeasible,  ///< no integer point exists
  kUnbounded,   ///< LP relaxation unbounded
  kLimit        ///< limit hit before any incumbent was found
};

/// "optimal", "feasible", "infeasible", "unbounded" or "limit".
const char* to_string(MilpStatus status);

/// Per-worker counters of one tree search.
struct MilpWorkerStats {
  std::int64_t nodes = 0;   ///< LP relaxations this worker solved
  std::int64_t steals = 0;  ///< nodes taken from another worker's local stack
  std::int64_t lp_iterations = 0;
  double idle_seconds = 0.0;  ///< time spent without a node to expand
};

/// Counters of MILP solves, declared once and carried by value from
/// `solve_milp` through the mapper, scheduler and synthesis results to the
/// service metrics and the stored result.
struct SolveCounters {
  std::int64_t nodes = 0;          ///< LP relaxations solved
  std::int64_t lp_iterations = 0;  ///< simplex iterations across all nodes
  /// LP engine counters: warm/cold solves, primal/dual pivots, bound flips,
  /// refactorizations, LU/eta telemetry, summed over every worker's private
  /// solver.
  LpSolverStats lp;
  /// Counters of the root cutting-plane loop (zeros when cuts are off; the
  /// cut loop's LP work is folded into `lp` / `lp_iterations`).
  CutStats cuts;
  /// High-water footprint of the node/bound-chain arena.
  std::int64_t arena_bytes = 0;
  /// Branching decisions where the blended score was dominated by reliable
  /// per-variable impact data vs. ones that fell back to pseudocosts /
  /// global averages.
  std::int64_t impact_branch_decisions = 0;
  std::int64_t pseudocost_branch_decisions = 0;
  /// Workers the solve was given: 1 for `MilpOptions::threads = 0` (also
  /// when the cut loop's root LP gave up and the tree was not run); 0 when
  /// no search was needed: presolve settled the model, or the mapping ILP
  /// proved its warm start at the load bound without a solve.
  int threads = 0;
  std::int64_t steals = 0;    ///< total cross-worker node steals
  double idle_seconds = 0.0;  ///< summed worker idle time

  /// Folds another solve in: the widest solve for `arena_bytes` and
  /// `threads`, sums for everything else.
  void accumulate(const SolveCounters& other) {
    nodes += other.nodes;
    lp_iterations += other.lp_iterations;
    lp.accumulate(other.lp);
    cuts.accumulate(other.cuts);
    arena_bytes = std::max(arena_bytes, other.arena_bytes);
    impact_branch_decisions += other.impact_branch_decisions;
    pseudocost_branch_decisions += other.pseudocost_branch_decisions;
    threads = std::max(threads, other.threads);
    steals += other.steals;
    idle_seconds += other.idle_seconds;
  }

  bool operator==(const SolveCounters&) const = default;
};

struct MilpResult : SolveCounters {
  MilpStatus status = MilpStatus::kLimit;
  std::vector<double> values;  ///< incumbent (model order); empty if none
  double objective = 0.0;      ///< incumbent objective, user sense
  double best_bound = 0.0;     ///< proven bound on the optimum, user sense
  /// busy_time / (threads * wall).
  double parallel_efficiency = 1.0;
  std::vector<MilpWorkerStats> worker_stats;
};

struct MilpOptions {
  std::int64_t max_nodes = 2'000'000;
  /// Deadline from `solve_milp` entry, polled inside every LP; 0 = unlimited.
  double time_limit_seconds = 0.0;
  /// Stop when |incumbent - bound| <= gap (absolute, user sense).  The
  /// mapping objectives are integral, so 1 - 1e-6 proves optimality.
  double absolute_gap = 1.0 - 1e-6;
  /// Run bound-propagation presolve before the search (presolve.hpp).
  bool presolve = true;
  LpOptions lp;
  /// Reoptimize each node with the dual simplex from the previous basis
  /// instead of a cold Phase 1 + Phase 2 run.  Off is a debugging aid; the
  /// two paths must agree on every optimum.
  bool lp_warm_start = true;
  /// Root cutting-plane loop (cuts.hpp, run with `CutOptions{}`): tighten
  /// the relaxation before the tree search starts.  Off must give identical
  /// objectives, just more nodes (the fuzz matrix and perf-smoke CI enforce
  /// that parity).
  bool cuts = true;
  /// Optional warm-start point; must be feasible for the model.
  std::optional<std::vector<double>> initial_incumbent;
  /// Cooperative cancellation, polled with the deadline between cut rounds,
  /// between nodes and inside every LP; the best incumbent found so far is
  /// still returned.
  CancelToken cancel;

  // ---- tree-search workers --------------------------------------------------
  /// Workers exploring the tree, each with a private warm-started LpSolver,
  /// 0..kMaxMilpThreads.  0 (the default) runs one worker on the calling
  /// thread, so the search is reproducible: each node branches on
  /// statistics that include its own observation.  N >= 1 runs N
  /// asynchronous workers pulling bound-ordered nodes from a shared pool
  /// (global best-first heap + per-worker dive stacks with stealing) under
  /// a shared incumbent: the calling thread as worker 0, workers 1..N-1 as
  /// executor tasks.  The calling thread never waits for a helper to come
  /// free, so progress does not depend on the executor having one; a
  /// worker no helper started before the search ended runs as a no-op.
  int threads = 0;
};

MilpResult solve_milp(const Model& model, const MilpOptions& options = {});

}  // namespace fsyn::ilp
