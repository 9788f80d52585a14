// Reliability-aware synthesis — the paper's Algorithm 1, end to end.
//
//   L1   read sequencing graph + scheduling result
//   L2   build the virtual valve-centered architecture
//   L3-9 dynamic-device mapping (ILP or heuristic), re-run with storage
//        overlaps forbidden whenever the free-space rule fails
//   L10-19 route all transports with rip-up & re-route through storages
//   L20  remove never-actuated virtual valves
//
// The public entry point is `synthesize`; it returns placements, routed
// paths, both actuation ledgers (settings 1 and 2) and the headline metrics
// of Table 1 (vs_max, peristalsis-only vs_max, #v).
#pragma once

#include <optional>

#include "route/router.hpp"
#include "sim/actuation.hpp"
#include "synth/heuristic_mapper.hpp"
#include "synth/ilp_mapper.hpp"
#include "synth/mapping_problem.hpp"

namespace fsyn::synth {

enum class MapperKind { kHeuristic, kIlp };

struct SynthesisOptions {
  MapperKind mapper = MapperKind::kHeuristic;
  HeuristicOptions heuristic;
  IlpMapperOptions ilp;
  /// Seed the ILP search with the heuristic's placement (strongly
  /// recommended: it bounds the branch & bound from the first node).
  bool warm_start_ilp = true;

  /// Square valve-matrix side; unset = Architecture::sized_for heuristic.
  /// Setting this disables the chip-size sweep.
  std::optional<int> grid_size;
  double chip_slack = 0.55;
  /// The chip is enlarged and synthesis retried this many times when
  /// mapping or routing fails for lack of space.
  int max_chip_growth = 10;
  /// After the first feasible size, this many larger sizes are also tried;
  /// when that first feasible size is the estimate itself, smaller sizes
  /// are probed until the first infeasible one.  No size is tried twice.
  /// Among all successes the result minimizing `vs1_max + valve_weight *
  /// #v` is kept: bigger matrices spread actuations (lower vs) but
  /// implement more valves; the weight picks the knee of that trade-off.
  /// 0 disables the sweep and keeps the first success.
  ///
  /// With a sweep, attempts run concurrently: up to chip_sweep + 1 at once
  /// per call, on the calling thread and as `chip_sweep` tasks on the
  /// process-wide executor (svc/task_group.hpp), whose helpers every
  /// concurrent call, and the ILP workers inside the attempts, share.
  /// Results are consumed in the serial order above, so the chosen design
  /// is the same as one thread would choose.  Without a sweep every
  /// attempt runs on the calling thread.
  int chip_sweep = 3;
  double valve_weight = 0.5;
  /// When routing fails, remap the same chip with a different heuristic
  /// seed this many times before growing the matrix.
  int routing_retries = 3;

  /// Ablation switches (paper configuration: both true).
  bool allow_storage_overlap = true;
  bool routing_convenient = true;

  /// Fault tolerance (extension): worn-out valves to synthesize around.
  /// Requires an explicit `grid_size` (dead-valve coordinates are tied to
  /// one manufactured matrix), and only that size is attempted: the chip
  /// never grows, whatever `max_chip_growth` says.
  std::vector<Point> dead_valves;

  route::RouterOptions router;

  /// Cooperative cancellation (deadline or explicit cancel, see
  /// util/cancel.hpp).  Polled between chip-size attempts, refinement
  /// iterations and inside both mappers; `synthesize` throws
  /// CancelledError when the token fires, after every concurrent attempt
  /// has stopped.  Each attempt runs on its own token chained to this one,
  /// so the sweep can cancel a speculative attempt alone; both mappers get
  /// the attempt's token (`heuristic.cancel` and `ilp.cancel` are ignored
  /// here).  Inert by default.
  CancelToken cancel;
};

struct SynthesisResult {
  int chip_width = 0;
  int chip_height = 0;
  Placement placement;
  route::RoutingResult routing;

  sim::ActuationLedger ledger_setting1;
  sim::ActuationLedger ledger_setting2;

  // Table-1 metrics.
  int vs1_max = 0;        ///< largest total actuations, setting 1
  int vs1_pump = 0;       ///< ... peristalsis-only part (parenthesized)
  int vs2_max = 0;        ///< setting 2
  int vs2_pump = 0;
  int valve_count = 0;    ///< #v after removing non-actuated virtual valves

  std::int64_t mapper_effort = 0;  ///< SA moves or B&B nodes
  int refinement_iterations = 0;   ///< Algorithm-1 L4-L9 re-runs
  /// Side of the chosen chip minus the sweep's first size (the
  /// `sized_for` estimate, or the explicit `grid_size`); negative when a
  /// probe below the estimate won.
  int chip_growths = 0;
  double runtime_seconds = 0.0;

  /// MILP solver counters (ILP mapper mode only; zeros for the heuristic),
  /// accumulated over the refinement iterations of the winning attempt.
  ilp::SolveCounters milp;

  /// How the winning attempt's final ILP solve ended: proved optimal or
  /// not, and the proven lower bound on the pump load.
  struct IlpVerdict {
    ilp::MilpStatus status = ilp::MilpStatus::kLimit;
    double best_bound = 0.0;
  };
  std::optional<IlpVerdict> ilp;  ///< ILP mapper mode only
};

/// Runs reliability-aware synthesis for a scheduled assay.
/// Throws fsyn::Error when no feasible synthesis exists within the options'
/// growth limits.  Thread-safe; concurrent calls share the executor's
/// helpers.
SynthesisResult synthesize(const assay::SequencingGraph& graph,
                           const sched::Schedule& schedule,
                           const SynthesisOptions& options = {});

}  // namespace fsyn::synth
