// Reliability engine: lifetime estimation + fault injection + degraded
// re-synthesis, over a complete synthesis result.
//
// `analyze` answers the question the paper's objective is a proxy for:
// *how long does the synthesized chip live, and what happens when a valve
// dies?*  It runs three stages:
//
//  1. Monte Carlo lifetime of the healthy mapping (monte_carlo.hpp) —
//     MTTF, survival quantiles and first-failure valve attribution;
//  2. optionally the same estimate for the traditional dedicated-device
//     design of the assay (baseline/traditional.hpp), quantifying the
//     paper's headline claim as a lifetime ratio instead of an actuation
//     ratio;
//  3. for each event of a FaultPlan, degraded re-synthesis: the accumulated
//     dead valves are threaded through MappingProblem (forbidden footprint
//     cells + routing obstacles), the chip size is pinned to the healthy
//     matrix, the ILP mapper is warm-started from the previous placement
//     whenever that placement is still feasible for the degraded problem,
//     and the round reports a feasible repaired mapping (with its own
//     lifetime estimate) or an infeasible verdict.
//
// The report serializes to JSON (`to_json`).  With `include_timing` off
// (the default) the document is a pure function of (assay, options, seed),
// so repeated runs are bit-identical — the property the CI smoke asserts.
#pragma once

#include <optional>
#include <string>

#include "rel/fault_plan.hpp"
#include "rel/monte_carlo.hpp"
#include "synth/synthesis.hpp"

namespace fsyn::rel {

struct ReliabilityOptions {
  MonteCarloOptions monte_carlo;
  /// Options for degraded re-synthesis; grid_size and dead_valves are
  /// overridden per round (pinned to the healthy chip + accumulated dead
  /// set).  Mapper choice, seeds and limits are honoured.
  synth::SynthesisOptions synthesis;
  /// Faults to inject, in order.  Empty + inject_top == 0 skips stage 3.
  FaultPlan faults;
  /// When `faults` is empty: auto-derive a top_wear_plan of this many
  /// valves from the healthy setting-1 ledger.
  int inject_top = 0;
  /// Also estimate the traditional dedicated-device design's lifetime.
  bool compare_static = false;
  /// Scheduling spec, echoed into the report and used to build the
  /// traditional baseline's policy.
  int policy_increments = 0;
  bool asap = false;
};

/// One fault event's repair attempt.
struct RepairRound {
  FaultEvent fault;
  bool feasible = false;      ///< a remapped chip avoiding the dead set exists
  bool warm_started = false;  ///< ILP seeded with the previous placement
  std::string verdict;        ///< "remapped" or the infeasibility reason
  int vs1_max = 0;
  int valve_count = 0;
  std::optional<LifetimeEstimate> lifetime;  ///< of the repaired mapping
  double resynthesis_seconds = 0.0;
};

struct ReliabilityReport {
  std::string assay;
  int policy_increments = 0;
  bool asap = false;
  int chip_width = 0;
  int chip_height = 0;
  std::uint64_t seed = 0;
  int trials = 0;
  LifetimeModel model;

  LifetimeEstimate healthy;
  /// Traditional dedicated-device design, when compare_static was set.
  std::optional<LifetimeEstimate> static_baseline;
  int static_total_valves = 0;
  int static_max_actuations = 0;

  std::vector<RepairRound> rounds;
  /// Expected total service (assay runs): die-at-first-failure vs
  /// repair-after-each-injected-fault (healthy MTTF plus each feasible
  /// repaired mapping's MTTF — the renewal approximation documented in
  /// docs/reliability.md).
  double expected_runs_no_repair = 0.0;
  double expected_runs_with_repair = 0.0;

  obs::HistogramSnapshot resynthesis_latency;

  /// Deterministic JSON document; timing fields (trials/sec, latency
  /// histograms, re-synthesis seconds) only with include_timing.
  std::string to_json(bool include_timing = false) const;
};

/// Runs the engine over a synthesized mapping.  `healthy` must carry a
/// successful routing and the ledgers for `graph`/`schedule`.
ReliabilityReport analyze(const assay::SequencingGraph& graph, const sched::Schedule& schedule,
                          const synth::SynthesisResult& healthy,
                          const ReliabilityOptions& options);

/// The options of one degraded re-synthesis round, and whether they carry
/// a warm start.
struct RepairSetup {
  synth::SynthesisOptions options;
  bool warm_started = false;
};

/// Sets up a degraded re-synthesis round from `base`.  The chip is already
/// manufactured: the `side`×`side` matrix is pinned (with dead valves
/// synthesize tries that size only) and the accumulated `dead` set is
/// threaded through MappingProblem into both mappers and the router.  The
/// mapper `base` selects is warm-started from `previous` minimally
/// repaired: devices whose footprints touch dead valves move to the first
/// pairwise-feasible candidate, everything else keeps its position.  When
/// that repair exists it keeps most of the previous solution, which makes
/// repair rounds cheap for both mappers.  Used by the engine's
/// fault-injection rounds and the fleet's live re-synthesis.
RepairSetup prepare_repair(const assay::SequencingGraph& graph, const sched::Schedule& schedule,
                           const synth::SynthesisOptions& base, int side,
                           const std::vector<Point>& dead, const synth::Placement& previous);

}  // namespace fsyn::rel
