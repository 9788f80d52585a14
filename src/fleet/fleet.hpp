// Closed-loop fleet reliability simulation.
//
// The missing piece between "rel injects faults" and "a deployed chip heals
// itself": a fleet of virtual chips (virtual_chip.hpp) runs the assay,
// wears out, and periodically executes the valve-array self-test
// (test_pattern.hpp).  Diagnosis (diagnosis.hpp) localizes stuck valves
// from the responses alone — no oracle knowledge — and every diagnosed
// chip goes through live degraded re-synthesis: a warm-started minimal
// repair (rel::prepare_repair) submitted as a background-priority
// synthesis job to a *private* svc::BatchService (submitting back into the
// service executing the fleet job would deadlock).  Chips transition
//
//   healthy --fault diagnosed--> degraded --repair feasible--> repaired
//                                   |                             |
//                                   +--infeasible / budget--> retired
//
// (kRepaired chips re-enter the same cycle when another valve dies.)
//
// Determinism: every hidden life is a stateless draw from (seed, chip,
// valve), repairs are collected in chip-index order at each step, and the
// report's default serialization carries no timing — so a fleet run is a
// pure function of (assay, options, seed) and double runs are
// bit-identical, which the CI fleet-smoke asserts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/diagnosis.hpp"
#include "fleet/virtual_chip.hpp"
#include "svc/service.hpp"

namespace fsyn::fleet {

struct FleetOptions {
  int chips = 100;
  /// Self-test every this many assay runs.
  int cadence = 25;
  /// Assay runs per chip over the simulated service life.
  int horizon = 200;
  std::uint64_t seed = 2015;
  /// Workers of the private repair service.
  int repair_workers = 2;
  /// A chip is retired instead of repaired past this many repairs.
  int max_repairs_per_chip = 4;

  VirtualChipOptions chip;
  DiagnosisOptions diagnosis;
  /// Base options for the healthy synthesis and every repair round (repairs
  /// additionally pin the grid and thread the chip's dead set).
  synth::SynthesisOptions synthesis;
  int policy_increments = 0;
  bool asap = false;
  CancelToken cancel;
};

enum class ChipState { kHealthy, kDegraded, kRepaired, kRetired };

const char* to_string(ChipState state);

/// One fault's lifecycle, oracle-reconciled at end of horizon.
struct FaultRecord {
  int chip = 0;
  Point valve;
  rel::FaultMode mode = rel::FaultMode::kStuckClosed;
  int onset_run = 0;
  /// Run of the self-test that diagnosed it; -1 = never diagnosed within
  /// the horizon (end-of-horizon censoring counts it as missed).
  int detected_run = -1;
  bool aliased = false;

  bool missed() const { return detected_run < 0; }
};

/// The fleet-wide counters (svc::FleetStats, which the service registry
/// sums over fleet jobs) plus the run's identity and per-state breakdown.
struct FleetReport : svc::FleetStats {
  std::string assay;
  int policy_increments = 0;
  bool asap = false;
  int chip_width = 0;
  int chip_height = 0;
  std::uint64_t seed = 0;
  int cadence = 0;
  int horizon = 0;

  long repairs_warm_started = 0;
  long degraded_warnings = 0;
  int chips_healthy = 0;
  int chips_degraded = 0;
  int chips_repaired = 0;

  std::vector<FaultRecord> fault_log;  ///< sorted by (chip, valve)

  obs::HistogramSnapshot diagnosis_latency;
  obs::HistogramSnapshot repair_latency;
  double elapsed_seconds = 0.0;

  /// Deterministic JSON document ("format": "flowsynth-fleet-v1"); timing
  /// fields (elapsed seconds, latency histograms) only with include_timing.
  std::string to_json(bool include_timing = false) const;
};

/// Runs the closed loop over the whole fleet.  Synthesizes the healthy
/// design once, then steps every chip through `horizon` assay runs with
/// self-test + diagnosis + repair at the cadence.  Throws CancelledError
/// when options.cancel fires.
FleetReport run_fleet(const assay::SequencingGraph& graph, const FleetOptions& options);

/// Packages a fleet run as a svc::JobKind::kFleet job: the runner executes
/// run_fleet under the job's token, folds the stats, and returns the
/// report JSON as the job document.  Fill in id/priority/on_phase/deadline
/// on the returned spec before submitting.
svc::JobSpec make_fleet_job(std::shared_ptr<const assay::SequencingGraph> graph,
                            const FleetOptions& options);

}  // namespace fsyn::fleet
