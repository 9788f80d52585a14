// Monte Carlo chip-lifetime estimation.
//
// Samples N virtual chips: every implemented valve draws a time-to-failure
// from the LifetimeModel, the chip's lifetime is the minimum (the chip dies
// with its first worn-out valve) and the argmin valve is recorded, giving
// first-failure attribution alongside MTTF and survival quantiles.
//
// Trials are independent, so they parallelize embarrassingly: blocks of
// trials are taken in turn by `threads` tasks on the process-wide executor
// (svc/task_group.hpp), or run inline.  An estimate started from a pooled
// job or from another executor task nests safely: the caller runs the tasks
// no helper has started.  Results are **bit-identical regardless of thread
// count**: each trial
// seeds its own Rng from (seed, trial index), workers write into disjoint
// slices of preallocated arrays, and the reduction runs sequentially in
// trial order on the calling thread.  Cancellation is cooperative: blocks
// poll the token between trials and the estimator throws CancelledError.
#pragma once

#include <vector>

#include "obs/histogram.hpp"
#include "rel/lifetime_model.hpp"
#include "util/cancel.hpp"

namespace fsyn::rel {

struct MonteCarloOptions {
  int trials = 1000;
  std::uint64_t seed = 42;
  LifetimeModel model;
  /// Executor tasks taking trial blocks in turn; 1 = inline.
  int threads = 1;
  /// Trials per parallel work item.
  int block_size = 256;
  CancelToken cancel;
};

/// One bar of the first-failure histogram.
struct FirstFailure {
  int valve_id = -1;
  Point cell;
  sim::ValveRole role = sim::ValveRole::kControl;
  int per_run_actuations = 0;
  int count = 0;  ///< trials in which this valve failed first
};

struct LifetimeEstimate {
  int trials = 0;
  int valve_count = 0;     ///< implemented valves subject to failure
  double mttf_runs = 0.0;  ///< mean assay runs until first valve failure
  double p10_runs = 0.0;
  double p50_runs = 0.0;
  double p90_runs = 0.0;
  double min_runs = 0.0;
  double max_runs = 0.0;
  /// Which valve failed first, per trial, aggregated; descending count,
  /// ties by ascending valve id.  Covers every valve that ever failed first.
  std::vector<FirstFailure> first_failures;

  // Timing (not part of the deterministic report surface).
  double elapsed_seconds = 0.0;
  double trials_per_second = 0.0;
  obs::HistogramSnapshot block_latency;  ///< per-block wall clock
};

/// Estimates the lifetime of a chip whose implemented valves carry the
/// given per-run wear.  `valves` must be non-empty with positive loads.
LifetimeEstimate estimate_lifetime(const std::vector<sim::ValveWear>& valves,
                                   const MonteCarloOptions& options);

/// Convenience overload: valves taken from an actuation ledger.
LifetimeEstimate estimate_lifetime(const sim::ActuationLedger& ledger,
                                   const MonteCarloOptions& options);

}  // namespace fsyn::rel
