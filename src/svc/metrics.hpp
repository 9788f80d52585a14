// Service metrics registry.
//
// Lock-free counters updated by workers and race arms, plus a latency
// histogram per job stage (queue wait / synthesis / end-to-end) so the
// snapshot carries percentiles, not just totals.  A consistent-enough
// snapshot can be taken at any time and serialized as JSON for
// `flowsynth batch --metrics PATH` or scraping.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>

#include "obs/histogram.hpp"
#include "svc/result_cache.hpp"

namespace fsyn::svc {

/// Plain-value copy of the registry, safe to read and serialize.
struct MetricsSnapshot {
  long jobs_submitted = 0;
  long jobs_completed = 0;  ///< finished with a result (fresh or cached)
  long jobs_cancelled = 0;
  long jobs_failed = 0;
  long jobs_rejected = 0;
  long jobs_running = 0;

  long mapper_invocations = 0;  ///< synthesize() calls actually executed
  long race_arms_started = 0;
  long race_arms_cancelled = 0;
  long reliability_jobs = 0;  ///< jobs that ran the reliability engine

  // Closed-loop fleet counters, folded in by kFleet jobs (all zeros when no
  // fleet ran).  Semantics are defined in docs/reliability.md: availability
  // = runs_available / runs_possible, detection latency is summed here and
  // averaged at serialization time.
  long fleet_jobs = 0;
  long fleet_chips = 0;
  long fleet_assay_runs = 0;
  long fleet_self_tests = 0;
  long fleet_faults_occurred = 0;
  long fleet_faults_detected = 0;
  long fleet_faults_missed = 0;
  long fleet_false_positives = 0;
  long fleet_repairs_attempted = 0;
  long fleet_repairs_succeeded = 0;
  long fleet_chips_retired = 0;
  long fleet_detection_latency_runs = 0;
  long fleet_runs_available = 0;
  long fleet_runs_possible = 0;

  double queue_seconds = 0.0;      ///< total time jobs spent queued
  double synthesis_seconds = 0.0;  ///< total time inside synthesize/race
  double total_seconds = 0.0;      ///< total end-to-end job time

  // Per-stage latency distributions (the *_seconds totals above are their
  // sums, kept as top-level fields for snapshot/JSON compatibility).
  obs::HistogramSnapshot queue_latency;
  obs::HistogramSnapshot synthesis_latency;
  obs::HistogramSnapshot total_latency;
  /// Time inside rel::analyze (reliability jobs only; empty otherwise).
  obs::HistogramSnapshot reliability_latency;
  /// Time inside fleet::run_fleet (kFleet jobs only; empty otherwise).
  obs::HistogramSnapshot fleet_latency;

  // MILP solver counters aggregated over every completed synthesis (zeros
  // when only the heuristic mapper ran).
  long solver_nodes = 0;
  long solver_lp_iterations = 0;
  long solver_primal_pivots = 0;
  long solver_dual_pivots = 0;
  long solver_refactorizations = 0;
  long solver_warm_solves = 0;
  long solver_cold_solves = 0;
  // Sparse-LU basis telemetry (zeros when every solve used the dense basis).
  long solver_lu_refactorizations = 0;
  long solver_eta_pivots = 0;
  long solver_eta_nnz = 0;
  long solver_lu_fill_nnz = 0;
  long solver_lu_basis_nnz = 0;
  long solver_devex_resets = 0;
  // Root cut loop + branching + node-store telemetry.
  long solver_gomory_cuts = 0;
  long solver_cover_cuts = 0;
  long solver_cuts_applied = 0;
  long solver_cuts_retained = 0;
  long solver_cut_rounds = 0;
  long solver_impact_branch_decisions = 0;
  long solver_pseudocost_branch_decisions = 0;
  long solver_arena_bytes = 0;  ///< max node-arena footprint of any one solve
  // Tree-search worker telemetry (zeros when only the heuristic ran).
  long solver_threads = 0;  ///< max workers used by any one MILP solve
  long solver_steals = 0;
  double solver_idle_seconds = 0.0;

  CacheStats cache;
  int workers = 0;
  std::size_t max_queue_depth = 0;

  // Short-horizon throughput, computed from the registry's interval-sample
  // ring: jobs per second over (up to) the trailing 1 and 5 minutes.  Early
  // in a process's life the window is the full uptime, so a fresh server
  // under load reports nonzero rates from the first scrape.
  double submitted_per_second_1m = 0.0;
  double submitted_per_second_5m = 0.0;
  double completed_per_second_1m = 0.0;
  double completed_per_second_5m = 0.0;

  /// Serializes the snapshot as a single JSON object.
  std::string to_json() const;

  /// Renders the snapshot in the Prometheus text exposition format
  /// (version 0.0.4): counters, gauges, and the per-stage latency
  /// histograms as cumulative buckets.
  std::string to_prometheus() const;
};

class MetricsRegistry {
 public:
  /// Interval between rate samples; the 32-slot ring then covers > 5 min.
  static constexpr std::chrono::seconds kRateSampleInterval{10};
  static constexpr std::size_t kRateSamples = 32;

  MetricsRegistry();

  void job_submitted() { jobs_submitted_.fetch_add(1, std::memory_order_relaxed); }
  void job_started() { jobs_running_.fetch_add(1, std::memory_order_relaxed); }
  void job_completed() {
    jobs_running_.fetch_sub(1, std::memory_order_relaxed);
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
  }
  void job_cancelled() {
    jobs_running_.fetch_sub(1, std::memory_order_relaxed);
    jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  void job_failed() {
    jobs_running_.fetch_sub(1, std::memory_order_relaxed);
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  void job_rejected() { jobs_rejected_.fetch_add(1, std::memory_order_relaxed); }

  void mapper_invoked() { mapper_invocations_.fetch_add(1, std::memory_order_relaxed); }
  void race_arm_started() { race_arms_started_.fetch_add(1, std::memory_order_relaxed); }
  void race_arm_cancelled() { race_arms_cancelled_.fetch_add(1, std::memory_order_relaxed); }
  void reliability_job() { reliability_jobs_.fetch_add(1, std::memory_order_relaxed); }
  void fleet_job() { fleet_jobs_.fetch_add(1, std::memory_order_relaxed); }

  void add_queue_time(std::chrono::nanoseconds d) { queue_latency_.record(d); }
  void add_synthesis_time(std::chrono::nanoseconds d) { synthesis_latency_.record(d); }
  void add_total_time(std::chrono::nanoseconds d) { total_latency_.record(d); }
  void add_reliability_time(std::chrono::nanoseconds d) { reliability_latency_.record(d); }
  void add_fleet_time(std::chrono::nanoseconds d) { fleet_latency_.record(d); }

  /// One fleet run's aggregate outcome, as plain longs so svc does not
  /// depend on the fleet headers (mirrors SolverCounters for the MILP).
  struct FleetStats {
    long chips = 0;
    long assay_runs = 0;
    long self_tests = 0;
    long faults_occurred = 0;
    long faults_detected = 0;
    long faults_missed = 0;       ///< never diagnosed by end of horizon
    long false_positives = 0;     ///< diagnosed cells with no real fault
    long repairs_attempted = 0;
    long repairs_succeeded = 0;
    long chips_retired = 0;
    long detection_latency_runs = 0;  ///< summed over detected faults
    long runs_available = 0;          ///< chip-runs in service, fault-free
    long runs_possible = 0;           ///< chips * horizon
  };

  /// Folds one fleet run's counters into the registry.
  void record_fleet(const FleetStats& f) {
    fleet_chips_.fetch_add(f.chips, std::memory_order_relaxed);
    fleet_assay_runs_.fetch_add(f.assay_runs, std::memory_order_relaxed);
    fleet_self_tests_.fetch_add(f.self_tests, std::memory_order_relaxed);
    fleet_faults_occurred_.fetch_add(f.faults_occurred, std::memory_order_relaxed);
    fleet_faults_detected_.fetch_add(f.faults_detected, std::memory_order_relaxed);
    fleet_faults_missed_.fetch_add(f.faults_missed, std::memory_order_relaxed);
    fleet_false_positives_.fetch_add(f.false_positives, std::memory_order_relaxed);
    fleet_repairs_attempted_.fetch_add(f.repairs_attempted, std::memory_order_relaxed);
    fleet_repairs_succeeded_.fetch_add(f.repairs_succeeded, std::memory_order_relaxed);
    fleet_chips_retired_.fetch_add(f.chips_retired, std::memory_order_relaxed);
    fleet_detection_latency_runs_.fetch_add(f.detection_latency_runs,
                                            std::memory_order_relaxed);
    fleet_runs_available_.fetch_add(f.runs_available, std::memory_order_relaxed);
    fleet_runs_possible_.fetch_add(f.runs_possible, std::memory_order_relaxed);
  }

  /// One synthesis run's MILP solver counters, as plain longs so svc does
  /// not depend on the ilp headers.  `basis`/`pricing` mirror
  /// ilp::BasisKind / ilp::PricingRule as ints (-1 = not reported).
  struct SolverCounters {
    long nodes = 0;
    long lp_iterations = 0;
    long primal_pivots = 0;
    long dual_pivots = 0;
    long refactorizations = 0;
    long warm_solves = 0;
    long cold_solves = 0;
    long lu_refactorizations = 0;
    long eta_pivots = 0;
    long eta_nnz = 0;
    long lu_fill_nnz = 0;
    long lu_basis_nnz = 0;
    long devex_resets = 0;
    long gomory_cuts = 0;
    long cover_cuts = 0;
    long cuts_applied = 0;
    long cuts_retained = 0;
    long cut_rounds = 0;
    long impact_branch_decisions = 0;
    long pseudocost_branch_decisions = 0;
    long arena_bytes = 0;
  };

  /// Folds one synthesis run's MILP solver counters into the registry.
  void record_solver(const SolverCounters& c) {
    solver_nodes_.fetch_add(c.nodes, std::memory_order_relaxed);
    solver_lp_iterations_.fetch_add(c.lp_iterations, std::memory_order_relaxed);
    solver_primal_pivots_.fetch_add(c.primal_pivots, std::memory_order_relaxed);
    solver_dual_pivots_.fetch_add(c.dual_pivots, std::memory_order_relaxed);
    solver_refactorizations_.fetch_add(c.refactorizations, std::memory_order_relaxed);
    solver_warm_solves_.fetch_add(c.warm_solves, std::memory_order_relaxed);
    solver_cold_solves_.fetch_add(c.cold_solves, std::memory_order_relaxed);
    solver_lu_refactorizations_.fetch_add(c.lu_refactorizations, std::memory_order_relaxed);
    solver_eta_pivots_.fetch_add(c.eta_pivots, std::memory_order_relaxed);
    solver_eta_nnz_.fetch_add(c.eta_nnz, std::memory_order_relaxed);
    solver_lu_fill_nnz_.fetch_add(c.lu_fill_nnz, std::memory_order_relaxed);
    solver_lu_basis_nnz_.fetch_add(c.lu_basis_nnz, std::memory_order_relaxed);
    solver_devex_resets_.fetch_add(c.devex_resets, std::memory_order_relaxed);
    solver_gomory_cuts_.fetch_add(c.gomory_cuts, std::memory_order_relaxed);
    solver_cover_cuts_.fetch_add(c.cover_cuts, std::memory_order_relaxed);
    solver_cuts_applied_.fetch_add(c.cuts_applied, std::memory_order_relaxed);
    solver_cuts_retained_.fetch_add(c.cuts_retained, std::memory_order_relaxed);
    solver_cut_rounds_.fetch_add(c.cut_rounds, std::memory_order_relaxed);
    solver_impact_branch_decisions_.fetch_add(c.impact_branch_decisions,
                                              std::memory_order_relaxed);
    solver_pseudocost_branch_decisions_.fetch_add(c.pseudocost_branch_decisions,
                                                  std::memory_order_relaxed);
    long arena_seen = solver_arena_bytes_.load(std::memory_order_relaxed);
    while (c.arena_bytes > arena_seen &&
           !solver_arena_bytes_.compare_exchange_weak(arena_seen, c.arena_bytes,
                                                      std::memory_order_relaxed)) {
    }
  }

  /// Folds one synthesis run's parallel-search counters into the registry.
  /// `threads` keeps a running maximum (the widest solve seen); idle time
  /// is accumulated at microsecond resolution.
  void record_solver_parallel(int threads, long steals, double idle_seconds) {
    long seen = solver_threads_.load(std::memory_order_relaxed);
    while (threads > seen &&
           !solver_threads_.compare_exchange_weak(seen, threads, std::memory_order_relaxed)) {
    }
    solver_steals_.fetch_add(steals, std::memory_order_relaxed);
    solver_idle_micros_.fetch_add(static_cast<long>(idle_seconds * 1e6),
                                  std::memory_order_relaxed);
  }

  long mapper_invocations() const {
    return mapper_invocations_.load(std::memory_order_relaxed);
  }

  /// Counter fields of the snapshot; the service fills in cache/pool data.
  /// Also advances the rate ring (a sample is pushed when the last one is
  /// older than `kRateSampleInterval`) and fills the *_per_second fields.
  MetricsSnapshot snapshot() const;

  /// Pushes a rate sample unconditionally (tests; snapshot() samples on its
  /// own schedule otherwise).
  void sample_rates() const;

 private:
  struct RateSample {
    std::chrono::steady_clock::time_point at{};
    long submitted = 0;
    long completed = 0;
  };

  /// Jobs/second between `now` and the oldest ring sample at most `window`
  /// old (falling back to the newest sample when the ring has gone stale).
  void fill_rates(MetricsSnapshot& s) const;
  void push_sample_locked(std::chrono::steady_clock::time_point now) const;
  std::atomic<long> jobs_submitted_{0};
  std::atomic<long> jobs_completed_{0};
  std::atomic<long> jobs_cancelled_{0};
  std::atomic<long> jobs_failed_{0};
  std::atomic<long> jobs_rejected_{0};
  std::atomic<long> jobs_running_{0};
  std::atomic<long> mapper_invocations_{0};
  std::atomic<long> race_arms_started_{0};
  std::atomic<long> race_arms_cancelled_{0};
  std::atomic<long> reliability_jobs_{0};
  std::atomic<long> fleet_jobs_{0};
  std::atomic<long> fleet_chips_{0};
  std::atomic<long> fleet_assay_runs_{0};
  std::atomic<long> fleet_self_tests_{0};
  std::atomic<long> fleet_faults_occurred_{0};
  std::atomic<long> fleet_faults_detected_{0};
  std::atomic<long> fleet_faults_missed_{0};
  std::atomic<long> fleet_false_positives_{0};
  std::atomic<long> fleet_repairs_attempted_{0};
  std::atomic<long> fleet_repairs_succeeded_{0};
  std::atomic<long> fleet_chips_retired_{0};
  std::atomic<long> fleet_detection_latency_runs_{0};
  std::atomic<long> fleet_runs_available_{0};
  std::atomic<long> fleet_runs_possible_{0};
  obs::LatencyHistogram queue_latency_;
  obs::LatencyHistogram synthesis_latency_;
  obs::LatencyHistogram total_latency_;
  obs::LatencyHistogram reliability_latency_;
  obs::LatencyHistogram fleet_latency_;
  std::atomic<long> solver_nodes_{0};
  std::atomic<long> solver_lp_iterations_{0};
  std::atomic<long> solver_primal_pivots_{0};
  std::atomic<long> solver_dual_pivots_{0};
  std::atomic<long> solver_refactorizations_{0};
  std::atomic<long> solver_warm_solves_{0};
  std::atomic<long> solver_cold_solves_{0};
  std::atomic<long> solver_lu_refactorizations_{0};
  std::atomic<long> solver_eta_pivots_{0};
  std::atomic<long> solver_eta_nnz_{0};
  std::atomic<long> solver_lu_fill_nnz_{0};
  std::atomic<long> solver_lu_basis_nnz_{0};
  std::atomic<long> solver_devex_resets_{0};
  std::atomic<long> solver_gomory_cuts_{0};
  std::atomic<long> solver_cover_cuts_{0};
  std::atomic<long> solver_cuts_applied_{0};
  std::atomic<long> solver_cuts_retained_{0};
  std::atomic<long> solver_cut_rounds_{0};
  std::atomic<long> solver_impact_branch_decisions_{0};
  std::atomic<long> solver_pseudocost_branch_decisions_{0};
  std::atomic<long> solver_arena_bytes_{0};
  std::atomic<long> solver_threads_{0};
  std::atomic<long> solver_steals_{0};
  std::atomic<long> solver_idle_micros_{0};

  // Rate ring: mutex-guarded (samples are rare — one per scrape interval);
  // mutable so const snapshot() can advance it.
  mutable std::mutex rate_mutex_;
  mutable std::array<RateSample, kRateSamples> rate_ring_{};
  mutable std::size_t rate_count_ = 0;
  mutable std::size_t rate_next_ = 0;
};

}  // namespace fsyn::svc
