// Service metrics registry.
//
// Relaxed atomic job-state counters updated by workers and race arms, the
// MILP and fleet counters folded in once per finished job under one mutex,
// plus a latency histogram per job stage (queue wait / synthesis /
// end-to-end) so the snapshot carries percentiles, not just totals.  A
// consistent-enough snapshot can be taken at any time and serialized as
// JSON for `flowsynth batch --metrics PATH` or scraping.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>

#include "ilp/branch_and_bound.hpp"
#include "obs/histogram.hpp"
#include "svc/result_cache.hpp"

namespace fsyn::svc {

/// One closed-loop fleet run's aggregate outcome (fleet::FleetReport derives
/// from it), summed over fleet jobs by the registry.  Semantics are defined
/// in docs/reliability.md.
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
  long runs_available = 0;          ///< chip-runs in service with no active fault
  long runs_possible = 0;           ///< chips * horizon

  double availability() const {
    return runs_possible > 0
               ? static_cast<double>(runs_available) / static_cast<double>(runs_possible)
               : 0.0;
  }
  double mean_detection_latency_runs() const {
    return faults_detected > 0 ? static_cast<double>(detection_latency_runs) /
                                     static_cast<double>(faults_detected)
                               : 0.0;
  }

  void accumulate(const FleetStats& other) {
    chips += other.chips;
    assay_runs += other.assay_runs;
    self_tests += other.self_tests;
    faults_occurred += other.faults_occurred;
    faults_detected += other.faults_detected;
    faults_missed += other.faults_missed;
    false_positives += other.false_positives;
    repairs_attempted += other.repairs_attempted;
    repairs_succeeded += other.repairs_succeeded;
    chips_retired += other.chips_retired;
    detection_latency_runs += other.detection_latency_runs;
    runs_available += other.runs_available;
    runs_possible += other.runs_possible;
  }

  bool operator==(const FleetStats&) const = default;
};

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

  long fleet_jobs = 0;
  /// Closed-loop fleet counters summed over kFleet jobs (zeros when no
  /// fleet ran).
  FleetStats fleet;

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

  /// MILP solver counters folded over every completed synthesis (zeros when
  /// only the heuristic mapper ran): `arena_bytes` and `threads` are the
  /// widest single solve, everything else is summed.
  ilp::SolveCounters solver;

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

  /// Folds one synthesis run's MILP solver counters into the registry.
  void record_solver(const ilp::SolveCounters& counters) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    solver_.accumulate(counters);
  }

  /// Folds one fleet run's counters into the registry.
  void record_fleet(const FleetStats& stats) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    fleet_.accumulate(stats);
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
  obs::LatencyHistogram queue_latency_;
  obs::LatencyHistogram synthesis_latency_;
  obs::LatencyHistogram total_latency_;
  obs::LatencyHistogram reliability_latency_;
  obs::LatencyHistogram fleet_latency_;

  // Per-job folds: one lock per finished job, never on a hot path.
  mutable std::mutex counters_mutex_;
  ilp::SolveCounters solver_;
  FleetStats fleet_;

  // Rate ring: mutex-guarded (samples are rare — one per scrape interval);
  // mutable so const snapshot() can advance it.
  mutable std::mutex rate_mutex_;
  mutable std::array<RateSample, kRateSamples> rate_ring_{};
  mutable std::size_t rate_count_ = 0;
  mutable std::size_t rate_next_ = 0;
};

}  // namespace fsyn::svc
