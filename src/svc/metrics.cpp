#include "svc/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "obs/prometheus.hpp"
#include "util/strings.hpp"

namespace fsyn::svc {

MetricsRegistry::MetricsRegistry() {
  // Seed the ring at construction: the very first scrape then has a
  // baseline at process start, so rates are nonzero as soon as any job has
  // been submitted.
  std::lock_guard<std::mutex> lock(rate_mutex_);
  push_sample_locked(std::chrono::steady_clock::now());
}

void MetricsRegistry::push_sample_locked(std::chrono::steady_clock::time_point now) const {
  RateSample sample;
  sample.at = now;
  sample.submitted = jobs_submitted_.load(std::memory_order_relaxed);
  sample.completed = jobs_completed_.load(std::memory_order_relaxed);
  rate_ring_[rate_next_] = sample;
  rate_next_ = (rate_next_ + 1) % kRateSamples;
  rate_count_ = std::min(rate_count_ + 1, kRateSamples);
}

void MetricsRegistry::sample_rates() const {
  std::lock_guard<std::mutex> lock(rate_mutex_);
  push_sample_locked(std::chrono::steady_clock::now());
}

void MetricsRegistry::fill_rates(MetricsSnapshot& s) const {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(rate_mutex_);
  if (rate_count_ == 0) return;
  const RateSample* newest = nullptr;
  auto baseline = [&](double window_seconds) -> const RateSample* {
    // Oldest sample still inside the window; the newest sample otherwise
    // (sampling stalls when nothing scrapes — a recent-delta rate is still
    // the honest answer then).
    const RateSample* oldest_in_window = nullptr;
    for (std::size_t k = 0; k < rate_count_; ++k) {
      const RateSample& sample = rate_ring_[(rate_next_ + kRateSamples - 1 - k) % kRateSamples];
      const double age = std::chrono::duration<double>(now - sample.at).count();
      if (newest == nullptr) newest = &sample;
      if (age <= window_seconds) oldest_in_window = &sample;
    }
    return oldest_in_window ? oldest_in_window : newest;
  };
  auto rate = [&](const RateSample* base, long current, long base_value) {
    const double elapsed = std::chrono::duration<double>(now - base->at).count();
    if (elapsed < 1e-3) return 0.0;
    return static_cast<double>(current - base_value) / elapsed;
  };
  if (const RateSample* base = baseline(60.0)) {
    s.submitted_per_second_1m = rate(base, s.jobs_submitted, base->submitted);
    s.completed_per_second_1m = rate(base, s.jobs_completed, base->completed);
  }
  newest = nullptr;
  if (const RateSample* base = baseline(300.0)) {
    s.submitted_per_second_5m = rate(base, s.jobs_submitted, base->submitted);
    s.completed_per_second_5m = rate(base, s.jobs_completed, base->completed);
  }
  // Advance the ring on the scrape path itself; no background timer needed.
  const RateSample& last = rate_ring_[(rate_next_ + kRateSamples - 1) % kRateSamples];
  if (now - last.at >= kRateSampleInterval) push_sample_locked(now);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.jobs_submitted = jobs_submitted_.load(std::memory_order_relaxed);
  s.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
  s.jobs_cancelled = jobs_cancelled_.load(std::memory_order_relaxed);
  s.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
  s.jobs_rejected = jobs_rejected_.load(std::memory_order_relaxed);
  s.jobs_running = jobs_running_.load(std::memory_order_relaxed);
  s.mapper_invocations = mapper_invocations_.load(std::memory_order_relaxed);
  s.race_arms_started = race_arms_started_.load(std::memory_order_relaxed);
  s.race_arms_cancelled = race_arms_cancelled_.load(std::memory_order_relaxed);
  s.reliability_jobs = reliability_jobs_.load(std::memory_order_relaxed);
  s.fleet_jobs = fleet_jobs_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    s.solver = solver_;
    s.fleet = fleet_;
  }
  s.queue_latency = queue_latency_.snapshot();
  s.synthesis_latency = synthesis_latency_.snapshot();
  s.total_latency = total_latency_.snapshot();
  s.reliability_latency = reliability_latency_.snapshot();
  s.fleet_latency = fleet_latency_.snapshot();
  s.queue_seconds = s.queue_latency.sum_seconds;
  s.synthesis_seconds = s.synthesis_latency.sum_seconds;
  s.total_seconds = s.total_latency.sum_seconds;
  fill_rates(s);
  return s;
}

std::string MetricsSnapshot::to_json() const {
  const std::int64_t lp_solves = solver.lp.warm_solves + solver.lp.cold_solves;
  const double warm_start_hit_rate =
      lp_solves > 0
          ? static_cast<double>(solver.lp.warm_solves) / static_cast<double>(lp_solves)
          : 0.0;
  std::ostringstream os;
  os << "{\n"
     << "  \"jobs\": {\n"
     << "    \"submitted\": " << jobs_submitted << ",\n"
     << "    \"completed\": " << jobs_completed << ",\n"
     << "    \"cancelled\": " << jobs_cancelled << ",\n"
     << "    \"failed\": " << jobs_failed << ",\n"
     << "    \"rejected\": " << jobs_rejected << ",\n"
     << "    \"running\": " << jobs_running << "\n"
     << "  },\n"
     << "  \"mapper_invocations\": " << mapper_invocations << ",\n"
     << "  \"reliability_jobs\": " << reliability_jobs << ",\n"
     << "  \"fleet\": {\n"
     << "    \"jobs\": " << fleet_jobs << ",\n"
     << "    \"chips\": " << fleet.chips << ",\n"
     << "    \"assay_runs\": " << fleet.assay_runs << ",\n"
     << "    \"self_tests\": " << fleet.self_tests << ",\n"
     << "    \"faults_occurred\": " << fleet.faults_occurred << ",\n"
     << "    \"faults_detected\": " << fleet.faults_detected << ",\n"
     << "    \"faults_missed\": " << fleet.faults_missed << ",\n"
     << "    \"false_positives\": " << fleet.false_positives << ",\n"
     << "    \"repairs_attempted\": " << fleet.repairs_attempted << ",\n"
     << "    \"repairs_succeeded\": " << fleet.repairs_succeeded << ",\n"
     << "    \"chips_retired\": " << fleet.chips_retired << ",\n"
     << "    \"detection_latency_runs\": " << fleet.detection_latency_runs << ",\n"
     << "    \"mean_detection_latency_runs\": "
     << format_fixed(fleet.mean_detection_latency_runs(), 4) << ",\n"
     << "    \"runs_available\": " << fleet.runs_available << ",\n"
     << "    \"runs_possible\": " << fleet.runs_possible << ",\n"
     << "    \"availability\": " << format_fixed(fleet.availability(), 6) << "\n"
     << "  },\n"
     << "  \"race\": {\n"
     << "    \"arms_started\": " << race_arms_started << ",\n"
     << "    \"arms_cancelled\": " << race_arms_cancelled << "\n"
     << "  },\n"
     << "  \"wall_clock_seconds\": {\n"
     << "    \"queue\": " << format_fixed(queue_seconds, 6) << ",\n"
     << "    \"synthesis\": " << format_fixed(synthesis_seconds, 6) << ",\n"
     << "    \"total\": " << format_fixed(total_seconds, 6) << "\n"
     << "  },\n"
     << "  \"latency_seconds\": {\n"
     << "    \"queue\": " << queue_latency.to_json() << ",\n"
     << "    \"synthesis\": " << synthesis_latency.to_json() << ",\n"
     << "    \"total\": " << total_latency.to_json() << ",\n"
     << "    \"reliability\": " << reliability_latency.to_json() << ",\n"
     << "    \"fleet\": " << fleet_latency.to_json() << "\n"
     << "  },\n"
     << "  \"solver\": {\n"
     << "    \"nodes\": " << solver.nodes << ",\n"
     << "    \"lp_iterations\": " << solver.lp_iterations << ",\n"
     << "    \"primal_pivots\": " << solver.lp.primal_pivots << ",\n"
     << "    \"dual_pivots\": " << solver.lp.dual_pivots << ",\n"
     << "    \"refactorizations\": " << solver.lp.refactorizations << ",\n"
     << "    \"warm_solves\": " << solver.lp.warm_solves << ",\n"
     << "    \"cold_solves\": " << solver.lp.cold_solves << ",\n"
     << "    \"warm_start_hit_rate\": " << format_fixed(warm_start_hit_rate, 4) << ",\n"
     << "    \"lu_refactorizations\": " << solver.lp.lu_refactorizations << ",\n"
     << "    \"eta_pivots\": " << solver.lp.eta_pivots << ",\n"
     << "    \"eta_nnz\": " << solver.lp.eta_nnz << ",\n"
     << "    \"fill_in_ratio\": " << format_fixed(solver.lp.fill_in_ratio(), 4) << ",\n"
     << "    \"devex_resets\": " << solver.lp.devex_resets << ",\n"
     << "    \"gomory_cuts\": " << solver.cuts.gomory_generated << ",\n"
     << "    \"cover_cuts\": " << solver.cuts.cover_generated << ",\n"
     << "    \"cuts_applied\": " << solver.cuts.applied << ",\n"
     << "    \"cuts_retained\": " << solver.cuts.retained << ",\n"
     << "    \"cut_rounds\": " << solver.cuts.rounds << ",\n"
     << "    \"impact_branch_decisions\": " << solver.impact_branch_decisions << ",\n"
     << "    \"pseudocost_branch_decisions\": " << solver.pseudocost_branch_decisions << ",\n"
     << "    \"arena_bytes\": " << solver.arena_bytes << ",\n"
     << "    \"threads\": " << solver.threads << ",\n"
     << "    \"steals\": " << solver.steals << ",\n"
     << "    \"idle_seconds\": " << format_fixed(solver.idle_seconds, 6) << "\n"
     << "  },\n"
     << "  \"cache\": {\n"
     << "    \"hits\": " << cache.hits << ",\n"
     << "    \"misses\": " << cache.misses << ",\n"
     << "    \"evictions\": " << cache.evictions << ",\n"
     << "    \"entries\": " << cache.entries << ",\n"
     << "    \"capacity\": " << cache.capacity << "\n"
     << "  },\n"
     << "  \"pool\": {\n"
     << "    \"workers\": " << workers << ",\n"
     << "    \"max_queue_depth\": " << max_queue_depth << "\n"
     << "  },\n"
     << "  \"rates\": {\n"
     << "    \"submitted_per_second_1m\": " << format_fixed(submitted_per_second_1m, 6) << ",\n"
     << "    \"submitted_per_second_5m\": " << format_fixed(submitted_per_second_5m, 6) << ",\n"
     << "    \"completed_per_second_1m\": " << format_fixed(completed_per_second_1m, 6) << ",\n"
     << "    \"completed_per_second_5m\": " << format_fixed(completed_per_second_5m, 6) << "\n"
     << "  }\n"
     << "}\n";
  return os.str();
}

std::string MetricsSnapshot::to_prometheus() const {
  obs::PrometheusWriter w;

  w.family("flowsynth_jobs_total", "Jobs by terminal disposition (running excluded).",
           "counter");
  w.sample("flowsynth_jobs_total", "state=\"submitted\"", static_cast<double>(jobs_submitted));
  w.sample("flowsynth_jobs_total", "state=\"completed\"", static_cast<double>(jobs_completed));
  w.sample("flowsynth_jobs_total", "state=\"cancelled\"", static_cast<double>(jobs_cancelled));
  w.sample("flowsynth_jobs_total", "state=\"failed\"", static_cast<double>(jobs_failed));
  w.sample("flowsynth_jobs_total", "state=\"rejected\"", static_cast<double>(jobs_rejected));

  w.family("flowsynth_jobs_running", "Jobs currently executing.", "gauge");
  w.sample("flowsynth_jobs_running", "", static_cast<double>(jobs_running));

  w.family("flowsynth_job_rate_per_second",
           "Jobs per second over the trailing window (interval-sample ring).", "gauge");
  w.sample("flowsynth_job_rate_per_second", "kind=\"submitted\",window=\"1m\"",
           submitted_per_second_1m);
  w.sample("flowsynth_job_rate_per_second", "kind=\"submitted\",window=\"5m\"",
           submitted_per_second_5m);
  w.sample("flowsynth_job_rate_per_second", "kind=\"completed\",window=\"1m\"",
           completed_per_second_1m);
  w.sample("flowsynth_job_rate_per_second", "kind=\"completed\",window=\"5m\"",
           completed_per_second_5m);

  w.family("flowsynth_mapper_invocations_total", "synthesize() calls executed.", "counter");
  w.sample("flowsynth_mapper_invocations_total", "", static_cast<double>(mapper_invocations));
  w.family("flowsynth_reliability_jobs_total", "Jobs that ran the reliability engine.",
           "counter");
  w.sample("flowsynth_reliability_jobs_total", "", static_cast<double>(reliability_jobs));

  w.family("flowsynth_fleet_jobs_total", "Jobs that ran the closed-loop fleet simulator.",
           "counter");
  w.sample("flowsynth_fleet_jobs_total", "", static_cast<double>(fleet_jobs));
  w.family("flowsynth_fleet_chips_total", "Virtual chips simulated across fleet jobs.",
           "counter");
  w.sample("flowsynth_fleet_chips_total", "", static_cast<double>(fleet.chips));
  w.family("flowsynth_fleet_assay_runs_total", "Assay runs executed across the fleet.",
           "counter");
  w.sample("flowsynth_fleet_assay_runs_total", "", static_cast<double>(fleet.assay_runs));
  w.family("flowsynth_fleet_self_tests_total", "Valve-array self-test schedules executed.",
           "counter");
  w.sample("flowsynth_fleet_self_tests_total", "", static_cast<double>(fleet.self_tests));
  w.family("flowsynth_fleet_faults_total", "Fleet fault lifecycle events.", "counter");
  w.sample("flowsynth_fleet_faults_total", "event=\"occurred\"",
           static_cast<double>(fleet.faults_occurred));
  w.sample("flowsynth_fleet_faults_total", "event=\"detected\"",
           static_cast<double>(fleet.faults_detected));
  w.sample("flowsynth_fleet_faults_total", "event=\"missed\"",
           static_cast<double>(fleet.faults_missed));
  w.sample("flowsynth_fleet_faults_total", "event=\"false_positive\"",
           static_cast<double>(fleet.false_positives));
  w.family("flowsynth_fleet_repairs_total", "Degraded re-synthesis repairs by outcome.",
           "counter");
  w.sample("flowsynth_fleet_repairs_total", "outcome=\"attempted\"",
           static_cast<double>(fleet.repairs_attempted));
  w.sample("flowsynth_fleet_repairs_total", "outcome=\"succeeded\"",
           static_cast<double>(fleet.repairs_succeeded));
  w.family("flowsynth_fleet_chips_retired_total",
           "Chips retired (repair infeasible or repair budget exhausted).", "counter");
  w.sample("flowsynth_fleet_chips_retired_total", "",
           static_cast<double>(fleet.chips_retired));
  w.family("flowsynth_fleet_detection_latency_runs_total",
           "Assay runs between fault onset and diagnosis, summed over detected faults.",
           "counter");
  w.sample("flowsynth_fleet_detection_latency_runs_total", "",
           static_cast<double>(fleet.detection_latency_runs));
  w.family("flowsynth_fleet_availability",
           "Fraction of chip-runs in service with no active fault.", "gauge");
  w.sample("flowsynth_fleet_availability", "", fleet.availability());

  w.family("flowsynth_race_arms_total", "Synthesis race arms by event.", "counter");
  w.sample("flowsynth_race_arms_total", "event=\"started\"",
           static_cast<double>(race_arms_started));
  w.sample("flowsynth_race_arms_total", "event=\"cancelled\"",
           static_cast<double>(race_arms_cancelled));

  w.family("flowsynth_job_latency_seconds", "Per-stage job latency distribution.",
           "histogram");
  w.histogram("flowsynth_job_latency_seconds", "stage=\"queue\"", queue_latency);
  w.histogram("flowsynth_job_latency_seconds", "stage=\"synthesis\"", synthesis_latency);
  w.histogram("flowsynth_job_latency_seconds", "stage=\"total\"", total_latency);
  w.histogram("flowsynth_job_latency_seconds", "stage=\"reliability\"", reliability_latency);
  w.histogram("flowsynth_job_latency_seconds", "stage=\"fleet\"", fleet_latency);

  w.family("flowsynth_solver_nodes_total", "Branch-and-bound nodes explored.", "counter");
  w.sample("flowsynth_solver_nodes_total", "", static_cast<double>(solver.nodes));
  w.family("flowsynth_solver_lp_iterations_total", "Simplex iterations.", "counter");
  w.sample("flowsynth_solver_lp_iterations_total", "",
           static_cast<double>(solver.lp_iterations));
  w.family("flowsynth_solver_pivots_total", "Simplex pivots by phase.", "counter");
  w.sample("flowsynth_solver_pivots_total", "phase=\"primal\"",
           static_cast<double>(solver.lp.primal_pivots));
  w.sample("flowsynth_solver_pivots_total", "phase=\"dual\"",
           static_cast<double>(solver.lp.dual_pivots));
  w.family("flowsynth_solver_solves_total", "LP solves by warm-start outcome.", "counter");
  w.sample("flowsynth_solver_solves_total", "start=\"warm\"",
           static_cast<double>(solver.lp.warm_solves));
  w.sample("flowsynth_solver_solves_total", "start=\"cold\"",
           static_cast<double>(solver.lp.cold_solves));
  w.family("flowsynth_solver_threads", "Widest parallel MILP solve seen.", "gauge");
  w.sample("flowsynth_solver_threads", "", static_cast<double>(solver.threads));
  w.family("flowsynth_solver_steals_total", "Work-stealing events across MILP solves.",
           "counter");
  w.sample("flowsynth_solver_steals_total", "", static_cast<double>(solver.steals));

  w.family("flowsynth_cache_events_total", "Result-cache lookups and evictions.", "counter");
  w.sample("flowsynth_cache_events_total", "event=\"hit\"", static_cast<double>(cache.hits));
  w.sample("flowsynth_cache_events_total", "event=\"miss\"",
           static_cast<double>(cache.misses));
  w.sample("flowsynth_cache_events_total", "event=\"eviction\"",
           static_cast<double>(cache.evictions));
  w.family("flowsynth_cache_entries", "Result-cache current entry count.", "gauge");
  w.sample("flowsynth_cache_entries", "", static_cast<double>(cache.entries));
  w.family("flowsynth_cache_capacity", "Result-cache capacity.", "gauge");
  w.sample("flowsynth_cache_capacity", "", static_cast<double>(cache.capacity));

  w.family("flowsynth_pool_workers", "Batch-service worker threads.", "gauge");
  w.sample("flowsynth_pool_workers", "", static_cast<double>(workers));
  w.family("flowsynth_queue_depth_limit", "Configured admission queue bound.", "gauge");
  w.sample("flowsynth_queue_depth_limit", "", static_cast<double>(max_queue_depth));

  return w.take();
}

}  // namespace fsyn::svc
