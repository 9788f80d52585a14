#include "svc/service.hpp"

#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sched/list_scheduler.hpp"
#include "svc/task_group.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Seed distance between consecutive heuristic race arms.
constexpr std::uint64_t kArmSeedStride = 7919;
/// An exact-ILP arm joins the race when the assay has at most this many
/// mixing operations (the ILP is only tractable on small instances).
constexpr int kIlpArmMaxMixingOps = 8;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void notify(const JobSpec& spec, JobPhase phase, const char* stage = nullptr,
            const JobResult* result = nullptr) {
  if (spec.on_phase) spec.on_phase(spec.id, phase, stage, result);
}

int default_workers(int configured) {
  if (configured > 0) return configured;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kDone: return "done";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kRejected: return "rejected";
  }
  return "?";
}

const char* to_string(JobPriority priority) {
  switch (priority) {
    case JobPriority::kInteractive: return "interactive";
    case JobPriority::kBatch: return "batch";
    case JobPriority::kBackground: return "background";
  }
  return "?";
}

BatchService::BatchService(Config config)
    : config_(config), cache_(config.cache_capacity),
      pool_(default_workers(config.workers), config.queue_capacity, config.overflow) {}

std::future<JobResult> BatchService::submit(JobSpec spec) {
  metrics_.job_submitted();
  if (spec.id == 0) spec.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);

  Pending pending;
  pending.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  pending.enqueued = Clock::now();
  // The shared_ptr keeps the spec alive inside the queue; jobs can be
  // large (a whole sequencing graph), so they are moved, never copied.
  pending.spec = std::make_shared<JobSpec>(std::move(spec));
  pending.promise = std::make_shared<std::promise<JobResult>>();
  std::future<JobResult> future = pending.promise->get_future();

  const std::uint64_t id = pending.spec->id;
  const std::uint64_t seq = pending.seq;
  const JobObserver observer = pending.spec->on_phase;
  const auto klass = static_cast<std::size_t>(pending.spec->priority);
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_[klass].push_back(std::move(pending));
  }
  // The ticket is anonymous: whichever worker runs it picks the most
  // urgent pending job, which is what turns the pool's FIFO into a
  // priority queue without touching the pool itself.
  const bool accepted = pool_.submit([this] { run_next_pending(); });
  if (accepted) {
    if (observer) observer(id, JobPhase::kQueued, nullptr, nullptr);
    return future;
  }

  // The ticket was rejected, so one pending entry has no ticket.  Prefer
  // evicting the entry just pushed; when an already-issued ticket consumed
  // it in the meantime, evict the newest entry of the least urgent class
  // instead (counts stay consistent: #tickets == #pending afterwards).
  Pending victim;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    auto& own = pending_[klass];
    for (auto it = own.begin(); it != own.end(); ++it) {
      if (it->seq == seq) {
        victim = std::move(*it);
        own.erase(it);
        found = true;
        break;
      }
    }
    for (std::size_t c = pending_.size(); !found && c-- > 0;) {
      if (!pending_[c].empty()) {
        victim = std::move(pending_[c].back());
        pending_[c].pop_back();
        found = true;
      }
    }
  }
  require(found, "rejected submit with no pending entry to evict");
  metrics_.job_rejected();
  JobResult rejected;
  rejected.status = JobStatus::kRejected;
  rejected.job_id = victim.spec->id;
  rejected.error = "job queue full (reject policy) or service shutting down";
  notify(*victim.spec, JobPhase::kFinished, nullptr, &rejected);
  victim.promise->set_value(std::move(rejected));
  return future;
}

void BatchService::run_next_pending() {
  Pending pending;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    for (auto& klass : pending_) {
      if (!klass.empty()) {
        pending = std::move(klass.front());
        klass.pop_front();
        break;
      }
    }
  }
  require(pending.spec != nullptr, "pool ticket without a pending job");
  pending.promise->set_value(run_job(*pending.spec, pending.enqueued));
}

MetricsSnapshot BatchService::metrics() const {
  MetricsSnapshot snapshot = metrics_.snapshot();
  snapshot.cache = cache_.stats();
  snapshot.workers = pool_.worker_count();
  snapshot.max_queue_depth = pool_.max_queue_depth();
  return snapshot;
}

JobResult BatchService::run_job(JobSpec& spec, Clock::time_point enqueued) {
  metrics_.job_started();
  const Clock::time_point started = Clock::now();
  notify(spec, JobPhase::kStarted);

  JobResult out;
  out.job_id = spec.id;
  out.queue_seconds = seconds_between(enqueued, started);
  metrics_.add_queue_time(started - enqueued);

  // Adopt the request's trace context for the duration of the job: every
  // span below (schedule, race, reliability, solver internals) inherits the
  // trace id; the scope also clears any context a previous job left on this
  // pooled worker thread.
  obs::TraceContextScope trace_scope(spec.trace);
  obs::Span job_span("svc", "job " + spec.name);
  if (job_span.active()) {
    // The wait predates this worker picking the job up, so it cannot be an
    // RAII span; reconstruct it as an explicit complete event ending now.
    obs::Tracer& tracer = obs::Tracer::instance();
    const auto wait_us =
        std::chrono::duration_cast<std::chrono::microseconds>(started - enqueued).count();
    tracer.complete("svc", "queued " + spec.name, tracer.now_us() - wait_us, wait_us);
  }

  try {
    execute(spec, out);
    out.status = JobStatus::kDone;
    metrics_.job_completed();
  } catch (const CancelledError& e) {
    out.status = JobStatus::kCancelled;
    out.error = e.what();
    metrics_.job_cancelled();
  } catch (const std::exception& e) {
    out.status = JobStatus::kFailed;
    out.error = e.what();
    metrics_.job_failed();
  }

  const Clock::time_point finished = Clock::now();
  out.run_seconds = seconds_between(started, finished);
  metrics_.add_total_time(finished - enqueued);
  if (job_span.active()) {
    job_span.arg("status", to_string(out.status));
    job_span.arg("cache_hit", out.cache_hit);
    if (!out.winner.empty()) job_span.arg("winner", out.winner);
  }
  notify(spec, JobPhase::kFinished, nullptr, &out);
  return out;
}

void BatchService::execute(JobSpec& spec, JobResult& out) {
  if (spec.kind == JobKind::kFleet) {
    // Fleet jobs bypass scheduling, the cache and the mappers entirely:
    // the runner owns the whole closed loop (simulation + its own private
    // repair service) and reports back a document plus fold-in counters.
    require(spec.fleet_runner != nullptr, "kFleet job without a fleet_runner");
    metrics_.fleet_job();
    notify(spec, JobPhase::kStage, "fleet");
    CancelSource job_source(spec.options.cancel);
    if (spec.deadline.has_value()) {
      job_source.set_deadline_after(*spec.deadline);
    }
    obs::Span fleet_span("svc", "fleet " + spec.name);
    FleetStats stats;
    const Clock::time_point fleet_started = Clock::now();
    std::string document = spec.fleet_runner(job_source.token(), &stats);
    metrics_.add_fleet_time(Clock::now() - fleet_started);
    metrics_.record_fleet(stats);
    if (fleet_span.active()) {
      fleet_span.arg("chips", stats.chips);
      fleet_span.arg("faults_detected", stats.faults_detected);
      fleet_span.arg("repairs_succeeded", stats.repairs_succeeded);
    }
    out.document = std::make_shared<const std::string>(std::move(document));
    out.winner = "fleet";
    return;
  }

  // Scheduling is deterministic and cheap; it runs inside the worker so
  // the submitter never blocks on assay-sized work.
  notify(spec, JobPhase::kStage, "schedule");
  const sched::Schedule schedule = [&] {
    obs::Span span("svc", "schedule");
    return sched::schedule_for(spec.graph, spec.asap, spec.policy_increments);
  }();

  // The healthy mapping: cached if available (reliability jobs use a hit
  // too — their analysis is never cached, but the synthesis is), freshly
  // solved otherwise.
  const CacheKey key = canonical_key(spec.graph, schedule, spec.options);
  if (std::shared_ptr<const synth::SynthesisResult> cached = cache_.lookup(key)) {
    out.result = std::move(cached);
    out.cache_hit = true;
    out.winner = "cache";
    notify(spec, JobPhase::kStage, "cache");
    if (spec.kind == JobKind::kSynthesis) return;
  }

  // Arm the job-level token: deadline plus (chained) any caller token.
  CancelSource job_source(spec.options.cancel);
  if (spec.deadline.has_value()) {
    job_source.set_deadline_after(*spec.deadline);
  }
  const CancelToken job_token = job_source.token();
  spec.options.cancel = job_token;

  if (!out.cache_hit) {
    notify(spec, JobPhase::kStage, "synthesize");
    const Clock::time_point synth_started = Clock::now();
    synth::SynthesisResult result;
    if (config_.portfolio.enabled && spec.options.mapper == synth::MapperKind::kHeuristic) {
      result = race(spec, schedule, job_token, &out.winner);
    } else {
      metrics_.mapper_invoked();
      result = synth::synthesize(spec.graph, schedule, spec.options);
      out.winner = "single";
    }
    metrics_.add_synthesis_time(Clock::now() - synth_started);
    // MILP solver counters of the (winning) synthesis; zeros for heuristic
    // runs, so the aggregate reflects ILP work only.
    metrics_.record_solver(result.milp);
    out.result = std::make_shared<const synth::SynthesisResult>(std::move(result));
    cache_.insert(key, out.result);
  }

  if (spec.kind == JobKind::kReliability) {
    metrics_.reliability_job();
    notify(spec, JobPhase::kStage, "reliability");
    obs::Span rel_span("svc", "reliability " + spec.name);
    rel::ReliabilityOptions ropts = spec.reliability;
    ropts.synthesis = spec.options;  // same mapper/limits for repair rounds
    ropts.policy_increments = spec.policy_increments;
    ropts.asap = spec.asap;
    ropts.monte_carlo.cancel = job_token;
    const Clock::time_point rel_started = Clock::now();
    out.report = std::make_shared<const rel::ReliabilityReport>(
        rel::analyze(spec.graph, schedule, *out.result, ropts));
    metrics_.add_reliability_time(Clock::now() - rel_started);
    if (rel_span.active()) {
      rel_span.arg("mttf_runs", out.report->healthy.mttf_runs);
      rel_span.arg("rounds", out.report->rounds.size());
    }
  }
}

synth::SynthesisResult BatchService::race(const JobSpec& spec,
                                          const sched::Schedule& schedule,
                                          const CancelToken& job_token, std::string* winner) {
  struct Arm {
    std::string name;
    synth::SynthesisOptions options;
    CancelSource source;
  };

  // Build the arm lineup: several heuristic seeds, plus the exact ILP on
  // instances small enough for it to be competitive.
  std::vector<Arm> arms;
  for (int k = 0; k < std::max(1, config_.portfolio.heuristic_arms); ++k) {
    Arm arm{"", spec.options, CancelSource(job_token)};
    arm.options.mapper = synth::MapperKind::kHeuristic;
    arm.options.heuristic.seed =
        spec.options.heuristic.seed + static_cast<std::uint64_t>(k) * kArmSeedStride;
    arm.name = "heuristic[" + std::to_string(arm.options.heuristic.seed) + "]";
    arms.push_back(std::move(arm));
  }
  if (spec.graph.mixing_count() <= kIlpArmMaxMixingOps) {
    Arm arm{"ilp", spec.options, CancelSource(job_token)};
    arm.options.mapper = synth::MapperKind::kIlp;
    arms.push_back(std::move(arm));
  }

  obs::Span race_span("svc", "race");
  if (race_span.active()) race_span.arg("arms", arms.size());

  std::mutex mutex;
  std::optional<synth::SynthesisResult> best;
  std::string best_name;
  std::string first_error;

  // One executor task per arm; arms no helper has started run on this
  // job's thread (after a winner, they stop at their first cancel check).
  TaskGroup group;
  for (Arm& arm : arms) {
    arm.options.cancel = arm.source.token();
    metrics_.race_arm_started();
    // The task carries the trace context of this point, after race_span
    // began, so arms parent to the race span and carry the job's trace id.
    group.run([this, &spec, &schedule, &arm, &arms, &mutex, &best, &best_name, &first_error] {
      obs::Span arm_span("svc", "arm " + arm.name);
      try {
        metrics_.mapper_invoked();
        synth::SynthesisResult result = synth::synthesize(spec.graph, schedule, arm.options);
        bool won = false;
        {
          std::lock_guard<std::mutex> lock(mutex);
          // First acceptable (= feasible) result wins the race.
          if (!best.has_value()) {
            best = std::move(result);
            best_name = arm.name;
            won = true;
          }
        }
        if (arm_span.active()) arm_span.arg("won", won);
        if (won) {
          for (Arm& other : arms) {
            if (&other != &arm) {
              other.source.cancel();
              metrics_.race_arm_cancelled();
            }
          }
        }
      } catch (const CancelledError&) {
        // Lost the race (or the job deadline fired); nothing to record.
        if (arm_span.active()) arm_span.arg("cancelled", true);
      } catch (const std::exception& e) {
        if (arm_span.active()) arm_span.arg("failed", true);
        std::lock_guard<std::mutex> lock(mutex);
        if (first_error.empty()) first_error = e.what();
      }
    });
  }
  group.wait();

  if (best.has_value()) {
    *winner = best_name;
    if (race_span.active()) race_span.arg("winner", best_name);
    log_info("svc: race won by ", best_name, " (", arms.size(), " arms)");
    return *std::move(best);
  }
  job_token.check("portfolio race");  // job-level cancellation/deadline
  throw Error(first_error.empty() ? "portfolio race produced no feasible result"
                                  : first_error);
}

}  // namespace fsyn::svc
