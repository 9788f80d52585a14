// Concurrent batch-synthesis service.
//
// `BatchService` turns the single-threaded `synth::synthesize` pipeline
// into a job-oriented service:
//
//  * jobs (assay + scheduling spec + SynthesisOptions + optional deadline)
//    are executed on a fixed-size thread pool with a bounded queue
//    (thread_pool.hpp) — full queue either blocks the submitter or rejects
//    the job, per configuration.  The job pool is where work is admitted;
//    the parallelism inside a job (race arms, sweep attempts, MILP workers,
//    Monte Carlo blocks) runs as task groups on the process-wide executor
//    (task_group.hpp), whose caller-runs waits let a pooled job nest them
//    without deadlock;
//  * every job carries a cooperative CancelToken; the deadline arms it, and
//    the token is polled deep inside the heuristic mapper, the MILP branch
//    & bound and the chip-size sweep, so a 1 ms deadline aborts in
//    milliseconds instead of after a full solve;
//  * portfolio racing (optional): one job fans out into several heuristic
//    arms with distinct seeds plus — for small instances — the exact ILP
//    mapper, all racing as executor tasks; the first acceptable result
//    cancels the rest.  This mirrors the paper's "ILP when tractable,
//    heuristic otherwise" split without guessing tractability up front.
//    Racing trades determinism for latency: which arm wins depends on
//    timing, so batch runs that must be reproducible leave it disabled;
//  * results land in a canonical-key LRU cache (result_cache.hpp):
//    re-submitting an identical job is a recorded cache hit and returns the
//    stored result without invoking any mapper;
//  * a metrics registry (metrics.hpp) counts jobs, stage wall-clock and
//    cache traffic, and serializes to JSON.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>

#include "assay/sequencing_graph.hpp"
#include "obs/trace_context.hpp"
#include "rel/engine.hpp"
#include "svc/metrics.hpp"
#include "svc/result_cache.hpp"
#include "svc/thread_pool.hpp"
#include "synth/synthesis.hpp"

namespace fsyn::svc {

struct PortfolioOptions {
  /// Off by default: racing is latency-optimal but not deterministic.
  bool enabled = false;
  /// Concurrent heuristic arms; arm k runs with seed `seed + k * 7919`.
  /// An exact-ILP arm joins them when the assay has at most 8 mixing
  /// operations (the ILP is only tractable on small instances).
  int heuristic_arms = 3;
};

enum class JobStatus {
  kDone,       ///< result available (freshly solved or cached)
  kCancelled,  ///< deadline hit or token cancelled before completion
  kFailed,     ///< synthesis threw (e.g. infeasible within growth limits)
  kRejected    ///< bounded queue full under the reject policy
};

const char* to_string(JobStatus status);

enum class JobKind {
  kSynthesis,   ///< synthesize only (the original service contract)
  kReliability, ///< synthesize (cache-aware), then run rel::analyze on it
  kFleet        ///< run JobSpec::fleet_runner (closed-loop fleet simulation)
};

/// Scheduling class of a job.  Lower values run first: the service keeps
/// one pending deque per class and every pool worker picks the oldest job
/// of the most urgent non-empty class, so an interactive request overtakes
/// any amount of queued background re-synthesis without preempting work
/// that already started.
enum class JobPriority {
  kInteractive = 0,  ///< a user is waiting (served API requests)
  kBatch = 1,        ///< bulk sweeps (the default; the original behaviour)
  kBackground = 2    ///< deferred work, e.g. fleet re-synthesis after faults
};

const char* to_string(JobPriority priority);

/// Lifecycle points reported to `JobSpec::on_phase`.
enum class JobPhase {
  kQueued,    ///< accepted into the pending queue (fires on the submitter)
  kStarted,   ///< a worker picked the job up
  kStage,     ///< entering a pipeline stage; `stage` names it
  kFinished   ///< terminal; `result` carries the outcome (incl. rejection)
};

/// Observer invoked at job lifecycle transitions.  kQueued fires on the
/// submitting thread, everything else on the worker running the job; no
/// service locks are held during the call, but the observer must still be
/// cheap and thread-safe — it runs inline with the job.  `stage` is only
/// non-null for kStage ("schedule", "cache", "synthesize", "reliability");
/// `result` only for kFinished.
using JobObserver =
    std::function<void(std::uint64_t id, JobPhase phase, const char* stage,
                       const struct JobResult* result)>;

/// Body of a kFleet job.  The service stays fleet-agnostic: the fleet layer
/// (which links against svc) packages its simulation into this callable.
/// The runner receives the job's armed CancelToken and a stats sink to fill
/// (folded into the registry on success), and returns the report document
/// published as JobResult::document.  It may run its own private
/// BatchService for repairs but must never submit back into the service
/// executing it (a pooled job waiting on pooled work deadlocks).
using FleetRunner = std::function<std::string(const CancelToken&, FleetStats*)>;

struct JobSpec {
  JobKind kind = JobKind::kSynthesis;
  /// Unique job id, echoed in JobResult and the observer calls.  0 lets
  /// the service assign one; callers that journal the job before
  /// submitting (the network front-end) pass their own.
  std::uint64_t id = 0;
  JobPriority priority = JobPriority::kBatch;
  JobObserver on_phase;  ///< optional lifecycle observer
  std::string name;  ///< display label (defaults to the graph name)
  assay::SequencingGraph graph;
  /// Scheduling spec, applied inside the worker: ASAP or a balancing
  /// policy with this many increments (sched::make_policy).
  int policy_increments = 0;
  bool asap = false;
  synth::SynthesisOptions options;
  /// Reliability-engine options (kReliability jobs).  `synthesis`,
  /// `policy_increments` and `asap` are overwritten from this spec; the
  /// cancel token is the job's.
  rel::ReliabilityOptions reliability;
  /// Body of a kFleet job (required for that kind, ignored otherwise).
  /// kFleet jobs skip scheduling, the result cache and the mappers — the
  /// runner owns the whole pipeline; `graph`/`options` are unused.
  FleetRunner fleet_runner;
  /// Wall-clock budget; arms the job's CancelToken.
  std::optional<std::chrono::milliseconds> deadline;
  /// Distributed trace context this job belongs to (W3C traceparent at the
  /// HTTP door, or minted there).  Invalid (all-zero) when the caller does
  /// not trace; the worker installs it as the ambient context for the job,
  /// so every solver span — including those of executor tasks, which carry
  /// their caller's context — carries the request's trace id.
  obs::TraceContext trace;
};

struct JobResult {
  JobStatus status = JobStatus::kFailed;
  std::uint64_t job_id = 0;  ///< the JobSpec::id this result answers
  /// Set iff status == kDone.  Shared with the cache: treat as immutable.
  std::shared_ptr<const synth::SynthesisResult> result;
  /// Set iff status == kDone and the job was kReliability.
  std::shared_ptr<const rel::ReliabilityReport> report;
  /// Set iff status == kDone and the job was kFleet: the runner's report
  /// document (JSON), served verbatim as the job result.
  std::shared_ptr<const std::string> document;
  bool cache_hit = false;
  /// Which portfolio arm produced the result: "heuristic[seed]", "ilp",
  /// "cache", or "single" when racing was off.
  std::string winner;
  std::string error;  ///< set for kFailed / kCancelled / kRejected
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
};

class BatchService {
 public:
  struct Config {
    /// 0 = std::thread::hardware_concurrency().
    int workers = 0;
    std::size_t queue_capacity = 256;
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// LRU entries; 0 disables the result cache.
    std::size_t cache_capacity = 256;
    PortfolioOptions portfolio;
  };

  BatchService() : BatchService(Config()) {}
  explicit BatchService(Config config);
  ~BatchService() = default;  // pool destructor drains and joins

  /// Enqueues a job.  The returned future never throws on get(): failures
  /// and rejections are reported in JobResult::status.  Jobs are ordered
  /// by JobSpec::priority, FIFO within a class.
  std::future<JobResult> submit(JobSpec spec);

  /// Point-in-time metrics including cache and pool gauges.
  MetricsSnapshot metrics() const;

  int worker_count() const { return pool_.worker_count(); }
  /// Jobs accepted but not yet picked up by a worker (admission control
  /// reads this together with the service-time histogram).
  std::size_t queue_depth() const { return pool_.queue_depth(); }

 private:
  /// A job accepted into the priority queue, waiting for a pool ticket.
  struct Pending {
    std::uint64_t seq = 0;  ///< FIFO order within a priority class
    std::shared_ptr<JobSpec> spec;
    std::shared_ptr<std::promise<JobResult>> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void run_next_pending();
  /// Runs one job and does its accounting: status, counters, run time,
  /// the job span and the kFinished notification.
  JobResult run_job(JobSpec& spec, std::chrono::steady_clock::time_point enqueued);
  /// The work of a job, filling `out`'s result fields; throws on failure.
  void execute(JobSpec& spec, JobResult& out);
  synth::SynthesisResult race(const JobSpec& spec, const sched::Schedule& schedule,
                              const CancelToken& job_token, std::string* winner);

  Config config_;
  ResultCache cache_;
  MetricsRegistry metrics_;
  std::atomic<std::uint64_t> next_job_id_{1};
  std::atomic<std::uint64_t> next_seq_{1};
  // Pool tickets are anonymous "run the best pending job" closures; the
  // actual job order lives here, one FIFO deque per priority class.  The
  // pool's bounded queue still provides the backpressure: #tickets ==
  // #pending entries at all times.
  mutable std::mutex pending_mutex_;
  std::array<std::deque<Pending>, 3> pending_;
  ThreadPool pool_;  // last member: workers must die before cache/metrics
};

}  // namespace fsyn::svc
