// Job lifecycle bookkeeping between the HTTP front-end and BatchService.
//
// The manager owns the durable half of the server: every submitted job
// gets a record (state machine: queued → running → done/cancelled/failed/
// rejected), a per-job CancelSource for `DELETE /v1/jobs/{id}`, and an
// event log consumed by the SSE stream.  Accepted jobs are journaled and
// fsync'd *before* they reach the service, terminal outcomes are journaled
// with the byte-exact result document, and `recover()` replays the journal
// on restart: finished jobs come back in their terminal state, accepted-
// but-unfinished jobs are re-enqueued under their original ids.
//
// Result documents reuse report::stored_result_to_json, so a job fetched
// via `GET /v1/jobs/{id}/result` serializes exactly like `flowsynth synth
// --out` would for the same spec (modulo the measured wall-clock field).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/journal.hpp"
#include "net/wire.hpp"
#include "obs/trace_context.hpp"
#include "svc/service.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace fsyn::net {

/// Front-end counters, exported under "net" in `GET /metrics`.
struct NetCounters {
  std::atomic<long> http_requests{0};
  std::atomic<long> bad_requests{0};        ///< protocol/parse errors (4xx)
  std::atomic<long> admission_rejected{0};  ///< 429 load-shed responses
  std::atomic<long> queue_rejected{0};      ///< jobs rejected by the full pool
  std::atomic<long> cancel_requests{0};     ///< DELETE calls received
  std::atomic<long> jobs_cancelled{0};      ///< jobs that ended cancelled
  std::atomic<long> replayed_done{0};       ///< terminal jobs restored on boot
  std::atomic<long> replayed_requeued{0};   ///< unfinished jobs re-enqueued
  std::atomic<long> sse_streams{0};         ///< event streams opened
};

/// One entry of a job's event log; `seq` is 1-based and per-job, so an SSE
/// client resuming with Last-Event-ID can skip what it already saw.
struct JobEvent {
  std::uint64_t seq = 0;
  std::string name;  ///< queued/running/stage/done/cancelled/failed/rejected
  std::string data;  ///< JSON payload
};

class JobManager {
 public:
  struct Config {
    svc::BatchService::Config service;
    /// Append-only journal path; empty disables durability.
    std::string journal_path;
    /// A finished job whose run time exceeds this gets a warning log line
    /// (with its trace id) and — when `flight_dump_dir` is set — an
    /// automatic flight-recorder dump.  0 disables the hook.
    double slow_job_seconds = 0.0;
    /// Directory for automatic slow-job flight dumps ("" = log only).
    std::string flight_dump_dir;
  };

  explicit JobManager(Config config);
  ~JobManager();
  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Opens the journal (when configured) and replays it: terminal records
  /// are restored, unfinished jobs re-enqueued with their original ids.
  /// Call once, before serving.
  void recover();

  /// Journals + enqueues a job; returns its id.  The returned job may
  /// already be terminal (kRejected) when the pool queue was full —
  /// callers inspect `state_of`.
  std::uint64_t submit(WireSpec wire);

  /// Requests cooperative cancellation.  False when the id is unknown or
  /// the job already reached a terminal state.
  bool cancel(std::uint64_t id);

  bool exists(std::uint64_t id) const;
  /// "queued", "running", "done", ... — empty when unknown.
  std::string state_of(std::uint64_t id) const;
  bool is_terminal(std::uint64_t id) const;

  /// Status document for one job; empty when unknown.
  std::string status_json(std::uint64_t id) const;
  /// `{"jobs":[{...}, ...]}` in id order.
  std::string list_json() const;
  /// Byte-exact result document.  False when unknown; `*state` always set
  /// for known jobs so callers can distinguish "not finished" from "ended
  /// without a result".
  bool result_doc(std::uint64_t id, std::string* doc, std::string* state) const;

  /// Events with seq > after_seq, in order.  Empty for unknown ids.
  std::vector<JobEvent> events_since(std::uint64_t id, std::uint64_t after_seq) const;
  /// Invoked (without locks held) after every appended event; the server
  /// uses it to wake the poll loop.  Pass nullptr to clear.
  void set_event_listener(std::function<void()> listener);

  /// `{"service": {...}, "net": {...}}`.
  std::string metrics_json() const;
  /// The same registry in the Prometheus text exposition format (service
  /// counters/histograms/rates plus the front-end counters).
  std::string metrics_prometheus() const;
  NetCounters& counters() { return counters_; }

  /// Cancels every job still waiting for a worker (graceful shutdown
  /// step 1) / every non-terminal job (step 2, grace expired).
  void cancel_queued();
  void cancel_all();
  /// Jobs not yet terminal.
  std::size_t active_jobs() const;

  double uptime_seconds() const;
  svc::BatchService& service() { return service_; }
  JobJournal& journal() { return journal_; }

  /// Final fsync; called once on graceful shutdown.
  void flush_journal() { journal_.flush(); }

 private:
  enum class State { kQueued, kRunning, kDone, kCancelled, kFailed, kRejected };
  static const char* to_string(State state);
  static bool terminal(State state) { return state >= State::kDone; }

  struct Record {
    std::uint64_t id = 0;
    State state = State::kQueued;
    std::string name;
    std::string assay_ref;
    svc::JobPriority priority = svc::JobPriority::kBatch;
    // Provenance for the stored-result document.
    int policy_increments = 0;
    bool asap = false;
    std::uint64_t seed = 0;

    /// Trace context of the accepting request; invalid for jobs submitted
    /// before tracing existed (old journals).  The id is echoed in every
    /// event payload and status document.
    obs::TraceContext trace;

    std::string stage;       ///< last pipeline stage entered
    std::string result_doc;  ///< terminal, status "done" only
    std::string error;
    std::string winner;
    bool cache_hit = false;
    double queue_seconds = 0.0;
    double run_seconds = 0.0;

    std::shared_ptr<CancelSource> cancel;
    std::vector<JobEvent> events;
    std::uint64_t next_seq = 1;
  };

  /// Creates the record and wires the spec's cancel token + observer.  The
  /// accept record is the caller's to journal (submit) or already on disk
  /// (replay).  Caller must not hold records_mutex_.
  std::uint64_t enqueue(WireSpec wire, std::uint64_t id);
  void on_phase(std::uint64_t id, svc::JobPhase phase, const char* stage,
                const svc::JobResult* result);
  /// Appends an event; records_mutex_ must be held by the caller.
  void push_event(Record& record, std::string name, std::string data);
  void write_status(const Record& record, JsonWriter& writer) const;

  Config config_;
  std::chrono::steady_clock::time_point start_;
  NetCounters counters_;
  JobJournal journal_;

  mutable std::mutex records_mutex_;
  std::map<std::uint64_t, Record> records_;
  std::uint64_t next_id_ = 1;

  mutable std::mutex listener_mutex_;
  std::function<void()> listener_;

  bool recovered_ = false;

  // Last member: its destructor joins the workers, whose observer hooks
  // touch records_/journal_ above.
  svc::BatchService service_;
};

}  // namespace fsyn::net
