#include "net/job_manager.hpp"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/prometheus.hpp"
#include "report/result_io.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::net {

namespace {

/// `{"state":"...","trace_id":"..."}` — the trace id rides along on every
/// lifecycle event so an SSE consumer can correlate frames with the
/// request that spawned the job.
std::string state_payload(const char* state, const obs::TraceContext& trace) {
  JsonWriter w;
  w.begin_object();
  w.key("state").value(state);
  if (trace.valid()) w.key("trace_id").value(trace.trace_id_hex());
  w.end_object();
  return w.take();
}

}  // namespace

JobManager::JobManager(Config config)
    : config_(std::move(config)),
      start_(std::chrono::steady_clock::now()),
      service_(config_.service) {}

JobManager::~JobManager() {
  // Workers may still be draining; make sure their observer callbacks find
  // no listener pointing at a dead server.
  set_event_listener(nullptr);
}

const char* JobManager::to_string(State state) {
  switch (state) {
    case State::kQueued: return "queued";
    case State::kRunning: return "running";
    case State::kDone: return "done";
    case State::kCancelled: return "cancelled";
    case State::kFailed: return "failed";
    case State::kRejected: return "rejected";
  }
  return "?";
}

void JobManager::recover() {
  require(!recovered_, "recover() called twice");
  recovered_ = true;
  if (config_.journal_path.empty()) return;

  const std::vector<JournalRecord> replay = journal_.open(config_.journal_path);

  // First pass: collect terminal outcomes so finished jobs are not re-run.
  std::map<std::uint64_t, const JournalRecord*> finished;
  for (const JournalRecord& record : replay) {
    if (record.type == JournalRecord::Type::kFinished) finished[record.id] = &record;
  }

  for (const JournalRecord& record : replay) {
    if (record.type != JournalRecord::Type::kAccepted) continue;
    {
      std::lock_guard<std::mutex> lock(records_mutex_);
      next_id_ = std::max(next_id_, record.id + 1);
      if (records_.count(record.id) != 0) continue;  // duplicate accept line
    }

    const auto it = finished.find(record.id);
    if (it != finished.end()) {
      // Restore the terminal state verbatim — including the byte-exact
      // result document — without re-running anything.
      const JournalRecord& fin = *it->second;
      {
        std::lock_guard<std::mutex> lock(records_mutex_);
        Record& r = records_[record.id];
        r.id = record.id;
        try {
          r.priority = priority_from_string(record.priority);
        } catch (const Error&) {
          r.priority = svc::JobPriority::kBatch;
        }
        // Best-effort provenance from the journaled spec (no re-validation:
        // the job is terminal, the fields are display-only).
        try {
          const JsonValue spec = JsonValue::parse(record.spec_json);
          if (const JsonValue* assay = spec.find("assay")) r.assay_ref = assay->as_string();
          if (const JsonValue* name = spec.find("name")) {
            r.name = name->as_string();
          } else {
            r.name = r.assay_ref;
          }
        } catch (const Error&) {
          r.assay_ref = "(replayed)";
        }
        // Replayed jobs keep the trace identity of the original request.
        obs::parse_traceparent(record.traceparent, &r.trace);
        if (fin.status == "done") {
          r.state = State::kDone;
        } else if (fin.status == "cancelled") {
          r.state = State::kCancelled;
        } else if (fin.status == "rejected") {
          r.state = State::kRejected;
        } else {
          r.state = State::kFailed;
        }
        r.result_doc = fin.result_doc;
        r.error = fin.error;
        push_event(r, to_string(r.state), "{\"replayed\":true}");
      }
      counters_.replayed_done.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    // Accepted but never finished: the crash interrupted it.  Re-enqueue
    // under the original id; the accept record is already durable, so no
    // new journal line is written.
    counters_.replayed_requeued.fetch_add(1, std::memory_order_relaxed);
    try {
      WireSpec wire = parse_wire_spec(record.spec_json);
      wire.spec.priority = priority_from_string(record.priority);
      obs::parse_traceparent(record.traceparent, &wire.spec.trace);
      enqueue(std::move(wire), record.id);
    } catch (const Error& e) {
      // The spec no longer parses (version skew, corruption).  Journal a
      // terminal record so the next restart does not retry it forever.
      log_error("journal: job ", record.id, " replay failed: ", e.what());
      {
        std::lock_guard<std::mutex> lock(records_mutex_);
        Record& r = records_[record.id];
        r.id = record.id;
        r.state = State::kFailed;
        r.error = std::string("replay failed: ") + e.what();
        push_event(r, "failed", "{\"replayed\":true}");
      }
      journal_.append_finished(record.id, "failed", "",
                               std::string("replay failed: ") + e.what());
    }
  }
}

std::uint64_t JobManager::submit(WireSpec wire) {
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(records_mutex_);
    id = next_id_++;
  }
  journal_.append_accepted(id, svc::to_string(wire.spec.priority), wire.canonical,
                           wire.spec.trace.valid() ? wire.spec.trace.traceparent()
                                                   : std::string());
  return enqueue(std::move(wire), id);
}

std::uint64_t JobManager::enqueue(WireSpec wire, std::uint64_t id) {
  auto cancel = std::make_shared<CancelSource>();
  {
    std::lock_guard<std::mutex> lock(records_mutex_);
    Record& r = records_[id];
    r.id = id;
    r.state = State::kQueued;
    r.name = wire.spec.name;
    r.assay_ref = wire.assay_ref;
    r.priority = wire.spec.priority;
    r.policy_increments = wire.policy_increments;
    r.asap = wire.asap;
    r.seed = wire.seed;
    r.trace = wire.spec.trace;
    r.cancel = cancel;
    // Emitted here, not from the service's kQueued callback: the worker can
    // pick the job up before submit() returns, and the event seqs must still
    // read queued -> running.
    push_event(r, "queued", state_payload("queued", r.trace));
  }

  svc::JobSpec spec = std::move(wire.spec);
  spec.id = id;
  spec.options.cancel = cancel->token();
  spec.on_phase = [this](std::uint64_t job_id, svc::JobPhase phase, const char* stage,
                         const svc::JobResult* result) {
    on_phase(job_id, phase, stage, result);
  };
  service_.submit(std::move(spec));  // outcome arrives via on_phase
  return id;
}

void JobManager::on_phase(std::uint64_t id, svc::JobPhase phase, const char* stage,
                          const svc::JobResult* result) {
  // Build the (potentially large) result document outside the lock.
  std::string doc;
  std::string journal_status;
  std::string journal_error;
  double slow_seconds = -1.0;  ///< >= 0 when the slow-job hook fires
  std::string slow_trace;
  std::string slow_name;
  if (phase == svc::JobPhase::kFinished && result != nullptr &&
      result->status == svc::JobStatus::kDone) {
    if (result->report != nullptr) {
      doc = result->report->to_json();
    } else if (result->document != nullptr) {
      doc = *result->document;  // fleet jobs carry a ready-made document
    } else if (result->result != nullptr) {
      report::StoredResult stored;
      {
        std::lock_guard<std::mutex> lock(records_mutex_);
        const auto it = records_.find(id);
        if (it != records_.end()) {
          stored.assay = it->second.assay_ref;
          stored.policy_increments = it->second.policy_increments;
          stored.asap = it->second.asap;
          stored.seed = it->second.seed;
        }
      }
      stored.result = *result->result;
      doc = report::stored_result_to_json(stored);
    }
  }

  {
    std::lock_guard<std::mutex> lock(records_mutex_);
    const auto it = records_.find(id);
    if (it == records_.end()) return;
    Record& r = it->second;
    switch (phase) {
      case svc::JobPhase::kQueued:
        break;  // already emitted by enqueue(), in guaranteed order
      case svc::JobPhase::kStarted:
        r.state = State::kRunning;
        push_event(r, "running", state_payload("running", r.trace));
        break;
      case svc::JobPhase::kStage: {
        r.stage = stage != nullptr ? stage : "";
        JsonWriter w;
        w.begin_object();
        w.key("stage").value(r.stage);
        if (r.trace.valid()) w.key("trace_id").value(r.trace.trace_id_hex());
        w.end_object();
        push_event(r, "stage", w.take());
        break;
      }
      case svc::JobPhase::kFinished: {
        if (result == nullptr) break;
        switch (result->status) {
          case svc::JobStatus::kDone: r.state = State::kDone; break;
          case svc::JobStatus::kCancelled: r.state = State::kCancelled; break;
          case svc::JobStatus::kFailed: r.state = State::kFailed; break;
          case svc::JobStatus::kRejected: r.state = State::kRejected; break;
        }
        r.result_doc = doc;
        r.error = result->error;
        r.winner = result->winner;
        r.cache_hit = result->cache_hit;
        r.queue_seconds = result->queue_seconds;
        r.run_seconds = result->run_seconds;
        journal_status = svc::to_string(result->status);
        journal_error = result->error;
        if (config_.slow_job_seconds > 0.0 &&
            result->run_seconds >= config_.slow_job_seconds) {
          slow_seconds = result->run_seconds;
          slow_trace = r.trace.valid() ? r.trace.trace_id_hex() : "-";
          slow_name = r.name;
        }
        if (result->status == svc::JobStatus::kCancelled) {
          counters_.jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
        } else if (result->status == svc::JobStatus::kRejected) {
          counters_.queue_rejected.fetch_add(1, std::memory_order_relaxed);
        }
        JsonWriter w;
        write_status(r, w);
        push_event(r, to_string(r.state), w.take());
        break;
      }
    }
  }

  // Journal the terminal outcome before notifying watchers, so an SSE
  // "done" frame is never observed for a job a crash could forget.
  if (!journal_status.empty()) {
    journal_.append_finished(id, journal_status, doc, journal_error);
  }

  if (slow_seconds >= 0.0) {
    // The flight recorder still holds the spans of the job that just
    // finished; dump before newer work overwrites them.
    log_warn("slow job ", id, " (", slow_name, "): ", slow_seconds,
             "s >= ", config_.slow_job_seconds, "s threshold, trace_id=", slow_trace);
    if (!config_.flight_dump_dir.empty() && obs::flight_recording_enabled()) {
      const std::string path =
          config_.flight_dump_dir + "/slow-job-" + std::to_string(id) + ".trace.json";
      try {
        obs::FlightRecorder::instance().dump_json_file(path);
        log_info("slow job ", id, ": flight recorder dumped to ", path);
      } catch (const std::exception& e) {
        log_error("slow job ", id, ": flight dump failed: ", e.what());
      }
    }
  }

  std::function<void()> listener;
  {
    std::lock_guard<std::mutex> lock(listener_mutex_);
    listener = listener_;
  }
  if (listener) listener();
}

void JobManager::push_event(Record& record, std::string name, std::string data) {
  JobEvent event;
  event.seq = record.next_seq++;
  event.name = std::move(name);
  event.data = std::move(data);
  record.events.push_back(std::move(event));
}

bool JobManager::cancel(std::uint64_t id) {
  counters_.cancel_requests.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<CancelSource> cancel;
  {
    std::lock_guard<std::mutex> lock(records_mutex_);
    const auto it = records_.find(id);
    if (it == records_.end() || terminal(it->second.state)) return false;
    cancel = it->second.cancel;
  }
  if (cancel != nullptr) cancel->cancel();
  return true;
}

void JobManager::cancel_queued() {
  std::vector<std::shared_ptr<CancelSource>> sources;
  {
    std::lock_guard<std::mutex> lock(records_mutex_);
    for (auto& [id, record] : records_) {
      if (record.state == State::kQueued && record.cancel != nullptr) {
        sources.push_back(record.cancel);
      }
    }
  }
  for (auto& source : sources) source->cancel();
}

void JobManager::cancel_all() {
  std::vector<std::shared_ptr<CancelSource>> sources;
  {
    std::lock_guard<std::mutex> lock(records_mutex_);
    for (auto& [id, record] : records_) {
      if (!terminal(record.state) && record.cancel != nullptr) {
        sources.push_back(record.cancel);
      }
    }
  }
  for (auto& source : sources) source->cancel();
}

std::size_t JobManager::active_jobs() const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  std::size_t active = 0;
  for (const auto& [id, record] : records_) {
    if (!terminal(record.state)) ++active;
  }
  return active;
}

bool JobManager::exists(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  return records_.count(id) != 0;
}

std::string JobManager::state_of(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  const auto it = records_.find(id);
  return it == records_.end() ? std::string() : std::string(to_string(it->second.state));
}

bool JobManager::is_terminal(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  const auto it = records_.find(id);
  return it != records_.end() && terminal(it->second.state);
}

void JobManager::write_status(const Record& record, JsonWriter& w) const {
  w.begin_object();
  w.key("id").value(record.id);
  w.key("state").value(to_string(record.state));
  w.key("name").value(record.name);
  w.key("assay").value(record.assay_ref);
  w.key("priority").value(svc::to_string(record.priority));
  if (record.trace.valid()) w.key("trace_id").value(record.trace.trace_id_hex());
  if (!record.stage.empty()) w.key("stage").value(record.stage);
  if (terminal(record.state)) {
    w.key("cache_hit").value(record.cache_hit);
    if (!record.winner.empty()) w.key("winner").value(record.winner);
    w.key("queue_seconds").value(record.queue_seconds);
    w.key("run_seconds").value(record.run_seconds);
    w.key("has_result").value(!record.result_doc.empty());
  }
  if (!record.error.empty()) w.key("error").value(record.error);
  w.end_object();
}

std::string JobManager::status_json(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return std::string();
  JsonWriter w;
  write_status(it->second, w);
  return w.take();
}

std::string JobManager::list_json() const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("jobs").begin_array();
  for (const auto& [id, record] : records_) {
    write_status(record, w);
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool JobManager::result_doc(std::uint64_t id, std::string* doc, std::string* state) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  if (state != nullptr) *state = to_string(it->second.state);
  if (doc != nullptr) *doc = it->second.result_doc;
  return true;
}

std::vector<JobEvent> JobManager::events_since(std::uint64_t id,
                                               std::uint64_t after_seq) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  std::vector<JobEvent> events;
  const auto it = records_.find(id);
  if (it == records_.end()) return events;
  for (const JobEvent& event : it->second.events) {
    if (event.seq > after_seq) events.push_back(event);
  }
  return events;
}

void JobManager::set_event_listener(std::function<void()> listener) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  listener_ = std::move(listener);
}

double JobManager::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

std::string JobManager::metrics_json() const {
  long queued = 0, running = 0, done = 0, cancelled = 0, failed = 0, rejected = 0;
  {
    std::lock_guard<std::mutex> lock(records_mutex_);
    for (const auto& [id, record] : records_) {
      switch (record.state) {
        case State::kQueued: ++queued; break;
        case State::kRunning: ++running; break;
        case State::kDone: ++done; break;
        case State::kCancelled: ++cancelled; break;
        case State::kFailed: ++failed; break;
        case State::kRejected: ++rejected; break;
      }
    }
  }
  const JournalStats js = journal_.stats();

  JsonWriter w;
  w.begin_object();
  w.key("service").raw(service_.metrics().to_json());
  w.key("net").begin_object();
  w.key("uptime_seconds").value(uptime_seconds());
  w.key("http_requests").value(counters_.http_requests.load(std::memory_order_relaxed));
  w.key("bad_requests").value(counters_.bad_requests.load(std::memory_order_relaxed));
  w.key("admission_rejected")
      .value(counters_.admission_rejected.load(std::memory_order_relaxed));
  w.key("queue_rejected").value(counters_.queue_rejected.load(std::memory_order_relaxed));
  w.key("cancel_requests").value(counters_.cancel_requests.load(std::memory_order_relaxed));
  w.key("jobs_cancelled").value(counters_.jobs_cancelled.load(std::memory_order_relaxed));
  w.key("sse_streams").value(counters_.sse_streams.load(std::memory_order_relaxed));
  w.key("jobs").begin_object();
  w.key("queued").value(queued);
  w.key("running").value(running);
  w.key("done").value(done);
  w.key("cancelled").value(cancelled);
  w.key("failed").value(failed);
  w.key("rejected").value(rejected);
  w.end_object();
  w.key("journal").begin_object();
  w.key("enabled").value(journal_.is_open());
  w.key("appends").value(js.appends);
  w.key("fsyncs").value(js.fsyncs);
  w.key("replayed_records").value(js.replayed_records);
  w.key("replayed_done").value(counters_.replayed_done.load(std::memory_order_relaxed));
  w.key("replayed_requeued")
      .value(counters_.replayed_requeued.load(std::memory_order_relaxed));
  w.key("torn_lines").value(js.torn_lines);
  w.end_object();
  w.end_object();
  w.end_object();
  return w.take();
}

std::string JobManager::metrics_prometheus() const {
  // Service families first (counters, rates, latency histograms), then the
  // HTTP front-end counters under their own names.
  std::string text = service_.metrics().to_prometheus();
  const JournalStats js = journal_.stats();

  obs::PrometheusWriter w;
  w.family("flowsynth_http_requests_total", "HTTP requests parsed.", "counter");
  w.sample("flowsynth_http_requests_total", "",
           static_cast<double>(counters_.http_requests.load(std::memory_order_relaxed)));
  w.family("flowsynth_http_errors_total", "Request-level failures by reason.", "counter");
  w.sample("flowsynth_http_errors_total", "reason=\"bad_request\"",
           static_cast<double>(counters_.bad_requests.load(std::memory_order_relaxed)));
  w.sample("flowsynth_http_errors_total", "reason=\"admission_rejected\"",
           static_cast<double>(counters_.admission_rejected.load(std::memory_order_relaxed)));
  w.sample("flowsynth_http_errors_total", "reason=\"queue_rejected\"",
           static_cast<double>(counters_.queue_rejected.load(std::memory_order_relaxed)));
  w.family("flowsynth_sse_streams_total", "Event streams opened.", "counter");
  w.sample("flowsynth_sse_streams_total", "",
           static_cast<double>(counters_.sse_streams.load(std::memory_order_relaxed)));
  w.family("flowsynth_uptime_seconds", "Seconds since the manager started.", "gauge");
  w.sample("flowsynth_uptime_seconds", "", uptime_seconds());
  w.family("flowsynth_journal_appends_total", "Journal records appended.", "counter");
  w.sample("flowsynth_journal_appends_total", "", static_cast<double>(js.appends));
  w.family("flowsynth_journal_torn_lines_total", "Corrupt journal lines dropped.",
           "counter");
  w.sample("flowsynth_journal_torn_lines_total", "", static_cast<double>(js.torn_lines));

  text += w.take();
  return text;
}

}  // namespace fsyn::net
