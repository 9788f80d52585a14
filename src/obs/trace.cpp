#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace fsyn::obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
std::atomic<bool> g_flight_enabled{false};
}  // namespace detail

// ---- JSON fragments --------------------------------------------------------

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; clamp to a sentinel the viewer can show.
    out += value > 0 ? "1e308" : (value < 0 ? "-1e308" : "0");
    return;
  }
  char buffer[40];
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    std::snprintf(buffer, sizeof buffer, "%" PRId64, static_cast<std::int64_t>(value));
  } else {
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
  }
  out += buffer;
}

void append_json_member(std::string& out, std::string_view key, std::string_view value) {
  append_json_string(out, key);
  out += ':';
  append_json_string(out, value);
}

void append_json_member(std::string& out, std::string_view key, std::int64_t value) {
  append_json_string(out, key);
  out += ':';
  out += std::to_string(value);
}

void append_json_member(std::string& out, std::string_view key, double value) {
  append_json_string(out, key);
  out += ':';
  append_json_number(out, value);
}

void append_json_member(std::string& out, std::string_view key, bool value) {
  append_json_string(out, key);
  out += value ? ":true" : ":false";
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Buffer& Tracer::local_buffer() {
  // One buffer per (thread, process); the shared_ptr in the registry keeps
  // it readable after the thread exits, so short-lived race-arm threads
  // never lose events.
  thread_local std::shared_ptr<Buffer> buffer = [this] {
    auto fresh = std::make_shared<Buffer>();
    fresh->tid = current_thread_id();
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers_.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

void Tracer::record(TraceEvent event) {
  Buffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    ++buffer.dropped;
    return;
  }
  event.tid = buffer.tid;
  buffer.events.push_back(std::move(event));
}

void Tracer::complete(const char* category, std::string name, std::int64_t start_us,
                      std::int64_t duration_us, std::string args) {
  TraceEvent event;
  event.kind = EventKind::kComplete;
  event.category = category;
  event.name = std::move(name);
  event.start_us = start_us;
  event.duration_us = duration_us;
  event.args = std::move(args);
  const TraceContext context = current_trace();
  if (context.valid()) {
    event.trace_hi = context.trace_hi;
    event.trace_lo = context.trace_lo;
    event.span_id = make_span_id();
    event.parent_span = context.parent_span;
  }
  if (flight_recording_enabled()) {
    event.tid = current_thread_id();
    FlightRecorder::instance().record(event);
  }
  // Guarded here, not at call sites: a caller holding an active Span may
  // only have the flight recorder on, and the tracer's unbounded-until-
  // drain buffers must not fill in that mode.
  if (tracing_enabled()) record(std::move(event));
}

void Tracer::counter(const char* category, std::string name, double value) {
  TraceEvent event;
  event.kind = EventKind::kCounter;
  event.category = category;
  event.name = std::move(name);
  event.start_us = now_us();
  event.value = value;
  record(std::move(event));
}

void Tracer::instant(const char* category, std::string name, std::string args) {
  TraceEvent event;
  event.kind = EventKind::kInstant;
  event.category = category;
  event.name = std::move(name);
  event.start_us = now_us();
  event.args = std::move(args);
  record(std::move(event));
}

void Tracer::set_thread_name(std::string name) {
  Buffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.thread_name = std::move(name);
}

std::vector<TraceEvent> Tracer::drain() {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> events;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    events.insert(events.end(), std::make_move_iterator(buffer->events.begin()),
                  std::make_move_iterator(buffer->events.end()));
    buffer->events.clear();
  }
  // Retire buffers of exited threads once drained.  Services spawn
  // short-lived race-arm threads per job; without pruning, their (now
  // empty) buffers would accumulate in the registry forever.  A buffer is
  // provably dead when the only owners left are the registry and the
  // `buffers` snapshot above — the owning thread's thread_local reference
  // is gone, so no further writes can happen.  Restricting the check to
  // snapshotted entries keeps a buffer that is mid-registration (its
  // thread_local not yet assigned) safe: it cannot be in the snapshot.
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    std::erase_if(buffers_, [&](const std::shared_ptr<Buffer>& entry) {
      if (std::find(buffers.begin(), buffers.end(), entry) == buffers.end()) return false;
      if (entry.use_count() != 2) return false;
      std::lock_guard<std::mutex> buffer_lock(entry->mutex);
      if (!entry->events.empty()) return false;
      retired_dropped_.fetch_add(entry->dropped, std::memory_order_relaxed);
      return true;
    });
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_us < b.start_us;
                   });
  return events;
}

std::vector<std::pair<int, std::string>> Tracer::thread_names() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers = buffers_;
  }
  std::vector<std::pair<int, std::string>> names;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    if (!buffer->thread_name.empty()) names.emplace_back(buffer->tid, buffer->thread_name);
  }
  return names;
}

std::uint64_t Tracer::dropped_events() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers = buffers_;
  }
  std::uint64_t dropped = retired_dropped_.load(std::memory_order_relaxed);
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    dropped += buffer->dropped;
  }
  return dropped;
}

// ---- Span ------------------------------------------------------------------

void Span::begin(const char* category, std::string_view name) {
  category_ = category;
  name_.assign(name);
  const TraceContext context = current_trace();
  if (context.valid()) {
    trace_hi_ = context.trace_hi;
    trace_lo_ = context.trace_lo;
    parent_span_ = context.parent_span;
    span_id_ = make_span_id();
    // Nested spans parent to this one for the span's lifetime.
    TraceContext nested = context;
    nested.parent_span = span_id_;
    set_current_trace(nested);
  }
  start_us_ = Tracer::instance().now_us();
  active_ = true;
}

void Span::end() {
  Tracer& tracer = Tracer::instance();
  const std::int64_t duration = tracer.now_us() - start_us_;
  if (span_id_ != 0) {
    // Restore the ambient parent (trace id is unchanged by spans).
    TraceContext context = current_trace();
    context.parent_span = parent_span_;
    set_current_trace(context);
  }
  TraceEvent event;
  event.kind = EventKind::kComplete;
  event.category = category_;
  event.name = std::move(name_);
  event.start_us = start_us_;
  event.duration_us = duration;
  event.args = std::move(args_);
  event.trace_hi = trace_hi_;
  event.trace_lo = trace_lo_;
  event.span_id = span_id_;
  event.parent_span = parent_span_;
  if (flight_recording_enabled()) {
    event.tid = current_thread_id();
    FlightRecorder::instance().record(event);
  }
  if (tracing_enabled()) tracer.record(std::move(event));
  active_ = false;
}

void Span::arg(std::string_view key, std::string_view value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  append_json_member(args_, key, value);
}

void Span::arg(std::string_view key, double value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  append_json_member(args_, key, value);
}

void Span::arg(std::string_view key, bool value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  append_json_member(args_, key, value);
}

void Span::arg_int(std::string_view key, std::int64_t value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  append_json_member(args_, key, value);
}

}  // namespace fsyn::obs
