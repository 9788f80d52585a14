// Low-overhead, thread-safe tracing: RAII spans, counter events and a
// global `Tracer` registry that any run can export as a Chrome trace-event
// / Perfetto JSON file (trace_export.hpp).
//
// Design goals, in order:
//
//  * Near-zero cost when disabled.  `tracing_enabled()` is one relaxed
//    atomic load; a `Span` constructed while tracing is off touches nothing
//    else — no clock read, no string copy, no allocation.
//  * No contention when enabled.  Every thread appends to its own buffer;
//    the per-buffer mutex is only ever contended by `drain()` (export
//    time), so the hot path is an uncontended lock around a vector
//    push_back.  Buffers are registered once per thread and kept alive by
//    shared_ptr, so threads may exit freely before the trace is written.
//  * Events carry wall-relative microsecond timestamps (`ts`/`dur` in the
//    trace-event format) against one process-wide steady-clock epoch, and
//    the dense per-thread id from util/logging.hpp, so trace tracks line
//    up with log-line prefixes.
//
// Typical use:
//
//   {
//     obs::Span span("synth", "route_all");
//     span.arg("paths", 12);
//     ...work...
//   }                       // destructor records a ph:"X" complete event
//
//   obs::Tracer::instance().counter("ilp", "milp bound t0", 42.0);
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace fsyn::obs {

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
extern std::atomic<bool> g_flight_enabled;
}  // namespace detail

/// One relaxed load; the only cost tracing adds to an instrumented hot
/// path while disabled.
inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Whether the always-on flight recorder (flight_recorder.hpp) is active;
/// same one-relaxed-load discipline.  Spans record into the recorder's
/// bounded per-thread rings whenever it is on, independent of the tracer.
inline bool flight_recording_enabled() {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}

enum class EventKind : std::uint8_t {
  kComplete,  ///< ph:"X" — a span with start + duration
  kCounter,   ///< ph:"C" — one sample of a named counter track
  kInstant    ///< ph:"i" — a point-in-time marker
};

struct TraceEvent {
  EventKind kind = EventKind::kComplete;
  const char* category = "";  ///< must point at static storage ("synth", "ilp", ...)
  std::string name;
  std::int64_t start_us = 0;     ///< microseconds since the tracer epoch
  std::int64_t duration_us = 0;  ///< complete events only
  int tid = 0;                   ///< filled in by the tracer at record time
  double value = 0.0;            ///< counter events only
  std::string args;              ///< preformatted JSON members (`"k":v,...`) or empty
  // Request trace context (trace_context.hpp); zero when the event was
  // recorded outside any TraceContextScope.  Exported as args so the
  // viewer can filter one request's spans across threads.
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;      ///< this span's id (complete events only)
  std::uint64_t parent_span = 0;  ///< enclosing span / upstream caller
};

// ---- JSON-fragment helpers (shared with the exporter and Span::arg) --------
// Strings are written by util/json.hpp's append_json_string.

/// Appends a JSON number; integral values print without an exponent.
void append_json_number(std::string& out, double value);
/// Append one `"key":value` member (no surrounding braces, no comma logic —
/// callers join with ',').
void append_json_member(std::string& out, std::string_view key, std::string_view value);
void append_json_member(std::string& out, std::string_view key, std::int64_t value);
void append_json_member(std::string& out, std::string_view key, double value);
void append_json_member(std::string& out, std::string_view key, bool value);

/// Process-wide trace registry.  All methods are thread-safe.
class Tracer {
 public:
  static Tracer& instance();

  void enable() { detail::g_tracing_enabled.store(true, std::memory_order_relaxed); }
  void disable() { detail::g_tracing_enabled.store(false, std::memory_order_relaxed); }
  bool enabled() const { return tracing_enabled(); }

  /// Microseconds since the tracer epoch (first `instance()` call).
  std::int64_t now_us() const;

  /// Appends `event` to the calling thread's buffer (tid is overwritten
  /// with the caller's id).  Call only while tracing is enabled — the
  /// inline wrappers below and `Span` already guard.
  void record(TraceEvent event);

  /// Records a ph:"X" complete event with explicit timing (used for spans
  /// whose start predates the current thread, e.g. queue-wait time).  The
  /// ambient trace context is stamped on, and the event also lands in the
  /// flight recorder when that is enabled — safe to call whenever either
  /// sink is on (`Span::active()` is the usual guard).
  void complete(const char* category, std::string name, std::int64_t start_us,
                std::int64_t duration_us, std::string args = {});

  /// Records one sample of the counter track `name`.
  void counter(const char* category, std::string name, double value);

  /// Records a point-in-time marker.
  void instant(const char* category, std::string name, std::string args = {});

  /// Names the calling thread's track in the exported trace.
  void set_thread_name(std::string name);

  /// Moves all buffered events out of every thread buffer, sorted by start
  /// time.  Buffers stay registered; tracing may continue afterwards.
  std::vector<TraceEvent> drain();

  /// (tid, name) for every thread that called `set_thread_name`.
  std::vector<std::pair<int, std::string>> thread_names() const;

  /// Events discarded because a thread buffer hit its cap.
  std::uint64_t dropped_events() const;

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<TraceEvent> events;
    int tid = 0;
    std::string thread_name;
    std::uint64_t dropped = 0;
  };

  Tracer();
  Buffer& local_buffer();

  /// Cap per thread so a runaway instrumented loop cannot exhaust memory;
  /// overflow increments `dropped` instead of growing further.
  static constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 22;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
  /// Drop counts of buffers pruned by `drain()` after their thread exited.
  std::atomic<std::uint64_t> retired_dropped_{0};
};

/// RAII span: records a complete event covering its lifetime — into the
/// tracer when tracing is on, into the flight recorder when that is on
/// (either, both, or neither).  Constructing one while both sinks are
/// disabled is a no-op (args included), so spans can be left in hot paths
/// unconditionally.  An active span adopts the thread's ambient trace
/// context (trace_context.hpp) and becomes the parent of spans nested
/// inside it.
class Span {
 public:
  Span(const char* category, std::string_view name) {
    if (tracing_enabled() || flight_recording_enabled()) begin(category, name);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  /// Ends the span now instead of at destruction (for phases that share a
  /// scope with later work).  Safe to call when inactive or twice.
  void finish() {
    if (active_) end();
    active_ = false;
  }

  // Key/value arguments shown in the trace viewer's detail pane.
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, const char* value) { arg(key, std::string_view(value)); }
  void arg(std::string_view key, double value);
  void arg(std::string_view key, bool value);
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>, int> = 0>
  void arg(std::string_view key, T value) {
    arg_int(key, static_cast<std::int64_t>(value));
  }

 private:
  void begin(const char* category, std::string_view name);
  void end();
  void arg_int(std::string_view key, std::int64_t value);

  bool active_ = false;
  const char* category_ = "";
  std::string name_;
  std::string args_;
  std::int64_t start_us_ = 0;
  // Trace context adopted at begin(): this span's id, its parent, and the
  // ambient parent to restore when the span ends.
  std::uint64_t trace_hi_ = 0;
  std::uint64_t trace_lo_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_ = 0;
};

}  // namespace fsyn::obs
