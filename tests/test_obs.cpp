// Unit tests for the observability module: tracer/spans, trace-context
// propagation (W3C traceparent parse/format + ambient adoption), the
// always-on flight recorder, Chrome trace export (parsed back with a
// minimal JSON parser), Prometheus exposition/lint, latency histograms and
// multithreaded emission stresses (run under the TSan CI job too).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/trace_export.hpp"
#include "util/json.hpp"

namespace fsyn::obs {
namespace {

/// Leaves the tracer disabled and drained when a test finishes, whatever
/// assertions failed in between, so tests cannot leak state at each other.
struct TracerGuard {
  TracerGuard() {
    Tracer::instance().drain();
    Tracer::instance().enable();
  }
  ~TracerGuard() {
    Tracer::instance().set_thread_name("");  // empty names are not exported
    Tracer::instance().disable();
    Tracer::instance().drain();
  }
};

/// Same discipline for the flight recorder.
struct FlightGuard {
  FlightGuard() {
    FlightRecorder::instance().clear();
    FlightRecorder::instance().enable();
  }
  ~FlightGuard() {
    FlightRecorder::instance().disable();
    FlightRecorder::instance().clear();
  }
};

// ---- minimal JSON parser (validation + key counting) -----------------------

/// Recursive-descent validator for the exporter's output.  Tracks the
/// number of elements of the top-level "traceEvents" array so tests can
/// assert the export is both *well-formed* and *complete*.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool parse() {
    skip_ws();
    if (!value(0)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

  int trace_event_count() const { return trace_event_count_; }

 private:
  bool value(int depth) {
    if (depth > 64 || pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object(depth);
      case '[': return array(depth, false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object(int depth) {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      const std::size_t key_start = pos_;
      if (!string()) return false;
      const bool is_trace_events =
          text_.substr(key_start, pos_ - key_start) == "\"traceEvents\"";
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (is_trace_events && depth == 0) {
        if (peek() != '[' || !array(depth + 1, true)) return false;
      } else if (!value(depth + 1)) {
        return false;
      }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array(int depth, bool count_elements) {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value(depth + 1)) return false;
      if (count_elements) ++trace_event_count_;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int k = 1; k <= 4; ++k) {
            if (pos_ + static_cast<std::size_t>(k) >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + static_cast<std::size_t>(k)]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(esc) == std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int trace_event_count_ = 0;
};

// ---- tracer / spans --------------------------------------------------------

TEST(Tracer, DisabledSpanRecordsNothing) {
  Tracer::instance().disable();
  Tracer::instance().drain();
  {
    Span span("test", "noop");
    span.arg("key", 1);
    EXPECT_FALSE(span.active());
  }
  EXPECT_FALSE(tracing_enabled());
  EXPECT_TRUE(Tracer::instance().drain().empty());
}

TEST(Tracer, SpansBalanceAndNest) {
  TracerGuard guard;
  {
    Span outer("test", "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      Span inner("test", "inner");
      inner.arg("depth", 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 2u);
  // drain() sorts by start time: outer opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  const auto& outer = events[0];
  const auto& inner = events[1];
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_GE(outer.start_us + outer.duration_us, inner.start_us + inner.duration_us);
  EXPECT_EQ(outer.tid, inner.tid);
}

TEST(Tracer, FinishEndsSpanEarlyAndIsIdempotent) {
  TracerGuard guard;
  Span span("test", "phase");
  ASSERT_TRUE(span.active());
  span.finish();
  EXPECT_FALSE(span.active());
  span.finish();  // second call must be a no-op
  const auto events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "phase");
}

TEST(Tracer, CounterAndInstantEventsCarryKindAndValue) {
  TracerGuard guard;
  Tracer::instance().counter("ilp", "bound", 41.5);
  Tracer::instance().instant("test", "marker");
  const auto events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[0].value, 41.5);
  EXPECT_EQ(events[1].kind, EventKind::kInstant);
}

TEST(Tracer, ArgsSerializeAllTypes) {
  TracerGuard guard;
  {
    Span span("test", "typed");
    span.arg("str", std::string_view("v"));
    span.arg("cstr", "w");
    span.arg("int", 7);
    span.arg("u64", std::uint64_t{8});
    span.arg("dbl", 0.5);
    span.arg("flag", true);
  }
  const auto events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].args,
            "\"str\":\"v\",\"cstr\":\"w\",\"int\":7,\"u64\":8,\"dbl\":0.5,\"flag\":true");
}

TEST(Tracer, DrainSurvivesExitedThreads) {
  TracerGuard guard;
  std::thread worker([] {
    Tracer::instance().set_thread_name("short-lived");
    Span span("test", "threaded");
  });
  worker.join();
  const auto names = Tracer::instance().thread_names();
  EXPECT_TRUE(std::any_of(names.begin(), names.end(),
                          [](const auto& entry) { return entry.second == "short-lived"; }));
  const auto events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "threaded");
  // The thread's buffer is retired by the drain; nothing resurfaces later.
  EXPECT_TRUE(Tracer::instance().drain().empty());
}

// ---- JSON helpers & exporter -----------------------------------------------

TEST(TraceJson, StringEscaping) {
  std::string out;
  append_json_string(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

TEST(TraceJson, NumberFormatting) {
  std::string integral, fractional, huge, nan;
  append_json_number(integral, 42.0);
  append_json_number(fractional, 0.25);
  append_json_number(huge, 1e300);
  append_json_number(nan, std::nan(""));
  EXPECT_EQ(integral, "42");
  EXPECT_EQ(fractional, "0.25");
  EXPECT_EQ(huge.find("inf"), std::string::npos);
  EXPECT_EQ(nan, "0");  // non-finite must not leak into JSON
}

TEST(TraceExport, OutputParsesBackAsJson) {
  TracerGuard guard;
  Tracer::instance().set_thread_name("test \"main\"\n");
  {
    Span span("test", "outer \\ \"quoted\"\tname");
    span.arg("note", "line1\nline2");
    Span inner("test", "inner");
  }
  Tracer::instance().counter("test", "counter", 3.0);
  Tracer::instance().instant("test", "marker");

  std::ostringstream os;
  write_chrome_trace(os);
  const std::string text = os.str();

  JsonChecker checker(text);
  EXPECT_TRUE(checker.parse()) << text;
  // 1 metadata (thread name) + 2 spans + 1 counter + 1 instant.
  EXPECT_EQ(checker.trace_event_count(), 5);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
}

TEST(TraceExport, EmptyTraceIsValid) {
  Tracer::instance().disable();
  Tracer::instance().drain();
  std::ostringstream os;
  write_chrome_trace(os);
  const std::string text = os.str();
  JsonChecker checker(text);
  EXPECT_TRUE(checker.parse()) << text;
  EXPECT_EQ(checker.trace_event_count(), 0);
}

// ---- latency histogram -----------------------------------------------------

TEST(Histogram, BucketIndexIsMonotonicAndExactForSmallValues) {
  for (std::uint64_t ns = 0; ns < 2 * LatencyHistogram::kSubBuckets; ++ns) {
    EXPECT_EQ(LatencyHistogram::bucket_index(ns), static_cast<int>(ns));
  }
  int previous = -1;
  for (std::uint64_t ns = 1; ns < (std::uint64_t{1} << 40); ns = ns * 2 + 1) {
    const int index = LatencyHistogram::bucket_index(ns);
    EXPECT_GT(index, previous);
    EXPECT_LT(index, LatencyHistogram::kBucketCount);
    previous = index;
  }
}

TEST(Histogram, SingleValuePercentilesAreExact) {
  LatencyHistogram histogram;
  histogram.record(std::chrono::nanoseconds(1'234'567));
  const HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count, 1u);
  // min/max clamping makes a single observation exact at every percentile.
  EXPECT_DOUBLE_EQ(snapshot.percentile(50), 1'234'567e-9);
  EXPECT_DOUBLE_EQ(snapshot.percentile(99), 1'234'567e-9);
  EXPECT_DOUBLE_EQ(snapshot.min_seconds, 1'234'567e-9);
  EXPECT_DOUBLE_EQ(snapshot.max_seconds, 1'234'567e-9);
}

TEST(Histogram, PercentilesMatchReferenceWithinBucketError) {
  LatencyHistogram histogram;
  // 1..1000 microseconds, exactly once each: percentile p is p*10 us.
  for (int us = 1; us <= 1000; ++us) {
    histogram.record(std::chrono::microseconds(us));
  }
  const HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count, 1000u);
  EXPECT_NEAR(snapshot.sum_seconds, 1000.0 * 1001.0 / 2.0 * 1e-6, 1e-9);
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double reference = p * 10.0 * 1e-6;
    // The bucket midpoint is within 1/(2*kSubBuckets) ≈ 3.1% of any value
    // inside the bucket.
    EXPECT_NEAR(snapshot.percentile(p), reference, reference * 0.032) << "p" << p;
  }
  // The extreme percentiles stay within bucket error of the true extremes
  // (the clamp makes them exact only for single-bucket populations).
  EXPECT_NEAR(snapshot.percentile(0), snapshot.min_seconds, snapshot.min_seconds * 0.032);
  EXPECT_NEAR(snapshot.percentile(100), snapshot.max_seconds, snapshot.max_seconds * 0.032);
}

TEST(Histogram, JsonSnapshotParses) {
  LatencyHistogram histogram;
  histogram.record_seconds(0.5);
  histogram.record_seconds(1.5);
  const std::string json = histogram.snapshot().to_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.parse()) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  const HistogramSnapshot snapshot = LatencyHistogram{}.snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.min_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.max_seconds, 0.0);
}

// ---- concurrency -----------------------------------------------------------

TEST(TracerStress, ConcurrentSpansCountersAndDrains) {
  TracerGuard guard;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 2000;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> drained{0};
  // A concurrent drainer races the emitters the way a trace export racing
  // live workers would.
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      drained.fetch_add(Tracer::instance().drain().size(), std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Tracer::instance().set_thread_name("stress-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("stress", "work");
        span.arg("i", i);
        Tracer::instance().counter("stress", "progress", static_cast<double>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  drainer.join();

  drained.fetch_add(Tracer::instance().drain().size(), std::memory_order_relaxed);
  // Every event emitted is drained exactly once, whichever drain got it.
  EXPECT_EQ(drained.load(), static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
  EXPECT_EQ(Tracer::instance().dropped_events(), 0u);
}

// ---- trace context ---------------------------------------------------------

TEST(TraceContext, MintedContextsAreValidAndDistinct) {
  const TraceContext a = make_trace_context();
  const TraceContext b = make_trace_context();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.parent_span, 0u);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.trace_id_hex().size(), 32u);
  for (const char c : a.trace_id_hex()) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                !std::isupper(static_cast<unsigned char>(c)));
  }
}

TEST(TraceContext, TraceparentRoundTrips) {
  const TraceContext minted = make_trace_context();
  const std::string header = minted.traceparent();
  ASSERT_EQ(header.size(), 55u);
  EXPECT_EQ(header.substr(0, 3), "00-");
  TraceContext parsed;
  ASSERT_TRUE(parse_traceparent(header, &parsed));
  EXPECT_TRUE(minted == parsed);
}

TEST(TraceContext, ParseAcceptsCanonicalHeader) {
  TraceContext context;
  ASSERT_TRUE(parse_traceparent(
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", &context));
  EXPECT_EQ(context.trace_hi, 0x0af7651916cd43ddull);
  EXPECT_EQ(context.trace_lo, 0x8448eb211c80319cull);
  EXPECT_EQ(context.parent_span, 0xb7ad6b7169203331ull);
}

TEST(TraceContext, ParseRejectsMalformedHeaders) {
  const char* const bad[] = {
      "",
      "00",
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",        // no flags
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0",      // short flags
      "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",     // uppercase
      "00-00000000000000000000000000000000-b7ad6b7169203331-01",     // zero trace
      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",     // zero parent
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",     // version ff
      "00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",     // bad dash
      "00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01",       // short trace
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333g-01",     // non-hex
  };
  for (const char* header : bad) {
    TraceContext context;
    context.trace_hi = 0xdead;
    EXPECT_FALSE(parse_traceparent(header, &context)) << header;
    EXPECT_EQ(context.trace_hi, 0xdeadu) << "out modified for: " << header;
  }
}

TEST(TraceContextFuzz, MutatedHeadersNeverCrashAndFailClosed) {
  // Byte-level mutations of a valid header: every outcome must be either a
  // clean reject or a successful parse of a *still-canonical* header —
  // never a crash, never an out-param touched on failure.
  const std::string valid = make_trace_context().traceparent();
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<int> pos(0, static_cast<int>(valid.size()) - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int i = 0; i < 20000; ++i) {
    std::string mutated = valid;
    const int mutations = 1 + (i % 3);
    for (int m = 0; m < mutations; ++m) {
      mutated[static_cast<std::size_t>(pos(rng))] = static_cast<char>(byte(rng));
    }
    TraceContext context;
    if (parse_traceparent(mutated, &context)) {
      EXPECT_TRUE(context.valid());
      // Re-serialization is canonical: same ids, version 00, sampled.
      TraceContext again;
      ASSERT_TRUE(parse_traceparent(context.traceparent(), &again));
      EXPECT_TRUE(context == again);
    } else {
      EXPECT_FALSE(context.valid());  // untouched default
    }
    // Truncations and extensions fail closed too.
    TraceContext ignored;
    EXPECT_FALSE(parse_traceparent(mutated.substr(0, mutated.size() / 2), &ignored));
    EXPECT_FALSE(parse_traceparent(mutated + "x", &ignored));
  }
}

TEST(TraceContext, ScopeInstallsAndRestores) {
  EXPECT_FALSE(current_trace().valid());
  const TraceContext outer = make_trace_context();
  {
    TraceContextScope scope(outer);
    EXPECT_TRUE(current_trace() == outer);
    const TraceContext inner = make_trace_context();
    {
      TraceContextScope nested(inner);
      EXPECT_TRUE(current_trace() == inner);
    }
    EXPECT_TRUE(current_trace() == outer);
  }
  EXPECT_FALSE(current_trace().valid());
}

TEST(TraceContext, SpansAdoptAmbientContextAndNest) {
  TracerGuard guard;
  const TraceContext context = make_trace_context();
  {
    TraceContextScope scope(context);
    Span outer("test", "outer");
    { Span inner("test", "inner"); }
  }
  { Span bare("test", "bare"); }  // outside any scope: no trace ids

  const auto events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 3u);
  const auto find = [&](std::string_view name) -> const TraceEvent& {
    for (const TraceEvent& event : events) {
      if (event.name == name) return event;
    }
    static TraceEvent none;
    ADD_FAILURE() << "missing event " << name;
    return none;
  };
  const TraceEvent& outer = find("outer");
  const TraceEvent& inner = find("inner");
  const TraceEvent& bare = find("bare");
  EXPECT_EQ(outer.trace_hi, context.trace_hi);
  EXPECT_EQ(outer.trace_lo, context.trace_lo);
  EXPECT_EQ(outer.parent_span, context.parent_span);
  ASSERT_NE(outer.span_id, 0u);
  // The inner span parents to the outer span, same trace.
  EXPECT_EQ(inner.trace_lo, context.trace_lo);
  EXPECT_EQ(inner.parent_span, outer.span_id);
  EXPECT_NE(inner.span_id, outer.span_id);
  EXPECT_EQ(bare.trace_hi | bare.trace_lo, 0u);
  EXPECT_EQ(bare.parent_span, 0u);
}

// ---- flight recorder -------------------------------------------------------

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder::instance().disable();
  FlightRecorder::instance().clear();
  Tracer::instance().disable();
  {
    Span span("test", "invisible");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(FlightRecorder::instance().snapshot().empty());
}

TEST(FlightRecorder, RecordsSpansIndependentlyOfTracer) {
  FlightGuard guard;
  Tracer::instance().disable();
  Tracer::instance().drain();
  {
    Span span("test", "flight-only");
    EXPECT_TRUE(span.active());
  }
  // Flight recorder got the span; the (disabled) tracer did not.
  const auto events = FlightRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "flight-only");
  EXPECT_TRUE(Tracer::instance().drain().empty());
}

TEST(FlightRecorder, RingWrapsKeepingNewestEvents) {
  FlightGuard guard;
  Tracer::instance().disable();
  const std::size_t total = FlightRecorder::kRingCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    Span span("test", std::to_string(i));
  }
  const auto events = FlightRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kRingCapacity);
  EXPECT_GE(FlightRecorder::instance().total_recorded(), total);
  // Exactly the newest kRingCapacity survive; the first 100 are gone.
  unsigned long long min_index = total;
  for (const TraceEvent& event : events) {
    min_index = std::min(min_index, std::stoull(event.name));
  }
  EXPECT_EQ(min_index, 100u);
}

TEST(FlightRecorder, SnapshotDoesNotDrain) {
  FlightGuard guard;
  Tracer::instance().disable();
  { Span span("test", "sticky"); }
  EXPECT_EQ(FlightRecorder::instance().snapshot().size(), 1u);
  EXPECT_EQ(FlightRecorder::instance().snapshot().size(), 1u);  // still there
}

TEST(FlightRecorder, DumpJsonParsesAndCarriesTraceIds) {
  FlightGuard guard;
  Tracer::instance().disable();
  const TraceContext context = make_trace_context();
  {
    TraceContextScope scope(context);
    Span span("test", "dumped");
  }
  const std::string json = FlightRecorder::instance().dump_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.parse()) << json;
  EXPECT_GE(checker.trace_event_count(), 1);
  EXPECT_NE(json.find(context.trace_id_hex()), std::string::npos);
}

TEST(FlightRecorderStress, ConcurrentWritersAndSnapshots) {
  FlightGuard guard;
  Tracer::instance().disable();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 4000;

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto events = FlightRecorder::instance().snapshot();
      // Bounded by construction, whatever the writers are doing.
      EXPECT_LE(events.size(), static_cast<std::size_t>(kThreads + 2) *
                                   FlightRecorder::kRingCapacity);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const TraceContext context = make_trace_context();
      TraceContextScope scope(context);
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("stress", "flight");
        span.arg("t", t);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  EXPECT_GE(FlightRecorder::instance().total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
}

// ---- Prometheus exposition -------------------------------------------------

TEST(Prometheus, WriterEmitsWellFormedFamilies) {
  PrometheusWriter writer;
  writer.family("demo_jobs_total", "Jobs by state.", "counter");
  writer.sample("demo_jobs_total", "state=\"done\"", 3);
  writer.sample("demo_jobs_total", "state=\"failed\"", 0);
  writer.family("demo_depth", "Queue depth.", "gauge");
  writer.sample("demo_depth", "", 7.5);
  const std::string text = writer.str();
  std::string error;
  EXPECT_TRUE(lint_prometheus(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("# TYPE demo_jobs_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_jobs_total{state=\"done\"} 3\n"), std::string::npos);
}

TEST(Prometheus, WriterEmitsCumulativeHistogram) {
  LatencyHistogram histogram;
  histogram.record_seconds(0.0004);
  histogram.record_seconds(0.3);
  histogram.record_seconds(45.0);
  PrometheusWriter writer;
  writer.family("demo_latency_seconds", "Latency.", "histogram");
  writer.histogram("demo_latency_seconds", "stage=\"total\"", histogram.snapshot());
  const std::string text = writer.str();
  std::string error;
  EXPECT_TRUE(lint_prometheus(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("demo_latency_seconds_count{stage=\"total\"} 3\n"),
            std::string::npos);
}

TEST(Prometheus, LintCatchesFormatErrors) {
  std::string error;
  // Counter not ending in _total.
  EXPECT_FALSE(lint_prometheus("# TYPE bad counter\nbad 1\n", &error));
  // Missing trailing newline.
  EXPECT_FALSE(lint_prometheus("# TYPE x_total counter\nx_total 1", &error));
  // Non-monotonic histogram buckets.
  EXPECT_FALSE(lint_prometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n"
      "h_sum 1\nh_count 5\n",
      &error));
  // _count disagreeing with the +Inf bucket.
  EXPECT_FALSE(lint_prometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
      &error));
  // Negative counter value.
  EXPECT_FALSE(lint_prometheus("# TYPE x_total counter\nx_total -1\n", &error));
  // Well-formed control.
  EXPECT_TRUE(lint_prometheus("# TYPE x_total counter\nx_total 1\n", &error)) << error;
}

TEST(HistogramStress, ConcurrentRecordsKeepTotals) {
  LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.record(std::chrono::nanoseconds(1000 + 13 * ((t + i) % 100)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t bucket : snapshot.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, snapshot.count);
  EXPECT_DOUBLE_EQ(snapshot.min_seconds, 1000e-9);
  EXPECT_DOUBLE_EQ(snapshot.max_seconds, (1000 + 13 * 99) * 1e-9);
}

}  // namespace
}  // namespace fsyn::obs
