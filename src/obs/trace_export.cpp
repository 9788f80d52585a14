#include "obs/trace_export.hpp"

#include <fstream>
#include <ostream>

#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace fsyn::obs {

namespace {

void write_event_prefix(std::string& out, const char* ph, const TraceEvent& event) {
  out += "{\"ph\":\"";
  out += ph;
  out += "\",";
  append_json_member(out, "name", event.name);
  out += ',';
  append_json_member(out, "cat", std::string_view(event.category));
  out += ',';
  append_json_member(out, "ts", event.start_us);
  out += ",\"pid\":1,";
  append_json_member(out, "tid", static_cast<std::int64_t>(event.tid));
}

/// The event's args plus its trace-context members, or empty.
std::string event_args(const TraceEvent& event) {
  std::string args = event.args;
  if ((event.trace_hi | event.trace_lo) != 0) {
    TraceContext context;
    context.trace_hi = event.trace_hi;
    context.trace_lo = event.trace_lo;
    if (!args.empty()) args += ',';
    append_json_member(args, "trace_id", context.trace_id_hex());
    if (event.span_id != 0) {
      args += ',';
      append_json_member(args, "span_id", static_cast<std::int64_t>(event.span_id));
    }
    if (event.parent_span != 0) {
      args += ',';
      append_json_member(args, "parent_span", static_cast<std::int64_t>(event.parent_span));
    }
  }
  return args;
}

}  // namespace

void write_chrome_trace_events(std::ostream& os, const std::vector<TraceEvent>& events,
                               const std::vector<std::pair<int, std::string>>& thread_names) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::string line;
  auto emit = [&] {
    os << (first ? "\n " : ",\n ") << line;
    first = false;
    line.clear();
  };

  for (const auto& [tid, name] : thread_names) {
    line += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,";
    append_json_member(line, "tid", static_cast<std::int64_t>(tid));
    line += ",\"args\":{";
    append_json_member(line, "name", name);
    line += "}}";
    emit();
  }

  for (const TraceEvent& event : events) {
    const std::string args = event_args(event);
    switch (event.kind) {
      case EventKind::kComplete:
        write_event_prefix(line, "X", event);
        line += ',';
        append_json_member(line, "dur", event.duration_us);
        if (!args.empty()) {
          line += ",\"args\":{";
          line += args;
          line += '}';
        }
        line += '}';
        break;
      case EventKind::kCounter:
        write_event_prefix(line, "C", event);
        line += ",\"args\":{";
        append_json_member(line, "value", event.value);
        line += "}}";
        break;
      case EventKind::kInstant:
        write_event_prefix(line, "i", event);
        line += ",\"s\":\"t\"";
        if (!args.empty()) {
          line += ",\"args\":{";
          line += args;
          line += '}';
        }
        line += '}';
        break;
    }
    emit();
  }
  os << "\n]}\n";
}

void write_chrome_trace(std::ostream& os) {
  Tracer& tracer = Tracer::instance();
  // Names first: drain() retires the buffers of exited threads (race arms,
  // joined pool workers), which would take their names with them.
  const auto names = tracer.thread_names();
  const std::vector<TraceEvent> events = tracer.drain();
  if (const std::uint64_t dropped = tracer.dropped_events()) {
    log_warn("trace export: ", dropped, " events were dropped (per-thread buffer cap)");
  }
  write_chrome_trace_events(os, events, names);
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  check_input(static_cast<bool>(out), "cannot write trace to " + path);
  write_chrome_trace(out);
  out.flush();
  require(static_cast<bool>(out), "I/O error while writing trace to " + path);
}

}  // namespace fsyn::obs
