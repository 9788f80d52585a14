// bench_e2e: the end-to-end benchmark of flowsynth (see README.md).
//
//   bench_e2e --workload table1|scale|ilp_exact|served --seed N --seconds S
//             --trace 0|1 [--out BENCH.json] [--trace-out TRACE.json] [--smoke]
//
// One workload per process.  Prints a breakdown, every metric by name and
// unit, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// layer-by-layer replay (--trace 1).  Exits 1 when any correctness check
// failed, 2 on bad usage.
#include <cmath>
#include <fstream>
#include <iostream>

#include "e2e.hpp"
#include "obs/trace_export.hpp"
#include "util/json.hpp"

using namespace fsyn;
using namespace fsyn::e2e;

namespace {

int usage(const std::string& problem) {
  std::cerr << "bench_e2e: " << problem << "\n"
            << "usage: bench_e2e --workload table1|scale|ilp_exact|served --seed N "
               "--seconds S --trace 0|1 [--out FILE] [--trace-out FILE] [--smoke]\n";
  return 2;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e2e) {
  const auto mean_of = [&](int Design::*field) {
    if (e2e.designs.empty()) return 0.0;
    double sum = 0.0;
    for (const Design& d : e2e.designs) sum += d.*field;
    return sum / static_cast<double>(e2e.designs.size());
  };
  const std::map<std::string, double> values = {
      {"wall_s", median(e2e.pass_s)},
      {"setup_s", median(e2e.setup_s)},
      {"peak_rss_mb", peak_rss_mb()},
      {"p50_ms", quantile(e2e.op_ms, 0.50)},
      {"p95_ms", quantile(e2e.op_ms, 0.95)},
      {"vs1_mean", mean_of(&Design::vs1)},
      {"vs2_mean", mean_of(&Design::vs2)},
      {"valves_mean", mean_of(&Design::valves)},
  };
  std::vector<Metric> out;
  for (const MetricDef& def : kEndToEnd) out.push_back({def.name, def.unit, values.at(def.name)});
  return out;
}

std::vector<Metric> per_layer_metrics(const std::map<std::string, double>& layers) {
  std::vector<Metric> out;
  for (const MetricDef& def : kPerLayer) {
    const auto it = layers.find(def.name);
    out.push_back({def.name, def.unit, it == layers.end() ? 0.0 : it->second});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string out_path;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    try {
      if (arg == "--workload") {
        config.workload = next();
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string value = next();
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (arg == "--out") {
        out_path = next();
      } else if (arg == "--trace-out") {
        trace_out = next();
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else {
        return usage("unknown argument '" + arg + "'");
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }
  const std::map<std::string, void (*)(const RunConfig&, Report&)> workloads = {
      {"table1", run_table1},
      {"scale", run_scale},
      {"ilp_exact", run_ilp_exact},
      {"served", run_served},
  };
  if (!have_workload || workloads.count(config.workload) == 0) {
    return usage("unknown workload '" + config.workload + "'");
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  Report report;
  std::vector<obs::TraceEvent> events;
  if (!trace_out.empty()) report.kept_events = &events;
  const Clock::time_point start = Clock::now();
  try {
    workloads.at(config.workload)(config, report);
  } catch (const std::exception& e) {
    report.expect(false, std::string("workload aborted: ") + e.what());
    report.op(false);
  }
  const double elapsed = seconds_since(start);

  const std::vector<Metric> metrics =
      config.trace ? per_layer_metrics(report.layers) : end_to_end_metrics(report.e2e);
  bool correct = report.attempted() > 0 && report.failed() == 0;
  for (const Metric& m : metrics) {
    correct = report.expect(std::isfinite(m.value), std::string(m.name) + " is not finite") &&
              correct;
  }

  for (const std::string& line : report.lines) std::cout << line << "\n";
  std::cout << "workload " << config.workload << " seed " << config.seed
            << (config.trace ? " (traced replay)" : "") << ": " << report.attempted()
            << " operations, " << report.failed() << " failed, ";
  if (!config.trace) {
    std::cout << report.e2e.pass_s.size() << " pass(es), " << report.e2e.op_ms.size()
              << " latency samples, " << report.e2e.setup_s.size() << " set-ups, ";
  }
  std::cout << elapsed << " s\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }

  if (!out_path.empty()) {
    benchio::BenchWriter writer(config.trace ? "e2e_layers" : "e2e");
    writer.config()
        .add("workload", config.workload)
        .add("seed", static_cast<long long>(config.seed))
        .add("seconds", config.seconds)
        .add("smoke", config.smoke);
    describe_host(writer.config());
    for (const benchio::JsonObject& row : report.rows) writer.add_instance(row);
    benchio::JsonObject summary;
    summary.add("workload", config.workload)
        .add("instance", config.workload)
        .add("correct", correct)
        .add("attempted", report.attempted())
        .add("failed", report.failed());
    for (const Metric& m : metrics) summary.add(m.name, m.value);
    writer.add_instance(summary);
    if (!writer.write(out_path)) {
      std::cerr << "bench_e2e: cannot write " << out_path << "\n";
      correct = false;
    }
  }
  if (!trace_out.empty()) {
    std::ofstream file(trace_out);
    obs::write_chrome_trace_events(file, events, obs::Tracer::instance().thread_names());
    if (!file.good()) {
      std::cerr << "bench_e2e: cannot write " << trace_out << "\n";
      correct = false;
    }
  }

  JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(report.attempted());
  w.key("failed").value(report.failed());
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(std::isfinite(m.value) ? m.value : 0.0);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << w.str() << std::endl;
  return correct ? 0 : 1;
}
