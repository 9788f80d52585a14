// Perf-trajectory regression gate: diffs two flowsynth-bench-v1 files
// (bench/bench_json.hpp envelope, schema in docs/benchmarking.md).
//
//   bench_compare BASELINE.json NEW.json [--wall-tol 0.15] [--iter-tol 0.05]
//                 [--no-wall] [--min-wall-ms 20]
//
// Exits nonzero when, for any instance present in the baseline:
//   - the instance is missing from the new file,
//   - the objective differs (correctness, not perf — any drift fails), or
//   - the status or the thread count differs (a different verdict, or a
//     run of a different configuration), or
//   - mttf_runs drifts beyond last-ulp libm variance (the Monte Carlo
//     estimate is deterministic in the seed), or
//   - wall_ms grew by more than --wall-tol (default +15%), or
//     lp_iterations or nodes grew by more than --iter-tol (default +5%), or
//   - p50_ms / p95_ms grew by more than --wall-tol, or req_per_sec shrank
//     by more than --wall-tol (server-bench rows).
//
// Wall-clock checks are skipped for instances faster than --min-wall-ms in
// the baseline (too noisy to gate) and entirely under --no-wall, which CI
// uses on shared runners where only the deterministic iteration counts are
// comparable across machines.  Under --no-wall the latency / throughput
// columns still have to be *present* in the new file when the baseline has
// them — the schema check survives even where the numbers are noise.
// Improvements are reported but never fail.
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

using fsyn::JsonValue;

namespace {

struct Options {
  std::string baseline_path;
  std::string new_path;
  double wall_tol = 0.15;
  double iter_tol = 0.05;
  bool check_wall = true;
  double min_wall_ms = 20.0;
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n";
  std::cerr << "usage: bench_compare BASELINE.json NEW.json [--wall-tol F]\n"
            << "                     [--iter-tol F] [--no-wall] [--min-wall-ms MS]\n";
  std::exit(2);
}

Options parse_cli(int argc, char** argv) {
  Options options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--wall-tol") {
      options.wall_tol = std::atof(next());
    } else if (arg == "--iter-tol") {
      options.iter_tol = std::atof(next());
    } else if (arg == "--no-wall") {
      options.check_wall = false;
    } else if (arg == "--min-wall-ms") {
      options.min_wall_ms = std::atof(next());
    } else if (!arg.empty() && arg[0] == '-') {
      usage("unknown flag " + arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) usage("expected exactly BASELINE and NEW paths");
  options.baseline_path = positional[0];
  options.new_path = positional[1];
  return options;
}

JsonValue load_bench(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) {
    std::cerr << "bench_compare: cannot open '" << path << "'\n";
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  JsonValue doc = JsonValue::parse(buffer.str());
  if (!doc.is_object() || !doc.has("format") ||
      doc.at("format").as_string() != "flowsynth-bench-v1" || !doc.has("instances")) {
    std::cerr << "bench_compare: '" << path << "' is not a flowsynth-bench-v1 file\n";
    std::exit(2);
  }
  return doc;
}

const JsonValue* find_instance(const JsonValue& doc, const std::string& name) {
  for (const JsonValue& row : doc.at("instances").items()) {
    if (row.has("instance") && row.at("instance").as_string() == name) return &row;
  }
  return nullptr;
}

/// One "grew by more than tol?" check; prints the ratio either way.
bool check_growth(const std::string& instance, const char* metric, double base, double fresh,
                  double tol) {
  if (base <= 0.0) return true;  // nothing measurable to gate on
  const double ratio = fresh / base;
  const bool ok = ratio <= 1.0 + tol;
  std::cout << (ok ? "  ok   " : "  FAIL ") << instance << " " << metric << ": " << base
            << " -> " << fresh << " (" << (ratio >= 1.0 ? "+" : "") << (ratio - 1.0) * 100.0
            << "%, tolerance +" << tol * 100.0 << "%)\n";
  return ok;
}

/// One "shrank by more than tol?" check (throughput metrics).
bool check_shrink(const std::string& instance, const char* metric, double base, double fresh,
                  double tol) {
  if (base <= 0.0) return true;
  const double ratio = fresh / base;
  const bool ok = ratio >= 1.0 - tol;
  std::cout << (ok ? "  ok   " : "  FAIL ") << instance << " " << metric << ": " << base
            << " -> " << fresh << " (" << (ratio >= 1.0 ? "+" : "") << (ratio - 1.0) * 100.0
            << "%, tolerance -" << tol * 100.0 << "%)\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_cli(argc, argv);
  int failures = 0;
  try {
    const JsonValue baseline = load_bench(options.baseline_path);
    const JsonValue fresh = load_bench(options.new_path);
    std::cout << "bench_compare: " << options.baseline_path << " vs " << options.new_path
              << (options.check_wall ? "" : " (wall-clock checks disabled)") << "\n";

    for (const JsonValue& base_row : baseline.at("instances").items()) {
      const std::string name = base_row.at("instance").as_string();
      const JsonValue* new_row = find_instance(fresh, name);
      if (new_row == nullptr) {
        std::cout << "  FAIL " << name << ": missing from " << options.new_path << "\n";
        ++failures;
        continue;
      }
      // Objectives are exact (the solver proves optimality); any difference
      // means the two runs solved different problems or one is wrong.
      if (base_row.has("objective") && new_row->has("objective")) {
        const double base_obj = base_row.at("objective").as_number();
        const double new_obj = new_row->at("objective").as_number();
        if (base_obj != new_obj) {
          std::cout << "  FAIL " << name << " objective: " << base_obj << " != " << new_obj
                    << "\n";
          ++failures;
        }
      }
      // The solver's verdict and the worker count the run reports are
      // exact too: either differing means the rows do not describe the
      // same solve.
      for (const char* field : {"status", "threads"}) {
        if (!base_row.has(field)) continue;
        const std::string base_value = base_row.at(field).dump();
        const std::string new_value =
            new_row->has(field) ? new_row->at(field).dump() : std::string("missing");
        if (base_value != new_value) {
          std::cout << "  FAIL " << name << " " << field << ": " << base_value
                    << " != " << new_value << "\n";
          ++failures;
        }
      }
      // The Monte-Carlo lifetime headline is deterministic in the seed;
      // anything beyond relative last-ulp variance (pow/log differ across
      // libm builds) means the estimator itself changed.
      if (base_row.has("mttf_runs")) {
        if (!new_row->has("mttf_runs")) {
          std::cout << "  FAIL " << name << " mttf_runs: missing from "
                    << options.new_path << "\n";
          ++failures;
        } else {
          const double base_mttf = base_row.at("mttf_runs").as_number();
          const double new_mttf = new_row->at("mttf_runs").as_number();
          if (std::abs(new_mttf - base_mttf) >
              1e-9 * std::max(1.0, std::abs(base_mttf))) {
            std::cout << "  FAIL " << name << " mttf_runs: " << base_mttf
                      << " != " << new_mttf << "\n";
            ++failures;
          }
        }
      }
      if (base_row.has("lp_iterations") && new_row->has("lp_iterations")) {
        if (!check_growth(name, "lp_iterations",
                          static_cast<double>(base_row.at("lp_iterations").as_int()),
                          static_cast<double>(new_row->at("lp_iterations").as_int()),
                          options.iter_tol)) {
          ++failures;
        }
      }
      // Branch-and-bound tree size is deterministic for a fixed config, so
      // node-count growth gates exactly like LP iteration growth.  Absent in
      // pre-cut baselines — the check is keyed on the baseline having it.
      if (base_row.has("nodes") && new_row->has("nodes")) {
        if (!check_growth(name, "bnb_nodes",
                          static_cast<double>(base_row.at("nodes").as_int()),
                          static_cast<double>(new_row->at("nodes").as_int()),
                          options.iter_tol)) {
          ++failures;
        }
      }
      if (options.check_wall && base_row.has("wall_ms") && new_row->has("wall_ms")) {
        const double base_wall = base_row.at("wall_ms").as_number();
        if (base_wall >= options.min_wall_ms) {
          if (!check_growth(name, "wall_ms", base_wall, new_row->at("wall_ms").as_number(),
                            options.wall_tol)) {
            ++failures;
          }
        }
      }
      // Server-bench latency / throughput rows.  Wall-clock-like, so gated
      // the same way; under --no-wall the columns only have to exist.
      for (const char* metric : {"p50_ms", "p95_ms"}) {
        if (!base_row.has(metric)) continue;
        if (!new_row->has(metric)) {
          std::cout << "  FAIL " << name << " " << metric << ": missing from "
                    << options.new_path << "\n";
          ++failures;
          continue;
        }
        if (options.check_wall &&
            !check_growth(name, metric, base_row.at(metric).as_number(),
                          new_row->at(metric).as_number(), options.wall_tol)) {
          ++failures;
        }
      }
      if (base_row.has("req_per_sec")) {
        if (!new_row->has("req_per_sec")) {
          std::cout << "  FAIL " << name << " req_per_sec: missing from "
                    << options.new_path << "\n";
          ++failures;
        } else if (options.check_wall &&
                   !check_shrink(name, "req_per_sec", base_row.at("req_per_sec").as_number(),
                                 new_row->at("req_per_sec").as_number(), options.wall_tol)) {
          ++failures;
        }
      }
    }
  } catch (const fsyn::Error& e) {
    std::cerr << "bench_compare: " << e.what() << "\n";
    return 2;
  }

  if (failures > 0) {
    std::cout << "bench_compare: " << failures << " regression(s)\n";
    return 1;
  }
  std::cout << "bench_compare: no regressions\n";
  return 0;
}
