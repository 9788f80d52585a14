#include "report/json_export.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace fsyn::report {

void emit_grid(std::ostream& os, const Grid<int>& grid) {
  os << '[';
  for (int y = 0; y < grid.height(); ++y) {
    if (y > 0) os << ',';
    os << '[';
    for (int x = 0; x < grid.width(); ++x) {
      if (x > 0) os << ',';
      os << grid.at(x, y);
    }
    os << ']';
  }
  os << ']';
}

std::string to_json(const synth::MappingProblem& problem,
                    const synth::SynthesisResult& result) {
  require(problem.chip().width() == result.chip_width &&
              problem.chip().height() == result.chip_height,
          "problem and result disagree on chip dimensions");
  std::ostringstream os;
  os << "{\n";
  os << "  \"assay\": " << json_quote(problem.graph().name()) << ",\n";
  os << "  \"chip\": {\"width\": " << result.chip_width << ", \"height\": "
     << result.chip_height << "},\n";

  os << "  \"ports\": [";
  bool first = true;
  for (const auto& port : problem.chip().ports()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": " << json_quote(port.name) << ", \"x\": " << port.cell.x
       << ", \"y\": " << port.cell.y << ", \"input\": " << (port.is_input ? "true" : "false")
       << '}';
  }
  os << "],\n";

  os << "  \"devices\": [\n";
  for (int i = 0; i < problem.task_count(); ++i) {
    const auto& task = problem.task(i);
    const auto& device = result.placement[static_cast<std::size_t>(i)];
    os << "    {\"op\": " << json_quote(task.name) << ", \"kind\": \""
       << (task.is_mix ? "mix" : "detect") << "\", \"x\": " << device.origin.x
       << ", \"y\": " << device.origin.y << ", \"width\": " << device.type.width
       << ", \"height\": " << device.type.height << ", \"storage_from\": "
       << task.storage_from << ", \"start\": " << task.start << ", \"release\": "
       << task.release << '}' << (i + 1 < problem.task_count() ? "," : "") << '\n';
  }
  os << "  ],\n";

  os << "  \"paths\": [\n";
  for (std::size_t p = 0; p < result.routing.paths.size(); ++p) {
    const auto& path = result.routing.paths[p];
    os << "    {\"label\": " << json_quote(path.label) << ", \"kind\": \""
       << route::to_string(path.kind) << "\", \"time\": " << path.time << ", \"cells\": [";
    for (std::size_t c = 0; c < path.cells.size(); ++c) {
      if (c > 0) os << ',';
      os << '[' << path.cells[c].x << ',' << path.cells[c].y << ']';
    }
    os << "]}" << (p + 1 < result.routing.paths.size() ? "," : "") << '\n';
  }
  os << "  ],\n";

  os << "  \"actuations_setting1\": ";
  emit_grid(os, result.ledger_setting1.total());
  os << ",\n  \"actuations_setting2\": ";
  emit_grid(os, result.ledger_setting2.total());
  os << ",\n";

  os << "  \"metrics\": {\"vs1_max\": " << result.vs1_max << ", \"vs1_pump\": "
     << result.vs1_pump << ", \"vs2_max\": " << result.vs2_max << ", \"vs2_pump\": "
     << result.vs2_pump << ", \"valve_count\": " << result.valve_count
     << ", \"runtime_seconds\": " << result.runtime_seconds << "}\n";
  os << "}\n";
  return os.str();
}

void write_json(const std::string& path, const synth::MappingProblem& problem,
                const synth::SynthesisResult& result) {
  std::ofstream file(path);
  check_input(file.good(), "cannot open '" + path + "' for writing");
  file << to_json(problem, result);
  check_input(file.good(), "failed while writing '" + path + "'");
}

}  // namespace fsyn::report
