#include "report/result_io.hpp"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "report/json_export.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace fsyn::report {

namespace {

constexpr const char* kFormat = "flowsynth-mapping-v1";

Grid<int> read_grid(const JsonValue& rows, int width, int height) {
  check_input(static_cast<int>(rows.size()) == height, "grid row count mismatch");
  Grid<int> grid(width, height, 0);
  for (int y = 0; y < height; ++y) {
    const JsonValue& row = rows.at(static_cast<std::size_t>(y));
    check_input(static_cast<int>(row.size()) == width, "grid column count mismatch");
    for (int x = 0; x < width; ++x) {
      grid.at(x, y) = static_cast<int>(row.at(static_cast<std::size_t>(x)).as_int());
    }
  }
  return grid;
}

/// Hands `visit(key, field)` every MILP counter the document stores, in
/// document order; the writer and the reader both walk this one list.  The
/// per-run worker telemetry (`threads`, `steals`, `idle_seconds`) and the
/// LP's `rows_appended` / the cut loop's `aged_out` are not stored.
template <typename Counters, typename Visit>
void for_each_stored_counter(Counters& c, Visit&& visit) {
  visit("nodes", c.nodes);
  visit("lp_iterations", c.lp_iterations);
  visit("iterations", c.lp.iterations);
  visit("primal_pivots", c.lp.primal_pivots);
  visit("dual_pivots", c.lp.dual_pivots);
  visit("bound_flips", c.lp.bound_flips);
  visit("refactorizations", c.lp.refactorizations);
  visit("warm_solves", c.lp.warm_solves);
  visit("cold_solves", c.lp.cold_solves);
  visit("lu_refactorizations", c.lp.lu_refactorizations);
  visit("eta_pivots", c.lp.eta_pivots);
  visit("eta_nnz", c.lp.eta_nnz);
  visit("lu_fill_nnz", c.lp.lu_fill_nnz);
  visit("lu_basis_nnz", c.lp.lu_basis_nnz);
  visit("devex_resets", c.lp.devex_resets);
  visit("gomory_cuts", c.cuts.gomory_generated);
  visit("cover_cuts", c.cuts.cover_generated);
  visit("cuts_applied", c.cuts.applied);
  visit("cuts_retained", c.cuts.retained);
  visit("cut_rounds", c.cuts.rounds);
  visit("impact_branch_decisions", c.impact_branch_decisions);
  visit("pseudocost_branch_decisions", c.pseudocost_branch_decisions);
  visit("arena_bytes", c.arena_bytes);
}

/// The leading keys of for_each_stored_counter every document carries.  The
/// sparse-LU, cut, branching and arena keys postdate the format; older
/// documents lack them, so they are read leniently.
constexpr int kRequiredSolverKeys = 9;

route::TransportKind kind_from_string(const std::string& name) {
  if (name == "fill") return route::TransportKind::kFill;
  if (name == "transfer") return route::TransportKind::kTransfer;
  if (name == "drain") return route::TransportKind::kDrain;
  throw Error("unknown transport kind '" + name + "'");
}

}  // namespace

std::string stored_result_to_json(const StoredResult& stored) {
  const synth::SynthesisResult& r = stored.result;
  std::ostringstream os;
  // Doubles round-trip exactly at max_digits10; everything else is integral.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\n";
  os << "  \"format\": \"" << kFormat << "\",\n";
  os << "  \"assay\": " << json_quote(stored.assay) << ",\n";
  os << "  \"policy_increments\": " << stored.policy_increments << ",\n";
  os << "  \"asap\": " << (stored.asap ? "true" : "false") << ",\n";
  os << "  \"seed\": " << stored.seed << ",\n";
  os << "  \"chip\": {\"width\": " << r.chip_width << ", \"height\": " << r.chip_height
     << "},\n";

  os << "  \"placement\": [";
  for (std::size_t i = 0; i < r.placement.size(); ++i) {
    const arch::DeviceInstance& device = r.placement[i];
    if (i > 0) os << ", ";
    os << "{\"x\": " << device.origin.x << ", \"y\": " << device.origin.y
       << ", \"w\": " << device.type.width << ", \"h\": " << device.type.height << '}';
  }
  os << "],\n";

  os << "  \"routing\": {\"success\": " << (r.routing.success ? "true" : "false")
     << ", \"total_cells\": " << r.routing.total_cells << ", \"rip_ups\": "
     << r.routing.rip_ups << ", \"failure\": " << json_quote(r.routing.failure)
     << ", \"paths\": [\n";
  for (std::size_t p = 0; p < r.routing.paths.size(); ++p) {
    const route::RoutedPath& path = r.routing.paths[p];
    os << "    {\"kind\": \"" << route::to_string(path.kind) << "\", \"task\": " << path.task
       << ", \"source_task\": " << path.source_task << ", \"source_input\": "
       << path.source_input.index << ", \"label\": " << json_quote(path.label)
       << ", \"time\": " << path.time << ", \"cells\": [";
    for (std::size_t c = 0; c < path.cells.size(); ++c) {
      if (c > 0) os << ',';
      os << '[' << path.cells[c].x << ',' << path.cells[c].y << ']';
    }
    os << "]}" << (p + 1 < r.routing.paths.size() ? "," : "") << '\n';
  }
  os << "  ]},\n";

  os << "  \"ledger_setting1\": {\"pump\": ";
  emit_grid(os, r.ledger_setting1.pump);
  os << ", \"control\": ";
  emit_grid(os, r.ledger_setting1.control);
  os << "},\n  \"ledger_setting2\": {\"pump\": ";
  emit_grid(os, r.ledger_setting2.pump);
  os << ", \"control\": ";
  emit_grid(os, r.ledger_setting2.control);
  os << "},\n";

  os << "  \"metrics\": {\"vs1_max\": " << r.vs1_max << ", \"vs1_pump\": " << r.vs1_pump
     << ", \"vs2_max\": " << r.vs2_max << ", \"vs2_pump\": " << r.vs2_pump
     << ", \"valve_count\": " << r.valve_count << ", \"mapper_effort\": " << r.mapper_effort
     << ", \"refinement_iterations\": " << r.refinement_iterations << ", \"chip_growths\": "
     << r.chip_growths << ", \"runtime_seconds\": " << r.runtime_seconds << "},\n";

  os << "  \"solver\": {";
  const char* separator = "";
  for_each_stored_counter(r.milp, [&](const char* key, std::int64_t value) {
    os << separator << '"' << key << "\": " << value;
    separator = ", ";
  });
  os << "}\n";
  os << "}\n";
  return os.str();
}

StoredResult stored_result_from_json(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  check_input(doc.is_object() && doc.has("format") && doc.at("format").as_string() == kFormat,
              std::string("not a ") + kFormat + " document");

  StoredResult stored;
  stored.assay = doc.at("assay").as_string();
  stored.policy_increments = static_cast<int>(doc.at("policy_increments").as_int());
  stored.asap = doc.at("asap").as_bool();
  stored.seed = static_cast<std::uint64_t>(doc.at("seed").as_int());

  synth::SynthesisResult& r = stored.result;
  r.chip_width = static_cast<int>(doc.at("chip").at("width").as_int());
  r.chip_height = static_cast<int>(doc.at("chip").at("height").as_int());
  check_input(r.chip_width > 0 && r.chip_height > 0, "stored chip dimensions must be positive");

  for (const JsonValue& device : doc.at("placement").items()) {
    arch::DeviceInstance instance;
    instance.origin = Point{static_cast<int>(device.at("x").as_int()),
                            static_cast<int>(device.at("y").as_int())};
    instance.type.width = static_cast<int>(device.at("w").as_int());
    instance.type.height = static_cast<int>(device.at("h").as_int());
    r.placement.push_back(instance);
  }

  const JsonValue& routing = doc.at("routing");
  r.routing.success = routing.at("success").as_bool();
  r.routing.total_cells = static_cast<int>(routing.at("total_cells").as_int());
  r.routing.rip_ups = static_cast<int>(routing.at("rip_ups").as_int());
  r.routing.failure = routing.at("failure").as_string();
  for (const JsonValue& path : routing.at("paths").items()) {
    route::RoutedPath routed;
    routed.kind = kind_from_string(path.at("kind").as_string());
    routed.task = static_cast<int>(path.at("task").as_int());
    routed.source_task = static_cast<int>(path.at("source_task").as_int());
    routed.source_input.index = static_cast<int>(path.at("source_input").as_int());
    routed.label = path.at("label").as_string();
    routed.time = static_cast<int>(path.at("time").as_int());
    for (const JsonValue& cell : path.at("cells").items()) {
      check_input(cell.size() == 2, "path cell must be [x, y]");
      routed.cells.push_back(Point{static_cast<int>(cell.at(std::size_t{0}).as_int()),
                                   static_cast<int>(cell.at(std::size_t{1}).as_int())});
    }
    r.routing.paths.push_back(std::move(routed));
  }

  const auto read_ledger = [&](const JsonValue& ledger) {
    sim::ActuationLedger out;
    out.pump = read_grid(ledger.at("pump"), r.chip_width, r.chip_height);
    out.control = read_grid(ledger.at("control"), r.chip_width, r.chip_height);
    return out;
  };
  r.ledger_setting1 = read_ledger(doc.at("ledger_setting1"));
  r.ledger_setting2 = read_ledger(doc.at("ledger_setting2"));

  const JsonValue& metrics = doc.at("metrics");
  r.vs1_max = static_cast<int>(metrics.at("vs1_max").as_int());
  r.vs1_pump = static_cast<int>(metrics.at("vs1_pump").as_int());
  r.vs2_max = static_cast<int>(metrics.at("vs2_max").as_int());
  r.vs2_pump = static_cast<int>(metrics.at("vs2_pump").as_int());
  r.valve_count = static_cast<int>(metrics.at("valve_count").as_int());
  r.mapper_effort = static_cast<long>(metrics.at("mapper_effort").as_int());
  r.refinement_iterations = static_cast<int>(metrics.at("refinement_iterations").as_int());
  r.chip_growths = static_cast<int>(metrics.at("chip_growths").as_int());
  r.runtime_seconds = metrics.at("runtime_seconds").as_number();

  const JsonValue& solver = doc.at("solver");
  int key_index = 0;
  for_each_stored_counter(r.milp, [&](const char* key, std::int64_t& value) {
    if (key_index++ < kRequiredSolverKeys || solver.has(key)) value = solver.at(key).as_int();
  });
  return stored;
}

void write_stored_result(const std::string& path, const StoredResult& stored) {
  std::ofstream file(path);
  check_input(file.good(), "cannot open '" + path + "' for writing");
  file << stored_result_to_json(stored);
  check_input(file.good(), "failed while writing '" + path + "'");
}

StoredResult read_stored_result(const std::string& path) {
  std::ifstream file(path);
  check_input(file.good(), "cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return stored_result_from_json(buffer.str());
}

}  // namespace fsyn::report
