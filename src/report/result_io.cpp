#include "report/result_io.hpp"

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

void emit_grid(std::ostringstream& os, const Grid<int>& grid) {
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
  os << "  \"assay\": \"" << json_escape(stored.assay) << "\",\n";
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
     << r.routing.rip_ups << ", \"failure\": \"" << json_escape(r.routing.failure)
     << "\", \"paths\": [\n";
  for (std::size_t p = 0; p < r.routing.paths.size(); ++p) {
    const route::RoutedPath& path = r.routing.paths[p];
    os << "    {\"kind\": \"" << route::to_string(path.kind) << "\", \"task\": " << path.task
       << ", \"source_task\": " << path.source_task << ", \"source_input\": "
       << path.source_input.index << ", \"label\": \"" << json_escape(path.label)
       << "\", \"time\": " << path.time << ", \"cells\": [";
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

  os << "  \"solver\": {\"nodes\": " << r.milp_nodes << ", \"lp_iterations\": "
     << r.milp_lp_iterations << ", \"iterations\": " << r.milp_lp.iterations
     << ", \"primal_pivots\": " << r.milp_lp.primal_pivots << ", \"dual_pivots\": "
     << r.milp_lp.dual_pivots << ", \"bound_flips\": " << r.milp_lp.bound_flips
     << ", \"refactorizations\": " << r.milp_lp.refactorizations << ", \"warm_solves\": "
     << r.milp_lp.warm_solves << ", \"cold_solves\": " << r.milp_lp.cold_solves
     << ", \"lu_refactorizations\": " << r.milp_lp.lu_refactorizations
     << ", \"eta_pivots\": " << r.milp_lp.eta_pivots << ", \"eta_nnz\": " << r.milp_lp.eta_nnz
     << ", \"lu_fill_nnz\": " << r.milp_lp.lu_fill_nnz << ", \"lu_basis_nnz\": "
     << r.milp_lp.lu_basis_nnz << ", \"devex_resets\": " << r.milp_lp.devex_resets
     << ", \"gomory_cuts\": " << r.milp_cuts.gomory_generated
     << ", \"cover_cuts\": " << r.milp_cuts.cover_generated
     << ", \"cuts_applied\": " << r.milp_cuts.applied
     << ", \"cuts_retained\": " << r.milp_cuts.retained
     << ", \"cut_rounds\": " << r.milp_cuts.rounds
     << ", \"impact_branch_decisions\": " << r.milp_impact_branch_decisions
     << ", \"pseudocost_branch_decisions\": " << r.milp_pseudocost_branch_decisions
     << ", \"arena_bytes\": " << r.milp_arena_bytes << "}\n";
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
  r.milp_nodes = static_cast<long>(solver.at("nodes").as_int());
  r.milp_lp_iterations = solver.at("lp_iterations").as_int();
  r.milp_lp.iterations = solver.at("iterations").as_int();
  r.milp_lp.primal_pivots = solver.at("primal_pivots").as_int();
  r.milp_lp.dual_pivots = solver.at("dual_pivots").as_int();
  r.milp_lp.bound_flips = solver.at("bound_flips").as_int();
  r.milp_lp.refactorizations = solver.at("refactorizations").as_int();
  r.milp_lp.warm_solves = solver.at("warm_solves").as_int();
  r.milp_lp.cold_solves = solver.at("cold_solves").as_int();
  // Sparse-LU and pricing telemetry postdate the format; older documents
  // simply lack the keys, so read them leniently.
  if (solver.has("lu_refactorizations"))
    r.milp_lp.lu_refactorizations = solver.at("lu_refactorizations").as_int();
  if (solver.has("eta_pivots")) r.milp_lp.eta_pivots = solver.at("eta_pivots").as_int();
  if (solver.has("eta_nnz")) r.milp_lp.eta_nnz = solver.at("eta_nnz").as_int();
  if (solver.has("lu_fill_nnz")) r.milp_lp.lu_fill_nnz = solver.at("lu_fill_nnz").as_int();
  if (solver.has("lu_basis_nnz")) r.milp_lp.lu_basis_nnz = solver.at("lu_basis_nnz").as_int();
  if (solver.has("devex_resets")) r.milp_lp.devex_resets = solver.at("devex_resets").as_int();
  // Root-cut / branching / node-store telemetry postdates the fields above;
  // same lenient treatment.
  if (solver.has("gomory_cuts")) r.milp_cuts.gomory_generated = solver.at("gomory_cuts").as_int();
  if (solver.has("cover_cuts")) r.milp_cuts.cover_generated = solver.at("cover_cuts").as_int();
  if (solver.has("cuts_applied")) r.milp_cuts.applied = solver.at("cuts_applied").as_int();
  if (solver.has("cuts_retained")) r.milp_cuts.retained = solver.at("cuts_retained").as_int();
  if (solver.has("cut_rounds")) r.milp_cuts.rounds = solver.at("cut_rounds").as_int();
  if (solver.has("impact_branch_decisions"))
    r.milp_impact_branch_decisions = solver.at("impact_branch_decisions").as_int();
  if (solver.has("pseudocost_branch_decisions"))
    r.milp_pseudocost_branch_decisions = solver.at("pseudocost_branch_decisions").as_int();
  if (solver.has("arena_bytes")) r.milp_arena_bytes = solver.at("arena_bytes").as_int();
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
