#include "report/table1.hpp"

#include <atomic>
#include <map>
#include <thread>

#include "assay/benchmarks.hpp"
#include "sched/list_scheduler.hpp"
#include "svc/task_group.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace fsyn::report {

double Table1Row::improvement1() const {
  return vs_tmax > 0 ? 1.0 - static_cast<double>(vs1_max) / vs_tmax : 0.0;
}
double Table1Row::improvement2() const {
  return vs_tmax > 0 ? 1.0 - static_cast<double>(vs2_max) / vs_tmax : 0.0;
}
double Table1Row::valve_improvement() const {
  return traditional_valves > 0
             ? 1.0 - static_cast<double>(our_valves) / traditional_valves
             : 0.0;
}

Table1Row run_case(const assay::SequencingGraph& graph, int policy_increments,
                   const std::string& policy_label, const synth::SynthesisOptions& options) {
  const sched::Policy policy = sched::make_policy(graph, policy_increments);
  const sched::Schedule schedule = sched::schedule_with_policy(graph, policy);
  const baseline::TraditionalDesign traditional =
      baseline::build_traditional(graph, policy, schedule);
  const synth::SynthesisResult ours = synth::synthesize(graph, schedule, options);

  std::map<int, int> ops_per_volume;
  for (const assay::Operation& op : graph.operations()) {
    if (op.kind == assay::OpKind::kMix) ++ops_per_volume[op.volume];
  }

  Table1Row row;
  row.case_name = graph.name();
  row.total_ops = graph.size();
  row.mixing_ops = graph.mixing_count();
  row.policy_label = policy_label;
  row.device_count = policy.device_count();
  row.binding = traditional.binding_string({4, 6, 8, 10});
  row.vs_tmax = traditional.max_valve_actuations;
  row.traditional_valves = traditional.total_valves;
  row.vs1_max = ours.vs1_max;
  row.vs1_pump = ours.vs1_pump;
  row.vs2_max = ours.vs2_max;
  row.vs2_pump = ours.vs2_pump;
  row.our_valves = ours.valve_count;
  row.runtime_seconds = ours.runtime_seconds;
  return row;
}

std::vector<Table1Row> run_full_table(const synth::SynthesisOptions& options, int jobs) {
  // Per-case p1 policy offsets (DESIGN.md §3.2): the paper's p1 for the
  // dilution assays already includes balancing increments.
  struct CaseSpec {
    const char* name;
    int p1_increments;
  };
  static constexpr CaseSpec kCases[] = {
      {"pcr", 0},
      {"mixing_tree", 0},
      {"interpolating_dilution", 1},
      {"exponential_dilution", 3},
  };
  struct RowSpec {
    std::string benchmark;
    int increments;
    std::string label;
  };
  std::vector<RowSpec> specs;
  for (const CaseSpec& spec : kCases) {
    for (int p = 0; p < 3; ++p) {
      specs.push_back({spec.name, spec.p1_increments + p, "p" + std::to_string(p + 1)});
    }
  }

  if (jobs == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    jobs = hardware > 0 ? static_cast<int>(hardware) : 1;
  }
  // Each row is an independent (schedule, baseline, synthesis) pipeline, so
  // running them as `jobs` executor tasks, each taking rows in turn, changes
  // wall-clock only, never the numbers.
  std::vector<Table1Row> rows(specs.size());
  std::atomic<std::size_t> next_row{0};
  const auto take_rows = [&] {
    while (true) {
      const std::size_t i = next_row.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      const RowSpec& spec = specs[i];
      rows[i] = run_case(assay::make_benchmark(spec.benchmark), spec.increments, spec.label,
                         options);
    }
  };
  if (jobs <= 1) {
    take_rows();
    return rows;
  }
  svc::TaskGroup group;
  for (int task = 0; task < jobs; ++task) group.run(take_rows);
  group.wait();
  return rows;
}

std::string format_table(const std::vector<Table1Row>& rows) {
  TextTable table;
  table.set_header({"case", "#op", "Po.", "#d", "#m4-6-8-10", "vs_tmax", "#v",
                    "vs_1max", "imp_1vs", "vs_2max", "imp_2vs", "#v(ours)", "imp_v", "T(s)"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kLeft, Align::kRight, Align::kLeft,
                       Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight});
  double sum1 = 0.0, sum2 = 0.0, sumv = 0.0;
  std::string previous_case;
  for (const Table1Row& row : rows) {
    if (!previous_case.empty() && row.case_name != previous_case) table.add_separator();
    previous_case = row.case_name;
    table.add_row({
        row.case_name,
        std::to_string(row.total_ops) + "(" + std::to_string(row.mixing_ops) + ")",
        row.policy_label,
        std::to_string(row.device_count),
        row.binding,
        std::to_string(row.vs_tmax),
        std::to_string(row.traditional_valves),
        std::to_string(row.vs1_max) + "(" + std::to_string(row.vs1_pump) + ")",
        format_percent(row.improvement1()),
        std::to_string(row.vs2_max) + "(" + std::to_string(row.vs2_pump) + ")",
        format_percent(row.improvement2()),
        std::to_string(row.our_valves),
        format_percent(row.valve_improvement()),
        format_fixed(row.runtime_seconds, 1),
    });
    sum1 += row.improvement1();
    sum2 += row.improvement2();
    sumv += row.valve_improvement();
  }
  table.add_separator();
  const double n = rows.empty() ? 1.0 : static_cast<double>(rows.size());
  table.add_row({"average", "", "", "", "", "", "", "", format_percent(sum1 / n), "",
                 format_percent(sum2 / n), "", format_percent(sumv / n), ""});
  return table.to_string();
}

}  // namespace fsyn::report
