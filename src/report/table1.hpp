// Table-1 reproduction pipeline (paper Section 4).
//
// One row per (benchmark, policy): schedule the assay under the policy,
// build the optimally-bound traditional design, synthesize with
// dynamic-device mapping, and compute the comparison columns
// (vs_tmax, vs1/vs2 with peristalsis-only parts, #v, improvements, runtime).
#pragma once

#include <string>
#include <vector>

#include "assay/sequencing_graph.hpp"
#include "baseline/traditional.hpp"
#include "synth/synthesis.hpp"

namespace fsyn::report {

struct Table1Row {
  std::string case_name;
  int total_ops = 0;
  int mixing_ops = 0;
  std::string policy_label;

  // Traditional design columns.
  int device_count = 0;        ///< #d
  std::string binding;         ///< #m4-6-8-10
  int vs_tmax = 0;
  int traditional_valves = 0;  ///< #v (traditional)

  // Our method.
  int vs1_max = 0, vs1_pump = 0;
  int vs2_max = 0, vs2_pump = 0;
  int our_valves = 0;
  double runtime_seconds = 0.0;

  double improvement1() const;  ///< imp 1vs = 1 - vs1_max / vs_tmax
  double improvement2() const;  ///< imp 2vs
  double valve_improvement() const;  ///< impv = 1 - #v(ours) / #v(traditional)
};

/// Runs one case: `policy_increments` balancing steps define the policy
/// (see DESIGN.md §3.2 for the per-case p1 offsets).
Table1Row run_case(const assay::SequencingGraph& graph, int policy_increments,
                   const std::string& policy_label,
                   const synth::SynthesisOptions& options = {});

/// The paper's twelve rows: every benchmark at its p1/p2/p3 increments.
/// `jobs` > 1 runs the rows concurrently as that many tasks on the
/// process-wide executor (svc/task_group.hpp; each row is an independent
/// schedule+synthesis, so results are identical to the sequential run); 0
/// uses the hardware concurrency.
std::vector<Table1Row> run_full_table(const synth::SynthesisOptions& options = {},
                                      int jobs = 1);

/// Renders rows in the paper's column layout, with the averages line.
std::string format_table(const std::vector<Table1Row>& rows);

}  // namespace fsyn::report
