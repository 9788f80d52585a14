// Exact (time-indexed ILP) scheduling — an extension beyond the paper.
//
// The paper takes scheduling results as given inputs; this reproduction
// generates them with a critical-path list scheduler (list_scheduler.hpp).
// For small assays the optimum makespan can be computed exactly with a
// time-indexed ILP over the in-tree MILP solver, which (a) validates the
// list scheduler's quality in tests and (b) gives users a tighter input
// schedule when they can afford the solve.
//
// Model: binaries x_{i,t} (operation i starts at t), sum_t x_{i,t} = 1;
// precedence with transport delays; per-volume mixer capacity and detector
// capacity as cumulative interval constraints; minimize the makespan bound.
#pragma once

#include <optional>

#include "ilp/branch_and_bound.hpp"
#include "sched/list_scheduler.hpp"

namespace fsyn::sched {

struct IlpScheduleOptions {
  double time_limit_seconds = 60.0;
};

/// The solve's counters (ilp::SolveCounters) plus the schedule it chose.
struct IlpScheduleResult : ilp::SolveCounters {
  Schedule schedule;
  ilp::MilpStatus status = ilp::MilpStatus::kLimit;
};

/// Solves the scheduling ILP under `policy` with the standard transport
/// delay (assay::kTransportDelay), on one reproducible worker and at most
/// 200,000 nodes.  The horizon is the list scheduler's makespan (always
/// achievable), and the list schedule warm starts the search, so a valid
/// schedule is always returned; `status` says whether it is proven optimal.
IlpScheduleResult schedule_optimal(const assay::SequencingGraph& graph, const Policy& policy,
                                   const IlpScheduleOptions& options = {});

}  // namespace fsyn::sched
