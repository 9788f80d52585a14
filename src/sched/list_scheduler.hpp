// Scheduling of bioassays onto a device policy.
//
// The paper's experiments vary a "policy index": policies instantiate a set
// of dedicated mixers (one per distinct volume, then repeatedly one more
// mixer for every size class under the heaviest binding load — Section 4).
// Each policy yields a different resource-constrained scheduling result,
// which is the input shared by the traditional baseline and the
// dynamic-device mapper.  An ASAP mode (unlimited devices) reproduces the
// paper's Fig. 9 Gantt chart for PCR.
#pragma once

#include <map>
#include <string>

#include "assay/benchmarks.hpp"  // assay::kTransportDelay
#include "assay/sequencing_graph.hpp"
#include "sched/schedule.hpp"

namespace fsyn::sched {

/// A traditional-design resource policy: dedicated mixer counts per volume
/// plus dedicated detectors.
struct Policy {
  std::map<int, int> mixers_per_volume;  ///< volume -> number of mixers
  int detectors = 0;

  int mixer_count() const;
  int device_count() const { return mixer_count() + detectors; }

  /// Balanced binding load of a size class: ceil(#ops / #mixers).
  static int balanced_load(int operations, int mixers);

  /// Formats the paper's #m column, e.g. "1-0-(2,2)-2" for op counts per
  /// mixer, hyphen-separated per size in `volumes` ascending order.
  std::string format_binding(const std::map<int, int>& ops_per_volume,
                             const std::vector<int>& volumes) const;
};

/// Builds the policy for `graph` after `increments` balancing steps:
/// start with one mixer per used volume, then `increments` times add one
/// mixer to every size class whose balanced load equals the maximum.
/// Detector count is the maximum number of concurrent detect operations in
/// the ASAP schedule (self-consistent stand-in for the paper's unstated
/// detector sizing; see DESIGN.md §3.3).
Policy make_policy(const assay::SequencingGraph& graph, int increments,
                   int transport_delay = assay::kTransportDelay);

/// Unlimited-resource ASAP schedule (reproduces Fig. 9 for the PCR case).
Schedule schedule_asap(const assay::SequencingGraph& graph,
                       int transport_delay = assay::kTransportDelay);

/// Resource-constrained list scheduling under `policy` with critical-path
/// priority.  Mix operations need a free mixer of exactly their volume;
/// detect operations need a free detector; inputs/outputs are free.
Schedule schedule_with_policy(const assay::SequencingGraph& graph, const Policy& policy,
                              int transport_delay = assay::kTransportDelay);

/// The schedule a job asks for: ASAP when `asap`, else list scheduling
/// under `make_policy(graph, policy_increments)`.
Schedule schedule_for(const assay::SequencingGraph& graph, bool asap, int policy_increments);

}  // namespace fsyn::sched
