#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace fsyn::sched {

using assay::OpId;
using assay::OpKind;
using assay::Operation;
using assay::SequencingGraph;

int Policy::mixer_count() const {
  int total = 0;
  for (const auto& [volume, count] : mixers_per_volume) total += count;
  return total;
}

int Policy::balanced_load(int operations, int mixers) {
  require(mixers > 0, "balanced_load needs at least one mixer");
  return (operations + mixers - 1) / mixers;
}

std::string Policy::format_binding(const std::map<int, int>& ops_per_volume,
                                   const std::vector<int>& volumes) const {
  std::vector<std::string> parts;
  for (const int volume : volumes) {
    const auto ops_it = ops_per_volume.find(volume);
    const int ops = ops_it == ops_per_volume.end() ? 0 : ops_it->second;
    const auto mixer_it = mixers_per_volume.find(volume);
    const int mixers = mixer_it == mixers_per_volume.end() ? 0 : mixer_it->second;
    if (mixers <= 1) {
      parts.push_back(std::to_string(ops));
      continue;
    }
    // Distribute ops as evenly as possible: `high` mixers carry load+1.
    const int low = ops / mixers;
    const int high_count = ops % mixers;
    std::vector<std::string> loads;
    for (int m = 0; m < mixers; ++m) {
      loads.push_back(std::to_string(m < high_count ? low + 1 : low));
    }
    parts.push_back("(" + join(loads, ",") + ")");
  }
  return join(parts, "-");
}

namespace {

std::map<int, int> mixing_ops_per_volume(const SequencingGraph& graph) {
  std::map<int, int> ops;
  for (const Operation& op : graph.operations()) {
    if (op.kind == OpKind::kMix) ++ops[op.volume];
  }
  return ops;
}

/// Critical-path priority: longest duration+transport chain to any sink.
std::vector<int> critical_path_lengths(const SequencingGraph& graph, int transport_delay) {
  std::vector<int> length(static_cast<std::size_t>(graph.size()), 0);
  const auto order = graph.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Operation& op = graph.op(*it);
    int best_child = 0;
    for (const OpId child : graph.children(op.id)) {
      best_child = std::max(best_child,
                            transport_delay + length[static_cast<std::size_t>(child.index)]);
    }
    length[static_cast<std::size_t>(op.id.index)] = op.duration + best_child;
  }
  return length;
}

int max_concurrent_detects(const SequencingGraph& graph, const Schedule& schedule) {
  int best = 0;
  for (const Operation& probe : graph.operations()) {
    if (probe.kind != OpKind::kDetect) continue;
    int concurrent = 0;
    for (const Operation& other : graph.operations()) {
      if (other.kind != OpKind::kDetect) continue;
      if (schedule.start_of(other.id) < schedule.end_of(probe.id) &&
          schedule.start_of(probe.id) < schedule.end_of(other.id)) {
        ++concurrent;
      }
    }
    best = std::max(best, concurrent);
  }
  return best;
}

}  // namespace

Policy make_policy(const SequencingGraph& graph, int increments, int transport_delay) {
  check_input(increments >= 0, "policy increments must be non-negative");
  const std::map<int, int> ops = mixing_ops_per_volume(graph);
  check_input(!ops.empty(), "assay has no mixing operations");

  Policy policy;
  for (const auto& [volume, count] : ops) policy.mixers_per_volume[volume] = 1;
  for (int step = 0; step < increments; ++step) {
    int max_load = 0;
    for (const auto& [volume, count] : ops) {
      max_load = std::max(max_load,
                          Policy::balanced_load(count, policy.mixers_per_volume[volume]));
    }
    for (const auto& [volume, count] : ops) {
      if (Policy::balanced_load(count, policy.mixers_per_volume[volume]) == max_load) {
        ++policy.mixers_per_volume[volume];
      }
    }
  }
  if (graph.count(OpKind::kDetect) > 0) {
    policy.detectors =
        std::max(1, max_concurrent_detects(graph, schedule_asap(graph, transport_delay)));
  }
  return policy;
}

Schedule schedule_asap(const SequencingGraph& graph, int transport_delay) {
  check_input(transport_delay >= 0, "transport delay must be non-negative");
  Schedule schedule;
  schedule.graph = &graph;
  schedule.transport_delay = transport_delay;
  schedule.start.assign(static_cast<std::size_t>(graph.size()), 0);
  schedule.end.assign(static_cast<std::size_t>(graph.size()), 0);
  for (const OpId id : graph.topological_order()) {
    const Operation& op = graph.op(id);
    int start = 0;
    for (const OpId parent : op.parents) {
      start = std::max(start, schedule.arrival_from(parent));
    }
    schedule.start[static_cast<std::size_t>(id.index)] = start;
    schedule.end[static_cast<std::size_t>(id.index)] = start + op.duration;
  }
  schedule.validate();
  return schedule;
}

Schedule schedule_with_policy(const SequencingGraph& graph, const Policy& policy,
                              int transport_delay) {
  check_input(transport_delay >= 0, "transport delay must be non-negative");
  for (const auto& [volume, count] : mixing_ops_per_volume(graph)) {
    const auto it = policy.mixers_per_volume.find(volume);
    check_input(it != policy.mixers_per_volume.end() && it->second > 0,
                "policy provides no mixer of volume " + std::to_string(volume));
  }
  check_input(graph.count(OpKind::kDetect) == 0 || policy.detectors > 0,
              "policy provides no detector but the assay detects");

  Schedule schedule;
  schedule.graph = &graph;
  schedule.transport_delay = transport_delay;
  schedule.start.assign(static_cast<std::size_t>(graph.size()), -1);
  schedule.end.assign(static_cast<std::size_t>(graph.size()), -1);

  const std::vector<int> priority = critical_path_lengths(graph, transport_delay);

  // Device pools: free-at times per mixer instance of each volume, and per
  // detector.  A device is reusable once its previous operation's product
  // has left (end + transport).
  std::map<int, std::vector<int>> mixer_free_at;
  for (const auto& [volume, count] : policy.mixers_per_volume) {
    mixer_free_at[volume].assign(static_cast<std::size_t>(count), 0);
  }
  std::vector<int> detector_free_at(static_cast<std::size_t>(policy.detectors), 0);

  std::vector<OpId> remaining = graph.topological_order();
  std::vector<bool> done(static_cast<std::size_t>(graph.size()), false);

  while (!remaining.empty()) {
    // Gather ready operations (all parents scheduled).
    std::vector<OpId> ready;
    for (const OpId id : remaining) {
      const Operation& op = graph.op(id);
      const bool parents_done = std::all_of(op.parents.begin(), op.parents.end(),
                                            [&](OpId p) { return done[static_cast<std::size_t>(p.index)]; });
      if (parents_done) ready.push_back(id);
    }
    require(!ready.empty(), "list scheduler wedged: no ready operation");

    // Highest critical-path priority first; ties by id for determinism.
    std::sort(ready.begin(), ready.end(), [&](OpId a, OpId b) {
      const int pa = priority[static_cast<std::size_t>(a.index)];
      const int pb = priority[static_cast<std::size_t>(b.index)];
      return pa != pb ? pa > pb : a.index < b.index;
    });

    const OpId id = ready.front();
    const Operation& op = graph.op(id);
    int earliest = 0;
    for (const OpId parent : op.parents) {
      earliest = std::max(earliest, schedule.arrival_from(parent));
    }

    int start = earliest;
    if (op.kind == OpKind::kMix) {
      auto& pool = mixer_free_at[op.volume];
      auto slot = std::min_element(pool.begin(), pool.end());
      start = std::max(earliest, *slot);
      *slot = start + op.duration + transport_delay;
    } else if (op.kind == OpKind::kDetect) {
      auto slot = std::min_element(detector_free_at.begin(), detector_free_at.end());
      start = std::max(earliest, *slot);
      *slot = start + op.duration + transport_delay;
    }

    schedule.start[static_cast<std::size_t>(id.index)] = start;
    schedule.end[static_cast<std::size_t>(id.index)] = start + op.duration;
    done[static_cast<std::size_t>(id.index)] = true;
    remaining.erase(std::find(remaining.begin(), remaining.end(), id));
  }

  schedule.validate();
  return schedule;
}

Schedule schedule_for(const SequencingGraph& graph, bool asap, int policy_increments) {
  return asap ? schedule_asap(graph)
              : schedule_with_policy(graph, make_policy(graph, policy_increments));
}

}  // namespace fsyn::sched
