// The dynamic-device mapping problem (paper Section 3.2-3.4).
//
// Every mix/detect operation of a scheduled assay becomes a MappingTask: a
// dynamic device that must be placed on the valve matrix.  The device also
// doubles as the operation's in situ on-chip storage (Section 3.3): the
// region starts collecting parent products as soon as the first one arrives
// and is "turned into" the working device at the operation's start time, so
// one placement decision covers both.
//
// This header owns the single feasibility semantics shared by the exact ILP
// mapper and the heuristic mapper:
//   * each task picks exactly one device type + origin            (Eq. 1)
//   * tasks whose occupancy windows overlap in time must keep a
//     1-cell wall gap                                              (Eq. 3-8)
//   * except parent/child pairs, which may overlap (in situ
//     storage sharing, Eq. 12) subject to the free-space rule of
//     Algorithm 1 L6-L8
//   * parent/child devices must be within distance d
//     (routing-convenient mapping, Eq. 13-16)
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/architecture.hpp"
#include "arch/device_types.hpp"
#include "assay/sequencing_graph.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"

namespace fsyn::synth {

/// Pump-valve actuations per mixing operation in the paper's two settings.
inline constexpr int kPumpActuationsPerMix = 40;      // setting 1 (conservative)
inline constexpr int kDedicatedPumpWorkPerMix = 120;  // 3 valves x 40, setting 2 budget

/// One operation to place on the valve matrix.
struct MappingTask {
  int index = -1;                ///< task index inside the problem
  assay::OpId op;
  std::string name;
  bool is_mix = false;           ///< detect tasks occupy a device but never pump
  int volume = 0;
  int pump_actuations = 0;       ///< p_i, per pump valve (setting 1)

  // Occupancy timeline (half-open intervals in tu):
  int storage_from = 0;  ///< first parent product arrival (in situ storage opens)
  int start = 0;         ///< operation start (storage becomes the device)
  int release = 0;       ///< end + transport: product has left, valves are free

  int occupancy_begin() const { return storage_from < start ? storage_from : start; }
  bool has_storage_phase() const { return storage_from < start; }

  /// Candidate shapes for this task's volume.
  std::vector<arch::DeviceType> types;
};

/// A complete placement: one DeviceInstance per task (indexed like tasks).
using Placement = std::vector<arch::DeviceInstance>;

class MappingProblem {
 public:
  /// Builds the problem for a scheduled assay on `chip`.  Mix tasks get
  /// p_i = kPumpActuationsPerMix; detect tasks p_i = 0.
  static MappingProblem build(const assay::SequencingGraph& graph,
                              const sched::Schedule& schedule, arch::Architecture chip);

  const assay::SequencingGraph& graph() const { return *graph_; }
  const sched::Schedule& schedule() const { return *schedule_; }
  const arch::Architecture& chip() const { return chip_; }

  int task_count() const { return static_cast<int>(tasks_.size()); }
  const MappingTask& task(int index) const { return tasks_[static_cast<std::size_t>(index)]; }
  const std::vector<MappingTask>& tasks() const { return tasks_; }

  /// Task index of an operation, or -1 for ops without a device (inputs).
  int task_of(assay::OpId op) const { return task_of_[static_cast<std::size_t>(op.index)]; }

  /// True when b consumes a's product (or vice versa) — the pairs whose
  /// devices may overlap as in-situ storages and must obey the
  /// routing-convenience distance.
  bool parent_child(int a, int b) const;

  /// True when a and b feed the same mixing operation.  Such co-parents
  /// should be placed near each other or their common child cannot satisfy
  /// the routing-convenience distance to both.
  bool co_parents(int a, int b) const;

  /// True when the occupancy windows of the two tasks intersect.
  bool time_overlap(int a, int b) const;

  /// The tasks b != a, ascending, that are parent/child of a or overlap it
  /// in time: the only tasks for which pair_feasible(a, ., b, .) can be
  /// false, whatever the ablation switches and forbidden pairs.  Every
  /// other pair is legal at any two positions.  Symmetric.
  std::span<const int> conflict_partners(int a) const {
    return csr_row(conflict_begin_, conflict_tasks_, a);
  }

  /// The tasks b != a, ascending, that are parent/child or co-parents of
  /// a: the tasks a's device should stay near (routing convenience, and
  /// room for a common child within distance d of both).  Symmetric.
  std::span<const int> proximity_partners(int a) const {
    return csr_row(proximity_begin_, proximity_tasks_, a);
  }

  /// The routing-convenience distance d: minimum dimension over all
  /// candidate device types of all tasks (paper Section 3.4).
  int routing_distance() const { return routing_distance_; }

  /// True when the instance is an admissible position for the task: inside
  /// the matrix, of the right volume, and not covering a chip port cell
  /// (ports connect to off-chip pumps and must stay reachable).
  bool placement_allowed(int task, const arch::DeviceInstance& device) const;

  /// All admissible instances for a task: each of its `types` in order,
  /// times that type's origins in Architecture::placements_for order, kept
  /// when placement_allowed.  The single candidate enumeration read by the
  /// ILP model, the heuristic mapper and repairs.  placement_allowed reads
  /// nothing of a task but its types, so tasks with equal `types` share one
  /// list (same storage).  The lists are computed in build() and again by
  /// set_dead_valves(), which invalidates spans taken before it.
  std::span<const arch::DeviceInstance> candidates(int task) const {
    return candidate_lists_[static_cast<std::size_t>(
        candidate_list_of_[static_cast<std::size_t>(task)])];
  }

  /// Fault tolerance (extension): valves that have worn out.  Dead valves
  /// are excluded from every device footprint and blocked for routing, so
  /// re-running synthesis maps the assay around them — the degradation
  /// story the valve-centered architecture enables.  Recomputes the
  /// candidate lists.
  void set_dead_valves(std::vector<Point> dead);
  bool is_dead(const Point& cell) const;
  const std::vector<Point>& dead_valves() const { return dead_; }

  /// Ablation switches.  Disabling storage overlap turns every parent/child
  /// pair into a strict non-overlap pair (as if c5 were fixed to 0);
  /// disabling routing convenience drops the distance-d constraints
  /// (Eq. 13-16).  Both default to the paper's configuration (enabled).
  void set_allow_storage_overlap(bool allow) { allow_storage_overlap_ = allow; }
  bool allow_storage_overlap() const { return allow_storage_overlap_; }
  void set_routing_convenient(bool enabled) { routing_convenient_ = enabled; }
  bool routing_convenient() const { return routing_convenient_; }

  /// Pairs that must not overlap spatially even though they are
  /// parent/child (Algorithm 1 L7: the free-space rule failed for them in a
  /// previous iteration).  Order-insensitive.
  void forbid_storage_overlap(int a, int b);
  bool storage_overlap_forbidden(int a, int b) const;
  int forbidden_pair_count() const { return static_cast<int>(forbidden_.size()); }

  // ---- feasibility semantics (shared by ILP and heuristic) ----

  /// Spatial legality of two placed tasks, honouring time overlap, wall
  /// gaps, the storage-overlap permission and routing convenience.  The
  /// reference semantics: validation, annealing and repairs call it per
  /// pair, and mark_conflicts must agree with it cell for cell.
  bool pair_feasible(int a, const arch::DeviceInstance& da, int b,
                     const arch::DeviceInstance& db) const;

  /// Task a's origin grid: for each of a's types in order, one cell per
  /// origin at which the type fits the chip, row-major.  origin_cell maps
  /// an instance of one of a's types to its cell.
  int origin_grid_size(int a) const;
  int origin_cell(int a, const arch::DeviceInstance& d) const {
    int offset = 0;
    for (const arch::DeviceType& type : task(a).types) {
      const int columns = chip_.width() - type.width + 1;
      if (type == d.type) return offset + d.origin.y * columns + d.origin.x;
      offset += columns * (chip_.height() - type.height + 1);
    }
    throw LogicError("origin_cell: device type is not one of the task's");
  }

  /// pair_feasible against one placed partner, for all of a's origins at
  /// once: writes `b` into every cell of `grid` (a's origin grid) whose
  /// device d has pair_feasible(a, d, b, db) false, and leaves every other
  /// cell as it is.  The blocked cells form a few rectangles, so the cost
  /// is their area, not one pair_feasible call per origin.  Marking a's
  /// placed partners in descending index order leaves in each cell the
  /// lowest-index partner that blocks it.
  void mark_conflicts(int a, int b, const arch::DeviceInstance& db, std::span<int> grid) const;

  /// Free-space rule (Algorithm 1 L6): when the storage of the child task
  /// overlaps a parent device, the overlap area must fit into the storage's
  /// free volume while the parent is still working.  Returns true when the
  /// pair's overlap is acceptable.  `parent` and `child` must be a
  /// parent/child pair, in either order; their free volume is computed in
  /// build(), so the check is O(1).
  bool storage_overlap_fits(int parent, const arch::DeviceInstance& dp, int child,
                            const arch::DeviceInstance& dc) const;

  /// Volume (in cells) of child-task storage already occupied by products
  /// that arrived strictly before time `t`.
  int storage_occupied_before(int child, int t) const;

  /// Full-placement validation; throws fsyn::LogicError with the offending
  /// pair when the placement violates the semantics above.
  void validate_placement(const Placement& placement) const;

  /// Per-cell pump load of a placement (setting 1 p_i), and its maximum —
  /// the paper's objective (10).
  Grid<int> pump_loads(const Placement& placement) const;
  int max_pump_load(const Placement& placement) const;

  /// Setting 2: same placement, per-op pump work rescaled to the dedicated
  /// mixer's total (ceil(120 / ring size) per valve; Section 4).
  Grid<int> pump_loads_setting2(const Placement& placement) const;
  int max_pump_load_setting2(const Placement& placement) const;

 private:
  const assay::SequencingGraph* graph_ = nullptr;
  const sched::Schedule* schedule_ = nullptr;
  arch::Architecture chip_{8, 8};
  std::vector<MappingTask> tasks_;
  std::vector<int> task_of_;
  std::vector<std::pair<int, int>> forbidden_;
  // Dense pairwise caches (task_count^2, row-major); pair_feasible is the
  // inner loop of both mappers, so relation lookups must be O(1).
  std::vector<char> parent_child_cache_;
  std::vector<char> co_parents_cache_;
  std::vector<char> time_overlap_cache_;
  std::vector<char> forbidden_cache_;
  // At pair_index(parent, child) of each parent/child pair, in both
  // orders: the child storage's free volume just before the parent
  // releases (storage_overlap_fits).
  std::vector<int> storage_free_;
  std::size_t pair_index(int a, int b) const {
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(task_count()) +
           static_cast<std::size_t>(b);
  }
  // The partner lists above in CSR form: row a is
  // tasks[begin[a] .. begin[a + 1]).
  std::vector<int> conflict_begin_;
  std::vector<int> conflict_tasks_;
  std::vector<int> proximity_begin_;
  std::vector<int> proximity_tasks_;
  static std::span<const int> csr_row(const std::vector<int>& begin,
                                      const std::vector<int>& tasks, int row) {
    const auto r = static_cast<std::size_t>(row);
    return std::span<const int>(tasks).subspan(static_cast<std::size_t>(begin[r]),
                                               static_cast<std::size_t>(begin[r + 1] - begin[r]));
  }
  // One candidate list per distinct `types` vector; task i reads
  // candidate_lists_[candidate_list_of_[i]].
  std::vector<std::vector<arch::DeviceInstance>> candidate_lists_;
  std::vector<int> candidate_list_of_;
  void enumerate_candidates();
  bool covers_port_or_dead_valve(const Rect& footprint) const;
  bool compute_parent_child(int a, int b) const;
  bool compute_co_parents(int a, int b) const;
  std::vector<Point> dead_;
  int routing_distance_ = 2;
  bool allow_storage_overlap_ = true;
  bool routing_convenient_ = true;
};

}  // namespace fsyn::synth
