#include "synth/mapping_problem.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace fsyn::synth {

using arch::DeviceInstance;
using assay::OpId;
using assay::OpKind;
using assay::Operation;

MappingProblem MappingProblem::build(const assay::SequencingGraph& graph,
                                     const sched::Schedule& schedule,
                                     arch::Architecture chip) {
  require(schedule.graph == &graph, "schedule belongs to a different graph");
  MappingProblem problem;
  problem.graph_ = &graph;
  problem.schedule_ = &schedule;
  problem.chip_ = std::move(chip);
  problem.task_of_.assign(static_cast<std::size_t>(graph.size()), -1);

  for (const Operation& op : graph.operations()) {
    if (op.kind != OpKind::kMix && op.kind != OpKind::kDetect) continue;
    MappingTask task;
    task.index = problem.task_count();
    task.op = op.id;
    task.name = op.name;
    task.is_mix = op.kind == OpKind::kMix;
    task.volume = op.volume;
    task.pump_actuations = task.is_mix ? kPumpActuationsPerMix : 0;
    task.start = schedule.start_of(op.id);
    task.release = schedule.end_of(op.id) + schedule.transport_delay;

    // The in situ storage opens when the first *device* product arrives;
    // fluids from chip ports stream in at fill time and need no storage.
    int first_arrival = task.start;
    for (const OpId parent : op.parents) {
      const Operation& producer = graph.op(parent);
      if (producer.kind != OpKind::kMix && producer.kind != OpKind::kDetect) continue;
      first_arrival = std::min(first_arrival, schedule.arrival_from(parent));
    }
    task.storage_from = first_arrival;

    for (const arch::DeviceType& type : arch::device_types_for_volume(op.volume)) {
      if (problem.chip_.fits(DeviceInstance{type, Point{0, 0}})) task.types.push_back(type);
    }
    check_input(!task.types.empty(),
                "no device type of volume " + std::to_string(op.volume) + " fits the chip");

    problem.task_of_[static_cast<std::size_t>(op.id.index)] = task.index;
    problem.tasks_.push_back(std::move(task));
  }
  check_input(!problem.tasks_.empty(), "assay has no mappable operations");
  problem.enumerate_candidates();

  int d = std::numeric_limits<int>::max();
  for (const MappingTask& task : problem.tasks_) {
    for (const arch::DeviceType& type : task.types) {
      d = std::min(d, type.min_dimension());
    }
  }
  problem.routing_distance_ = d;

  // Precompute the pairwise relations pair_feasible consults per candidate,
  // and from them the per-task partner lists.
  const std::size_t n = static_cast<std::size_t>(problem.task_count());
  problem.parent_child_cache_.assign(n * n, 0);
  problem.co_parents_cache_.assign(n * n, 0);
  problem.time_overlap_cache_.assign(n * n, 0);
  problem.forbidden_cache_.assign(n * n, 0);
  problem.storage_free_.assign(n * n, 0);
  problem.conflict_begin_.assign(1, 0);
  problem.proximity_begin_.assign(1, 0);
  for (int a = 0; a < problem.task_count(); ++a) {
    for (int b = 0; b < problem.task_count(); ++b) {
      const std::size_t ab = problem.pair_index(a, b);
      const bool parent_child = problem.compute_parent_child(a, b);
      const bool co_parents = problem.compute_co_parents(a, b);
      const MappingTask& ta = problem.task(a);
      const MappingTask& tb = problem.task(b);
      const bool overlap = ta.occupancy_begin() < tb.release && tb.occupancy_begin() < ta.release;
      problem.parent_child_cache_[ab] = parent_child;
      problem.co_parents_cache_[ab] = co_parents;
      problem.time_overlap_cache_[ab] = overlap;
      if (parent_child) {
        // Worst case is just before the parent (a) releases: every earlier
        // product is already resident in b's storage.
        problem.storage_free_[ab] = tb.volume - problem.storage_occupied_before(b, ta.release);
      }
      if (b == a) continue;
      if (parent_child || overlap) problem.conflict_tasks_.push_back(b);
      if (parent_child || co_parents) problem.proximity_tasks_.push_back(b);
    }
    problem.conflict_begin_.push_back(static_cast<int>(problem.conflict_tasks_.size()));
    problem.proximity_begin_.push_back(static_cast<int>(problem.proximity_tasks_.size()));
  }
  return problem;
}

void MappingProblem::set_dead_valves(std::vector<Point> dead) {
  for (const Point& cell : dead) {
    check_input(chip_.bounds().contains(cell), "dead valve outside the matrix");
  }
  dead_ = std::move(dead);
  enumerate_candidates();
}

bool MappingProblem::is_dead(const Point& cell) const {
  return std::find(dead_.begin(), dead_.end(), cell) != dead_.end();
}

bool MappingProblem::placement_allowed(int task_index, const DeviceInstance& device) const {
  if (!chip_.fits(device)) return false;
  const MappingTask& t = task(task_index);
  if (std::find(t.types.begin(), t.types.end(), device.type) == t.types.end()) return false;
  return !covers_port_or_dead_valve(device.footprint());
}

bool MappingProblem::covers_port_or_dead_valve(const Rect& footprint) const {
  for (const arch::ChipPort& port : chip_.ports()) {
    if (footprint.contains(port.cell)) return true;
  }
  for (const Point& cell : dead_) {
    if (footprint.contains(cell)) return true;
  }
  return false;
}

void MappingProblem::enumerate_candidates() {
  candidate_lists_.clear();
  candidate_list_of_.clear();
  std::vector<int> first_user;  // per list, the first task it was built for
  for (const MappingTask& t : tasks_) {
    std::size_t list = 0;
    while (list < first_user.size() && task(first_user[list]).types != t.types) ++list;
    if (list == first_user.size()) {
      first_user.push_back(t.index);
      std::vector<DeviceInstance>& out = candidate_lists_.emplace_back();
      for (const arch::DeviceType& type : t.types) {
        // Each origin fits and the type is the task's, so of
        // placement_allowed only the port and dead-valve test is left.
        for (const Point& origin : chip_.placements_for(type)) {
          const DeviceInstance instance{type, origin};
          if (!covers_port_or_dead_valve(instance.footprint())) out.push_back(instance);
        }
      }
    }
    candidate_list_of_.push_back(static_cast<int>(list));
  }
}

bool MappingProblem::compute_parent_child(int a, int b) const {
  const Operation& op_a = graph_->op(task(a).op);
  const Operation& op_b = graph_->op(task(b).op);
  const auto is_parent_of = [&](const Operation& parent, const Operation& child) {
    return std::find(child.parents.begin(), child.parents.end(), parent.id) !=
           child.parents.end();
  };
  return is_parent_of(op_a, op_b) || is_parent_of(op_b, op_a);
}

bool MappingProblem::compute_co_parents(int a, int b) const {
  for (const assay::OpId child_a : graph_->children(task(a).op)) {
    for (const assay::OpId child_b : graph_->children(task(b).op)) {
      if (child_a == child_b) return true;
    }
  }
  return false;
}

bool MappingProblem::parent_child(int a, int b) const {
  return parent_child_cache_[pair_index(a, b)] != 0;
}

bool MappingProblem::co_parents(int a, int b) const {
  return co_parents_cache_[pair_index(a, b)] != 0;
}

bool MappingProblem::time_overlap(int a, int b) const {
  return time_overlap_cache_[pair_index(a, b)] != 0;
}

void MappingProblem::forbid_storage_overlap(int a, int b) {
  if (a > b) std::swap(a, b);
  if (!storage_overlap_forbidden(a, b)) {
    forbidden_.push_back({a, b});
    forbidden_cache_[pair_index(a, b)] = 1;
    forbidden_cache_[pair_index(b, a)] = 1;
  }
}

bool MappingProblem::storage_overlap_forbidden(int a, int b) const {
  return forbidden_cache_[pair_index(a, b)] != 0;
}

int MappingProblem::storage_occupied_before(int child, int t) const {
  const Operation& op = graph_->op(task(child).op);
  const int volume = task(child).volume;
  int ratio_sum = 0;
  if (!op.ratio.empty()) {
    for (const int part : op.ratio) ratio_sum += part;
  } else {
    ratio_sum = static_cast<int>(op.parents.size());
  }
  if (ratio_sum == 0) return 0;

  int occupied = 0;
  for (std::size_t i = 0; i < op.parents.size(); ++i) {
    const Operation& producer = graph_->op(op.parents[i]);
    if (producer.kind != OpKind::kMix && producer.kind != OpKind::kDetect) continue;
    if (schedule_->arrival_from(producer.id) >= t) continue;
    const int part = op.ratio.empty() ? 1 : op.ratio[i];
    // Ceil: a partially filled cell is unavailable.
    occupied += (volume * part + ratio_sum - 1) / ratio_sum;
  }
  return std::min(occupied, volume);
}

bool MappingProblem::storage_overlap_fits(int parent, const DeviceInstance& dp, int child,
                                          const DeviceInstance& dc) const {
  // Cells of the child storage's ring blocked by the live parent device:
  // those of its footprint minus those of its interior (empty when the
  // ring is the whole footprint).
  const Rect parent_footprint = dp.footprint();
  const Rect child_footprint = dc.footprint();
  const Rect interior{child_footprint.x + 1, child_footprint.y + 1, child_footprint.width - 2,
                      child_footprint.height - 2};
  const int blocked = child_footprint.intersection(parent_footprint).area() -
                      interior.intersection(parent_footprint).area();
  // The free volume is never negative, so an overlap that blocks no ring
  // cell always fits.
  return blocked <= storage_free_[pair_index(parent, child)];
}

bool MappingProblem::pair_feasible(int a, const DeviceInstance& da, int b,
                                   const DeviceInstance& db) const {
  const int gap = da.footprint().chebyshev_gap(db.footprint());
  const bool related = parent_child(a, b);

  // Routing-convenient mapping (Eq. 13-16): sequential devices stay within
  // distance d so the connecting channel is trivial.
  if (related && routing_convenient_ && gap > routing_distance_) return false;

  if (!time_overlap(a, b)) return true;

  if (related && allow_storage_overlap_ && !storage_overlap_forbidden(a, b)) {
    if (!da.footprint().overlaps(db.footprint())) return true;
    // In situ storage overlap (Eq. 12): only the child's storage may absorb
    // the overlap, and only within its free space (Algorithm 1 L6).
    const bool a_is_parent = task(a).start <= task(b).start;
    const int parent = a_is_parent ? a : b;
    const int child = a_is_parent ? b : a;
    const DeviceInstance& dparent = a_is_parent ? da : db;
    const DeviceInstance& dchild = a_is_parent ? db : da;
    return storage_overlap_fits(parent, dparent, child, dchild);
  }

  // Unrelated concurrent devices (or forbidden pairs) keep a wall between
  // their footprints (Eq. 3-8 use the wall coordinates b_le/b_ri/...).
  return gap >= 1;
}

int MappingProblem::origin_grid_size(int a) const {
  int size = 0;
  for (const arch::DeviceType& type : task(a).types) {
    size += (chip_.width() - type.width + 1) * (chip_.height() - type.height + 1);
  }
  return size;
}

void MappingProblem::mark_conflicts(int a, int b, const DeviceInstance& db,
                                    std::span<int> grid) const {
  const bool related = parent_child(a, b);
  const bool distance_bound = related && routing_convenient_;
  const bool concurrent = time_overlap(a, b);
  if (!distance_bound && !concurrent) return;
  const bool may_overlap = related && allow_storage_overlap_ && !storage_overlap_forbidden(a, b);
  const bool a_is_parent = task(a).start <= task(b).start;
  const Rect fb = db.footprint();
  const int d = routing_distance_;

  int offset = 0;
  for (const arch::DeviceType& type : task(a).types) {
    const int columns = chip_.width() - type.width + 1;
    const int rows = chip_.height() - type.height + 1;
    // Writes b into the origins [x0, x1] x [y0, y1] (inclusive) of this
    // type's block, clipped to it.
    const auto mark = [&](int x0, int x1, int y0, int y1) {
      x0 = std::max(x0, 0);
      x1 = std::min(x1, columns - 1);
      if (x0 > x1) return;
      for (int y = std::max(y0, 0); y <= std::min(y1, rows - 1); ++y) {
        const auto row = grid.begin() + offset + y * columns;
        std::fill(row + x0, row + x1 + 1, b);
      }
    };
    if (distance_bound) {
      // gap > d outside the window [fb.left() - w - d, fb.right() + d] x
      // [fb.bottom() - h - d, fb.top() + d]: mark the rows below and above
      // it, and both sides of it in its rows.
      const int x0 = fb.left() - type.width - d;
      const int x1 = fb.right() + d;
      const int y0 = fb.bottom() - type.height - d;
      const int y1 = fb.top() + d;
      mark(0, columns - 1, 0, y0 - 1);
      mark(0, columns - 1, y1 + 1, rows - 1);
      mark(0, x0 - 1, y0, y1);
      mark(x1 + 1, columns - 1, y0, y1);
    }
    if (concurrent && may_overlap) {
      // Only overlapping origins can break the free-space rule; test them
      // one by one.
      const int x0 = std::max(fb.left() - type.width + 1, 0);
      const int x1 = std::min(fb.right() - 1, columns - 1);
      const int y0 = std::max(fb.bottom() - type.height + 1, 0);
      const int y1 = std::min(fb.top() - 1, rows - 1);
      for (int y = y0; y <= y1; ++y) {
        for (int x = x0; x <= x1; ++x) {
          const DeviceInstance da{type, Point{x, y}};
          const bool fits = a_is_parent ? storage_overlap_fits(a, da, b, db)
                                        : storage_overlap_fits(b, db, a, da);
          if (!fits) grid[static_cast<std::size_t>(offset + y * columns + x)] = b;
        }
      }
    } else if (concurrent) {
      // Wall gap: gap 0, i.e. touching or overlapping footprints.
      mark(fb.left() - type.width, fb.right(), fb.bottom() - type.height, fb.top());
    }
    offset += columns * rows;
  }
}

void MappingProblem::validate_placement(const Placement& placement) const {
  require(static_cast<int>(placement.size()) == task_count(), "placement size mismatch");
  for (int i = 0; i < task_count(); ++i) {
    const DeviceInstance& device = placement[static_cast<std::size_t>(i)];
    require(placement_allowed(i, device),
            "task '" + task(i).name + "' placed illegally (outside the chip, wrong "
            "volume, or covering a chip port)");
  }
  for (int a = 0; a < task_count(); ++a) {
    for (const int b : conflict_partners(a)) {
      if (b < a) continue;
      require(pair_feasible(a, placement[static_cast<std::size_t>(a)], b,
                            placement[static_cast<std::size_t>(b)]),
              "placement violates pair constraints: '" + task(a).name + "' vs '" +
                  task(b).name + "'");
    }
  }
}

Grid<int> MappingProblem::pump_loads(const Placement& placement) const {
  Grid<int> loads(chip_.width(), chip_.height(), 0);
  for (int i = 0; i < task_count(); ++i) {
    const MappingTask& t = task(i);
    if (t.pump_actuations == 0) continue;
    placement[static_cast<std::size_t>(i)].footprint().for_each_ring_cell(
        [&](const Point& cell) { loads.at(cell) += t.pump_actuations; });
  }
  return loads;
}

int MappingProblem::max_pump_load(const Placement& placement) const {
  const Grid<int> loads = pump_loads(placement);
  return *std::max_element(loads.begin(), loads.end());
}

Grid<int> MappingProblem::pump_loads_setting2(const Placement& placement) const {
  Grid<int> loads(chip_.width(), chip_.height(), 0);
  for (int i = 0; i < task_count(); ++i) {
    const MappingTask& t = task(i);
    if (!t.is_mix) continue;
    const Rect footprint = placement[static_cast<std::size_t>(i)].footprint();
    int ring = 0;
    footprint.for_each_ring_cell([&ring](const Point&) { ++ring; });
    const int per_valve = (kDedicatedPumpWorkPerMix + ring - 1) / ring;
    footprint.for_each_ring_cell([&](const Point& cell) { loads.at(cell) += per_valve; });
  }
  return loads;
}

int MappingProblem::max_pump_load_setting2(const Placement& placement) const {
  const Grid<int> loads = pump_loads_setting2(placement);
  return *std::max_element(loads.begin(), loads.end());
}

}  // namespace fsyn::synth
