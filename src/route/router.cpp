#include "route/router.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::route {

using arch::DeviceInstance;
using assay::OpId;
using assay::OpKind;
using assay::Operation;
using synth::MappingProblem;
using synth::Placement;

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kFill:     return "fill";
    case TransportKind::kTransfer: return "transfer";
    case TransportKind::kDrain:    return "drain";
  }
  return "?";
}

namespace {

/// Cost per pump actuation already charged to a cell: steers control
/// traffic away from heavily pumped valves so transports do not push the
/// chip's hottest valve even higher (the objective is the max actuation).
constexpr double kPumpAvoidanceWeight = 0.25;
/// Discount for cells already actuated by earlier (non-overlapping) paths:
/// encourages a shared channel tree, which keeps the number of implemented
/// valves (#v) low after the never-actuated ones are removed.
constexpr double kReuseDiscount = 0.6;
/// A path gives up after this many rip-up attempts.
constexpr int kMaxRipups = 8;

class Router {
 public:
  Router(const MappingProblem& problem, const Placement& placement,
         const RouterOptions& options)
      : problem_(problem), placement_(placement), options_(options),
        height_(problem.chip().height()) {
    const auto cells =
        static_cast<std::size_t>(problem.chip().width()) * static_cast<std::size_t>(height_);
    loads_.assign(cells, 0);
    used_.assign(cells, 0);
    blocked_.assign(cells, 0);
    congested_.assign(cells, 0);
    search_.assign(cells, SearchCell{});
    problem.pump_loads(placement).for_each(
        [this](const Point& cell, int load) { loads_[cell_index(cell)] = load; });
  }

  RoutingResult run() {
    RoutingResult result;
    std::vector<RoutedPath> plan = collect_transports();
    // Chronological routing mirrors assay execution.
    std::stable_sort(plan.begin(), plan.end(),
                     [](const RoutedPath& a, const RoutedPath& b) { return a.time < b.time; });

    for (RoutedPath& path : plan) {
      mark_obstacles(path);
      mark_congestion(path);
      bool routed = false;
      for (int attempt = 0; attempt <= kMaxRipups; ++attempt) {
        if (!dijkstra(path)) break;
        const int overfull = find_overfull_storage(path);
        if (overfull < 0) {
          routed = true;
          break;
        }
        // Rip-up & re-route (Algorithm 1 L14-L17): this path may no longer
        // pass the overfull storage at all.
        block(placement_[static_cast<std::size_t>(overfull)].footprint());
        ++result.rip_ups;
      }
      if (!routed) {
        result.failure = path.label;
        log_warn("router: cannot route ", path.label);
        return result;
      }
      for (const Point& cell : path.cells) {
        const std::size_t c = cell_index(cell);
        used_[c] = 1;
        loads_[c] += 2;  // control actuations: open + close per transport
      }
      result.total_cells += path.length();
      routed_.push_back(std::move(path));  // visible to later congestion checks
    }
    result.paths = std::move(routed_);
    result.success = true;
    return result;
  }

  long searches() const { return searches_; }
  long settled() const { return settled_; }

 private:
  /// Per-search state of one cell.  A field is current only when its stamp
  /// equals the search's, so a new search clears nothing.
  struct SearchCell {
    std::uint32_t labelled = 0;  ///< search that labelled the cell
    std::uint32_t target = 0;    ///< search for which it is a usable target
    int prev = -1;               ///< predecessor cell, -1 at a source
  };

  /// Queue entry.  Distinct cells never compare equal, because the cell
  /// index orders cells like (x, y).
  struct QueueEntry {
    double dist;
    int cell;
  };

  /// Flat index of a chip cell, column-major, so that index order is
  /// (x, y) order: the queue's tie-break.
  std::size_t cell_index(const Point& p) const {
    return static_cast<std::size_t>(p.x) * static_cast<std::size_t>(height_) +
           static_cast<std::size_t>(p.y);
  }
  Point cell_point(int cell) const { return Point{cell / height_, cell % height_}; }

  /// The circulation ring of a task's device, appended to `out`: any ring
  /// cell may serve as a port thanks to valve role changing.
  void append_terminals(int task, std::vector<Point>& out) const {
    placement_[static_cast<std::size_t>(task)].footprint().for_each_ring_cell(
        [&out](const Point& cell) { out.push_back(cell); });
  }

  std::vector<RoutedPath> collect_transports() const {
    std::vector<RoutedPath> plan;
    const auto& graph = problem_.graph();
    const auto& schedule = problem_.schedule();
    for (int i = 0; i < problem_.task_count(); ++i) {
      const synth::MappingTask& task = problem_.task(i);
      const Operation& op = graph.op(task.op);
      for (const OpId parent : op.parents) {
        const Operation& producer = graph.op(parent);
        RoutedPath path;
        path.task = i;
        if (producer.kind == OpKind::kInput) {
          path.kind = TransportKind::kFill;
          path.time = task.start;
          path.source_input = producer.id;
          path.label = "fill " + producer.name + " -> " + task.name;
        } else {
          path.kind = TransportKind::kTransfer;
          path.source_task = problem_.task_of(parent);
          // Routed at product-arrival time: the mapping constraints
          // guarantee the consumer's storage region is clear of any device
          // still live at this instant (its storage window has opened).
          path.time = schedule.arrival_from(parent);
          path.label = "transfer " + producer.name + " -> " + task.name;
        }
        plan.push_back(std::move(path));
      }
      // Terminal products leave through the waste/collection port.
      const bool has_device_consumer =
          std::any_of(graph.children(task.op).begin(), graph.children(task.op).end(),
                      [&](OpId child) { return problem_.task_of(child) >= 0; });
      if (!has_device_consumer) {
        RoutedPath path;
        path.kind = TransportKind::kDrain;
        path.task = i;
        path.time = schedule.end_of(task.op);
        path.label = "drain " + task.name + " -> out";
        plan.push_back(std::move(path));
      }
    }
    return plan;
  }

  void block(const Rect& area) {
    for (int x = area.left(); x < area.right(); ++x) {
      for (int y = area.bottom(); y < area.top(); ++y) blocked_[cell_index(Point{x, y})] = 1;
    }
  }

  /// Fills the obstacle map for one transport.  Dead valves and the
  /// footprints of foreign devices live at its time are walls.  A cell may
  /// lie inside several footprints (storages overlap their parent devices);
  /// one live device is enough to block it.  A foreign storage-phase device
  /// blocks only its enclosed interior: its ring stays passable while free
  /// space allows (find_overfull_storage).
  void mark_obstacles(const RoutedPath& path) {
    std::fill(blocked_.begin(), blocked_.end(), 0);
    for (const Point& cell : problem_.dead_valves()) blocked_[cell_index(cell)] = 1;
    for (int j = 0; j < problem_.task_count(); ++j) {
      if (j == path.task || j == path.source_task) continue;
      const synth::MappingTask& other = problem_.task(j);
      const Rect footprint = placement_[static_cast<std::size_t>(j)].footprint();
      if (path.time >= other.start && path.time < other.release) {
        block(footprint);
      } else if (path.time >= other.storage_from && path.time < other.start) {
        block(footprint.inflated(-1));  // the interior; empty for 2-wide shapes
      }
    }
  }

  /// Fills the congestion map: the cells of routed paths whose transport
  /// window overlaps this one's.
  void mark_congestion(const RoutedPath& path) {
    std::fill(congested_.begin(), congested_.end(), 0);
    for (const RoutedPath& other : routed_) {
      if (!times_overlap(path, other)) continue;
      for (const Point& cell : other.cells) congested_[cell_index(cell)] = 1;
    }
  }

  bool times_overlap(const RoutedPath& a, const RoutedPath& b) const {
    const int delay = problem_.schedule().transport_delay;
    return a.time < b.time + delay && b.time < a.time + delay;
  }

  /// Pushes a cell labelled at `dist` onto the search queue.
  void push(double dist, std::size_t cell) {
    queue_.push_back({dist, static_cast<int>(cell)});
    std::push_heap(queue_.begin(), queue_.end(), later);
  }
  static bool later(const QueueEntry& a, const QueueEntry& b) {
    return a.dist != b.dist ? a.dist > b.dist : a.cell > b.cell;
  }

  /// Dijkstra from the path's source terminals to its target terminals over
  /// the current obstacle and congestion maps.  A step costs what the cell
  /// entered costs, at least 0.1, so the first label a cell gets is final
  /// (see the Router section of docs/architecture.md): every cell is
  /// labelled and queued at most once, and nothing is re-labelled.
  bool dijkstra(RoutedPath& path) {
    ++searches_;
    ++stamp_;
    const auto& chip = problem_.chip();
    sources_.clear();
    targets_.clear();
    switch (path.kind) {
      case TransportKind::kFill: {
        // Honour a port assignment when one names this fill's fluid.
        int pinned = -1;
        if (path.source_input.valid() && !options_.port_of_fluid.empty()) {
          const auto it =
              options_.port_of_fluid.find(problem_.graph().op(path.source_input).name);
          if (it != options_.port_of_fluid.end()) pinned = it->second;
        }
        int input_index = 0;
        for (const arch::ChipPort& port : chip.ports()) {
          if (!port.is_input) continue;
          if (pinned < 0 || input_index == pinned) sources_.push_back(port.cell);
          ++input_index;
        }
        append_terminals(path.task, targets_);
        break;
      }
      case TransportKind::kTransfer:
        append_terminals(path.source_task, sources_);
        append_terminals(path.task, targets_);
        break;
      case TransportKind::kDrain:
        append_terminals(path.task, sources_);
        targets_.push_back(chip.output_port().cell);
        break;
    }
    require(!sources_.empty() && !targets_.empty(), "transport without terminals");

    // A terminal buried under a foreign live device is unusable — e.g. the
    // part of a storage ring still covered by the other parent's mixer.
    bool any_target = false;
    for (const Point& t : targets_) {
      const std::size_t c = cell_index(t);
      if (blocked_[c]) continue;
      search_[c].target = stamp_;
      any_target = true;
    }
    if (!any_target) return false;
    // Trivial case: the regions touch (e.g. storage overlapping its parent).
    for (const Point& s : sources_) {
      if (search_[cell_index(s)].target == stamp_) {
        path.cells = {s};
        return true;
      }
    }

    queue_.clear();
    for (const Point& s : sources_) {
      const std::size_t c = cell_index(s);
      // A source terminal buried under a foreign live device is unusable.
      if (blocked_[c] || search_[c].labelled == stamp_) continue;
      search_[c].labelled = stamp_;
      search_[c].prev = -1;
      push(0.0, c);
    }
    if (queue_.empty()) return false;

    int reached = -1;
    while (!queue_.empty()) {
      std::pop_heap(queue_.begin(), queue_.end(), later);
      const QueueEntry top = queue_.back();
      queue_.pop_back();
      ++settled_;
      if (search_[static_cast<std::size_t>(top.cell)].target == stamp_) {
        reached = top.cell;
        break;
      }
      for (const Point& next : orthogonal_neighbours(cell_point(top.cell))) {
        if (!chip.bounds().contains(next)) continue;
        const std::size_t c = cell_index(next);
        if (blocked_[c] || search_[c].labelled == stamp_) continue;
        // Avoid hot valves: both peristaltic load and control actuations
        // already accumulated count, so the max-actuation objective is not
        // pushed up by routing.
        double step = 1.0 + (congested_[c] ? options_.congestion_penalty : 0.0) +
                      kPumpAvoidanceWeight * loads_[c];
        if (used_[c]) step -= kReuseDiscount;
        step = std::max(step, 0.1);
        search_[c].labelled = stamp_;
        search_[c].prev = top.cell;
        push(top.dist + step, c);
      }
    }
    if (reached < 0) return false;

    path.cells.clear();
    for (int cell = reached; cell >= 0; cell = search_[static_cast<std::size_t>(cell)].prev) {
      path.cells.push_back(cell_point(cell));
    }
    std::reverse(path.cells.begin(), path.cells.end());
    return true;
  }

  /// First storage whose free space is exceeded by this path, or -1.
  int find_overfull_storage(const RoutedPath& path) const {
    for (int j = 0; j < problem_.task_count(); ++j) {
      if (j == path.task || j == path.source_task) continue;
      const synth::MappingTask& other = problem_.task(j);
      if (path.time < other.storage_from || path.time >= other.start) continue;
      const DeviceInstance& device = placement_[static_cast<std::size_t>(j)];
      int crossed = 0;
      for (const Point& cell : path.cells) {
        if (device.footprint().contains(cell)) ++crossed;
      }
      if (crossed == 0) continue;
      const int free_space = other.volume - problem_.storage_occupied_before(j, path.time);
      if (crossed > free_space) return j;
    }
    return -1;
  }

  const MappingProblem& problem_;
  const Placement& placement_;
  RouterOptions options_;
  int height_;
  std::vector<RoutedPath> routed_;
  // Chip-sized maps, indexed by cell_index().
  std::vector<int> loads_;       ///< pump load plus control actuations so far
  std::vector<char> used_;       ///< cells of every path routed so far
  std::vector<char> blocked_;    ///< obstacle map at the transport's time
  std::vector<char> congested_;  ///< cells of routed paths overlapping in time
  // Search state, reused across searches; search_ is valid by stamp.
  std::vector<SearchCell> search_;
  std::uint32_t stamp_ = 0;
  std::vector<QueueEntry> queue_;
  std::vector<Point> sources_;
  std::vector<Point> targets_;
  long searches_ = 0;
  long settled_ = 0;
};

}  // namespace

RoutingResult route_all(const MappingProblem& problem, const Placement& placement,
                        const RouterOptions& options) {
  obs::Span span("route", "route_all");
  problem.validate_placement(placement);
  const auto& ports = problem.chip().ports();
  const auto input_ports = std::count_if(ports.begin(), ports.end(),
                                         [](const arch::ChipPort& port) { return port.is_input; });
  for (const auto& [fluid, port] : options.port_of_fluid) {
    check_input(port >= 0 && port < input_ports,
                "input port " + std::to_string(port) + " for fluid '" + fluid +
                    "' is out of range: the chip has " + std::to_string(input_ports) +
                    " input ports");
  }
  Router router(problem, placement, options);
  RoutingResult result = router.run();
  if (span.active()) {
    span.arg("success", result.success);
    span.arg("paths", result.paths.size());
    span.arg("cells", result.total_cells);
    span.arg("rip_ups", result.rip_ups);
    span.arg("searches", router.searches());
    span.arg("settled", router.settled());
  }
  return result;
}

void validate_routing(const MappingProblem& problem, const Placement& placement,
                      const RoutingResult& routing) {
  require(routing.success, "cannot validate a failed routing");
  const auto& chip = problem.chip();
  for (const RoutedPath& path : routing.paths) {
    require(!path.cells.empty(), "empty path: " + path.label);
    for (std::size_t i = 0; i < path.cells.size(); ++i) {
      require(chip.bounds().contains(path.cells[i]), "path leaves the chip: " + path.label);
      require(!problem.is_dead(path.cells[i]),
              "path crosses a worn-out valve: " + path.label);
      if (i > 0) {
        require(manhattan_distance(path.cells[i - 1], path.cells[i]) == 1,
                "path not connected: " + path.label);
      }
    }

    // Endpoint legality.
    auto on_ring = [&](int task, const Point& cell) {
      const auto ring = placement[static_cast<std::size_t>(task)].pump_cells();
      return std::find(ring.begin(), ring.end(), cell) != ring.end();
    };
    const Point& first = path.cells.front();
    const Point& last = path.cells.back();
    switch (path.kind) {
      case TransportKind::kFill: {
        bool from_port = false;
        for (const arch::ChipPort& port : chip.ports()) {
          if (port.is_input && port.cell == first) from_port = true;
        }
        require(from_port, "fill does not start at an input port: " + path.label);
        require(on_ring(path.task, last), "fill does not end at the device: " + path.label);
        break;
      }
      case TransportKind::kTransfer:
        require(on_ring(path.source_task, first),
                "transfer does not start at the producer: " + path.label);
        require(on_ring(path.task, last), "transfer does not end at the consumer: " + path.label);
        break;
      case TransportKind::kDrain:
        require(on_ring(path.task, first), "drain does not start at the device: " + path.label);
        require(last == chip.output_port().cell,
                "drain does not end at the output port: " + path.label);
        break;
    }

    // No live-device crossings; storage crossings within free space.
    for (int j = 0; j < problem.task_count(); ++j) {
      if (j == path.task || j == path.source_task) continue;
      const synth::MappingTask& other = problem.task(j);
      const Rect footprint = placement[static_cast<std::size_t>(j)].footprint();
      int crossed = 0;
      for (const Point& cell : path.cells) {
        if (footprint.contains(cell)) ++crossed;
      }
      if (crossed == 0) continue;
      const bool device_phase = path.time >= other.start && path.time < other.release;
      require(!device_phase, "path crosses live device '" + other.name + "': " + path.label);
      const bool storage_phase = path.time >= other.storage_from && path.time < other.start;
      if (storage_phase) {
        // Only the ring of a storage is passable; the enclosed interior
        // is not reachable.
        const auto interior = placement[static_cast<std::size_t>(j)].interior_cells();
        const bool enters_interior =
            std::any_of(path.cells.begin(), path.cells.end(), [&](const Point& cell) {
              return std::find(interior.begin(), interior.end(), cell) != interior.end();
            });
        require(!enters_interior,
                "path crosses the interior of storage '" + other.name + "': " + path.label);
        const int free_space = other.volume - problem.storage_occupied_before(j, path.time);
        require(crossed <= free_space,
                "path displaces more than the free space of storage '" + other.name +
                    "': " + path.label);
      }
    }
  }
}

}  // namespace fsyn::route
