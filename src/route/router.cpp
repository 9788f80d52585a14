#include "route/router.hpp"

#include <algorithm>
#include <limits>
#include <queue>

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

class Router {
 public:
  Router(const MappingProblem& problem, const Placement& placement,
         const RouterOptions& options)
      : problem_(problem), placement_(placement), options_(options),
        pump_loads_(problem.pump_loads(placement)),
        control_loads_(problem.chip().width(), problem.chip().height(), 0),
        used_(problem.chip().width(), problem.chip().height(), 0),
        blocked_(problem.chip().width(), problem.chip().height(), 0),
        congested_(problem.chip().width(), problem.chip().height(), 0),
        target_(problem.chip().width(), problem.chip().height(), 0),
        dist_(problem.chip().width(), problem.chip().height(), 0.0),
        prev_(problem.chip().width(), problem.chip().height(), Point{-1, -1}) {}

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
      for (int attempt = 0; attempt <= options_.max_ripups; ++attempt) {
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
      routed_.push_back(path);  // visible to later congestion checks
      for (const Point& cell : path.cells) {
        used_.at(cell) = 1;
        control_loads_.at(cell) += 2;  // open + close per transport
      }
      result.total_cells += path.length();
    }
    result.paths = routed_;
    result.success = true;
    return result;
  }

 private:
  /// Terminal cells of a task's device: the circulation ring (any ring cell
  /// may serve as a port thanks to valve role changing).
  std::vector<Point> terminals(int task) const {
    return placement_[static_cast<std::size_t>(task)].pump_cells();
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
    for (int y = area.bottom(); y < area.top(); ++y) {
      for (int x = area.left(); x < area.right(); ++x) blocked_.at(x, y) = 1;
    }
  }

  /// Fills the obstacle map for one transport.  Dead valves and the
  /// footprints of foreign devices live at its time are walls.  A cell may
  /// lie inside several footprints (storages overlap their parent devices);
  /// one live device is enough to block it.  A foreign storage-phase device
  /// blocks only its enclosed interior: its ring stays passable while free
  /// space allows (find_overfull_storage).
  void mark_obstacles(const RoutedPath& path) {
    blocked_.fill(0);
    for (const Point& cell : problem_.dead_valves()) blocked_.at(cell) = 1;
    for (int j = 0; j < problem_.task_count(); ++j) {
      if (j == path.task || j == path.source_task) continue;
      const synth::MappingTask& other = problem_.task(j);
      const DeviceInstance& device = placement_[static_cast<std::size_t>(j)];
      if (path.time >= other.start && path.time < other.release) {
        block(device.footprint());
      } else if (path.time >= other.storage_from && path.time < other.start) {
        for (const Point& cell : device.interior_cells()) blocked_.at(cell) = 1;
      }
    }
  }

  /// Fills the congestion map: the cells of routed paths whose transport
  /// window overlaps this one's.
  void mark_congestion(const RoutedPath& path) {
    congested_.fill(0);
    for (const RoutedPath& other : routed_) {
      if (!times_overlap(path, other)) continue;
      for (const Point& cell : other.cells) congested_.at(cell) = 1;
    }
  }

  bool times_overlap(const RoutedPath& a, const RoutedPath& b) const {
    const int delay = problem_.schedule().transport_delay;
    return a.time < b.time + delay && b.time < a.time + delay;
  }

  /// Dijkstra from the path's source terminals to its target terminals over
  /// the current obstacle and congestion maps.
  bool dijkstra(RoutedPath& path) {
    const auto& chip = problem_.chip();
    std::vector<Point> sources, targets;
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
          if (pinned < 0 || input_index == pinned) sources.push_back(port.cell);
          ++input_index;
        }
        targets = terminals(path.task);
        break;
      }
      case TransportKind::kTransfer:
        sources = terminals(path.source_task);
        targets = terminals(path.task);
        break;
      case TransportKind::kDrain:
        sources = terminals(path.task);
        targets.push_back(chip.output_port().cell);
        break;
    }
    require(!sources.empty() && !targets.empty(), "transport without terminals");

    // A terminal buried under a foreign live device is unusable — e.g. the
    // part of a storage ring still covered by the other parent's mixer.
    target_.fill(0);
    bool any_target = false;
    for (const Point& t : targets) {
      if (blocked_.at(t)) continue;
      target_.at(t) = 1;
      any_target = true;
    }
    if (!any_target) return false;
    // Trivial case: the regions touch (e.g. storage overlapping its parent).
    for (const Point& s : sources) {
      if (target_.at(s)) {
        path.cells = {s};
        return true;
      }
    }

    // Both grids are reset: a stale `prev_` link would lead the walk back
    // from `reached` past a source of this search.
    dist_.fill(std::numeric_limits<double>::infinity());
    prev_.fill(Point{-1, -1});
    using Entry = std::pair<double, Point>;
    auto cmp = [](const Entry& a, const Entry& b) {
      return a.first != b.first ? a.first > b.first
                                : std::tie(a.second.x, a.second.y) >
                                      std::tie(b.second.x, b.second.y);
    };
    std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> queue(cmp);
    for (const Point& s : sources) {
      // A source terminal buried under a foreign live device is unusable.
      if (blocked_.at(s)) continue;
      dist_.at(s) = 0.0;
      queue.push({0.0, s});
    }
    if (queue.empty()) return false;

    Point reached{-1, -1};
    while (!queue.empty()) {
      const auto [d, cell] = queue.top();
      queue.pop();
      if (d > dist_.at(cell)) continue;
      if (target_.at(cell)) {
        reached = cell;
        break;
      }
      for (const Point& next : orthogonal_neighbours(cell)) {
        if (!chip.bounds().contains(next) || blocked_.at(next)) continue;
        // Avoid hot valves: both peristaltic load and control actuations
        // already accumulated count, so the max-actuation objective is not
        // pushed up by routing.
        double step = 1.0 + (congested_.at(next) ? options_.congestion_penalty : 0.0) +
                      options_.pump_avoidance_weight *
                          (pump_loads_.at(next) + control_loads_.at(next));
        if (used_.at(next)) step -= options_.reuse_discount;
        step = std::max(step, 0.1);
        if (dist_.at(cell) + step < dist_.at(next)) {
          dist_.at(next) = dist_.at(cell) + step;
          prev_.at(next) = cell;
          queue.push({dist_.at(next), next});
        }
      }
    }
    if (reached.x < 0) return false;

    path.cells.clear();
    for (Point cell = reached; cell.x >= 0; cell = prev_.at(cell)) {
      path.cells.push_back(cell);
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
  Grid<int> pump_loads_;
  Grid<int> control_loads_;
  std::vector<RoutedPath> routed_;
  Grid<char> used_;       ///< cells of every path routed so far
  // Per-search state, refilled for each transport and reused across searches.
  Grid<char> blocked_;    ///< obstacle map at the transport's time
  Grid<char> congested_;  ///< cells of routed paths overlapping in time
  Grid<char> target_;     ///< usable target terminals
  Grid<double> dist_;
  Grid<Point> prev_;
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
        require(from_port || path.cells.size() == 1, "fill does not start at an input port: " + path.label);
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
