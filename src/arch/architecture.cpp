#include "arch/architecture.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace fsyn::arch {

Architecture::Architecture(int width, int height) : width_(width), height_(height) {
  check_input(width >= 4 && height >= 4, "valve matrix must be at least 4x4");
  // Default ports as in Fig. 10: in / in / out spread over the right edge.
  ports_ = {
      ChipPort{"in1", Point{width_ - 1, height_ - 1}, true},
      ChipPort{"in2", Point{width_ - 1, height_ / 2}, true},
      ChipPort{"out", Point{width_ - 1, 0}, false},
  };
}

const ChipPort& Architecture::input_port(int index) const {
  int seen = 0;
  for (const ChipPort& port : ports_) {
    if (port.is_input && seen++ == index) return port;
  }
  throw Error("no input port with index " + std::to_string(index));
}

const ChipPort& Architecture::output_port() const {
  for (const ChipPort& port : ports_) {
    if (!port.is_input) return port;
  }
  throw Error("architecture has no output port");
}

void Architecture::set_ports(std::vector<ChipPort> ports) {
  check_input(!ports.empty(), "at least one port required");
  for (const ChipPort& port : ports) {
    check_input(bounds().contains(port.cell), "port cell outside the valve matrix");
    const bool on_edge = port.cell.x == 0 || port.cell.x == width_ - 1 ||
                         port.cell.y == 0 || port.cell.y == height_ - 1;
    check_input(on_edge, "port '" + port.name + "' must sit on an edge cell");
  }
  ports_ = std::move(ports);
}

std::vector<Point> Architecture::placements_for(const DeviceType& type) const {
  std::vector<Point> origins;
  for (int y = 0; y + type.height <= height_; ++y) {
    for (int x = 0; x + type.width <= width_; ++x) {
      origins.push_back(Point{x, y});
    }
  }
  return origins;
}

Architecture Architecture::sized_for(const assay::SequencingGraph& graph,
                                     const sched::Schedule& schedule, double slack) {
  check_input(slack > 0.0, "slack must be positive");
  // Every mix/detect operation occupies its device or in-situ storage over
  // [begin, end) with its (footprint + wall margin) area.
  struct Occupancy {
    int begin, end, area;
  };
  std::vector<Occupancy> occupancies;
  for (const assay::Operation& op : graph.operations()) {
    if (op.kind != assay::OpKind::kMix && op.kind != assay::OpKind::kDetect) continue;
    const int begin = std::min(schedule.earliest_product_arrival(op.id),
                               schedule.start_of(op.id));
    const int end = schedule.end_of(op.id) + schedule.transport_delay;
    if (begin >= end) continue;
    const int volume = std::max(op.volume, 4);
    // Squarest shape for this volume, inflated by the 1-cell wall ring.
    const DeviceType type = device_types_for_volume(volume).front();
    occupancies.push_back({begin, end, (type.width + 1) * (type.height + 1)});
  }
  // Demand at time t: the summed area of the occupancies live at t.
  int max_demand = 0;
  const int horizon = schedule.makespan();
  for (int t = 0; t <= horizon; ++t) {
    int demand = 0;
    for (const Occupancy& o : occupancies) {
      if (t >= o.begin && t < o.end) demand += o.area;
    }
    max_demand = std::max(max_demand, demand);
  }
  const int side = std::max(
      8, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(max_demand) * slack))));
  return Architecture(side, side);
}

}  // namespace fsyn::arch
