// Routing between devices and chip ports (paper Section 3.5).
//
// Three kinds of transport are routed with Dijkstra's algorithm on the
// valve matrix:
//   * fill:      chip input port  -> device, for every input parent
//   * transfer:  parent device    -> child device / in-situ storage
//   * drain:     terminal device  -> chip output port
//
// Obstacles are dead valves and the footprints of devices live at the
// transport time.  In-situ storages with enough free space may be passed
// through on their ring (Fig. 8b); the enclosed interior is never reachable.
// When a path would displace more volume than the storage has free, the
// storage becomes an obstacle and the path is ripped up and re-routed
// (Algorithm 1 L14-L17).  Crossings between temporally overlapping paths
// are discouraged by a congestion cost so samples can move in parallel.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "synth/mapping_problem.hpp"

namespace fsyn::route {

enum class TransportKind { kFill, kTransfer, kDrain };

const char* to_string(TransportKind kind);

struct RoutedPath {
  TransportKind kind = TransportKind::kTransfer;
  int task = -1;          ///< destination task (fill/transfer) or source task (drain)
  int source_task = -1;   ///< producing task for transfers, -1 otherwise
  assay::OpId source_input;  ///< the input operation, for fills only
  std::string label;
  int time = 0;           ///< tu at which the transport happens
  std::vector<Point> cells;  ///< connected cell sequence incl. both endpoints

  int length() const { return static_cast<int>(cells.size()); }
};

struct RouterOptions {
  /// Extra cost on cells already used by a temporally overlapping path.
  double congestion_penalty = 8.0;
  /// Optional input-port pinning (see route/port_assignment.hpp): fills of
  /// the named input fluid may only start at the given input-port index,
  /// which must lie in [0, number of input ports).  Empty = any input port
  /// (the paper's free-manipulation assumption).
  std::map<std::string, int> port_of_fluid;
};

struct RoutingResult {
  std::vector<RoutedPath> paths;
  bool success = false;
  int total_cells = 0;
  int rip_ups = 0;
  std::string failure;  ///< label of the first unroutable transport
};

/// Routes every transport of the mapped assay.  `placement` must be a valid
/// placement for `problem`.  Throws fsyn::Error when a `port_of_fluid`
/// index names no input port of the chip.
RoutingResult route_all(const synth::MappingProblem& problem,
                        const synth::Placement& placement, const RouterOptions& options = {});

/// Validates a routing result: paths are connected, stay on the chip, end
/// at legal terminals, and never cross a live device's footprint except via
/// a storage's ring with free space.  Re-derives every rule from the problem
/// and placement alone.  Throws fsyn::LogicError on violation.
void validate_routing(const synth::MappingProblem& problem, const synth::Placement& placement,
                      const RoutingResult& routing);

}  // namespace fsyn::route
