// JSON export of synthesis results, for downstream tooling (chip-control
// software, layout viewers, CI dashboards).
//
// The document carries everything a consumer needs to drive or inspect the
// chip: matrix dimensions, ports, per-task device placements with their
// time windows, routed paths, the per-valve actuation grids of both
// settings, and the headline metrics.  A small self-contained writer — no
// third-party JSON dependency — with escaping for names from user assays.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/actuation.hpp"
#include "synth/synthesis.hpp"

namespace fsyn::report {

/// Serializes the full synthesis result.  `problem` must be the mapping
/// problem the result was produced from (same chip dimensions).
std::string to_json(const synth::MappingProblem& problem,
                    const synth::SynthesisResult& result);

/// Writes `to_json` output to `path`; throws fsyn::Error on I/O failure.
void write_json(const std::string& path, const synth::MappingProblem& problem,
                const synth::SynthesisResult& result);

/// Writes `grid` as a JSON array of rows, row y = 0 first (shared with
/// result_io's `--out` document).
void emit_grid(std::ostream& os, const Grid<int>& grid);

}  // namespace fsyn::report
