// Netlist resource estimation.
//
// ATLANTIS sizes designs against FPGAs "with more than 100k gates and
// 400 I/O pins per chip" (ORCA 3T125: ~186k average gates, 422 used I/O
// on the ACB). This report counts gate equivalents with the conventional
// marketing-gate model of the era so that fit checks against those
// published budgets are meaningful.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chdl/design.hpp"

namespace atlantis::chdl {

struct NetlistStats {
  std::string design_name;
  std::int64_t components = 0;
  std::int64_t gate_equivalents = 0;  // combinational + register gates
  std::int64_t flipflops = 0;         // register bits
  std::int64_t lut4_estimate = 0;     // ~4 gate equivalents per LUT4
  std::int64_t ram_bits = 0;          // block/external memory bits
  std::int64_t io_pins = 0;           // top-level port bits
  std::int64_t wires = 0;
  std::int64_t comb_components = 0;   // evaluated per full-sweep pass
  std::int64_t comb_levels = 0;       // levelization depth (critical path)
  double mean_fanout = 0.0;           // avg comb consumers per driven wire

  std::string to_string() const;
};

/// Walks the netlist and accumulates the resource model:
///   and/or/not: 1 gate/bit        xor: 3 gates/bit
///   mux2: 3 gates/bit             add/sub: 6 gates/bit
///   eq: 3 gates/bit + tree        ult: 6 gates/bit
///   reductions: 1-3 gates/bit     register: 8 gates/bit (counted as FF too)
///   slice/concat/const shifts: 0 (wiring only)
///   RAM ports: width gates of addressing/steering; contents in ram_bits
///
/// analyze() always sees the netlist as elaborated — the simulator-side
/// optimizer (chdl/optimize.hpp) never mutates the Design, so gate/fit
/// budget checks (bench_a4) are unaffected by simulation options.
NetlistStats analyze(const Design& design);

/// Live-op accounting for one optimizer pass (see chdl/optimize.hpp).
/// `ops_before`/`ops_after` count combinational ops still bound for the
/// simulator's op tape when the pass starts/finishes (a pass's "after"
/// includes the dead-logic sweep that cleans up its orphans);
/// `rewrites` counts the pass's own transformations (folds + identity
/// aliases, removals, merges, fusions respectively).
struct OptimizePassStats {
  std::string name;
  std::int64_t ops_before = 0;
  std::int64_t ops_after = 0;
  std::int64_t rewrites = 0;
};

/// Per-pass op counts for one optimizer run, reported in pipeline order
/// (fold, dce, cse, fuse).
struct OptimizeReport {
  std::vector<OptimizePassStats> passes;
  std::int64_t ops_before = 0;      // comb ops entering the pipeline
  std::int64_t ops_after = 0;       // comb ops compiled onto the tape
  std::int64_t wires_aliased = 0;   // wires forwarded to a representative
  std::int64_t wires_folded = 0;    // wires pinned to a constant

  const OptimizePassStats* pass(const std::string& name) const;
  std::string to_string() const;
};

}  // namespace atlantis::chdl
