// Netlist export: a structural text format (for diffing and inspection)
// and Graphviz DOT (for visualizing generated designs). The real CHDL
// emitted vendor netlists for the ORCA/Virtex place-and-route flows; the
// text format here plays that role for the simulated devices and is
// stable enough to snapshot-test generated structure.
#pragma once

#include <iosfwd>
#include <string>

#include "chdl/design.hpp"
#include "chdl/optimize.hpp"

namespace atlantis::chdl {

/// Structural netlist, one component per line:
///   %12 = and(%3, %7) : 8
///   %15 = reg(%12, en=%4) : 8 "hist/cnt3" @clk
std::string export_netlist(const Design& design);

/// Post-optimizer view of the same netlist: surviving combinational
/// components with their forwarded inputs and fused opcode mnemonics
/// (a table select lists its `key: %arm` pairs and `else %default`),
/// folded wires printed as constants, aliased wires as `%a -> %b`
/// forwarding lines, and DCE'd logic omitted. This is what the
/// simulator's op tape is compiled from; `export_netlist(design)` above
/// remains the as-elaborated structure bench_a4's fit numbers use.
std::string export_netlist(const Design& design, const OptimizedNetlist& opt);

/// Fused opcode mnemonics used by the optimized exporter.
const char* fused_op_name(FusedOp op);

/// Graphviz DOT of the component graph. Sequential elements are drawn
/// as boxes, combinational logic as ellipses, ports as diamonds.
std::string export_dot(const Design& design);

/// Component kind mnemonics used by both exporters.
const char* comp_kind_name(CompKind kind);

}  // namespace atlantis::chdl
