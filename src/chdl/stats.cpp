#include "chdl/stats.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace atlantis::chdl {

NetlistStats analyze(const Design& design) {
  NetlistStats s;
  s.design_name = design.name();
  s.wires = design.wire_count();
  for (const Component& c : design.components()) {
    ++s.components;
    const int w = c.out.valid() ? c.out.width : 0;
    switch (c.kind) {
      case CompKind::kNot:
      case CompKind::kAnd:
      case CompKind::kOr:
        s.gate_equivalents += w;
        break;
      case CompKind::kXor:
        s.gate_equivalents += 3LL * w;
        break;
      case CompKind::kMux:
        s.gate_equivalents += 3LL * w;
        break;
      case CompKind::kMuxN:
        s.gate_equivalents +=
            3LL * w * static_cast<std::int64_t>(c.in.size() - 1);
        break;
      case CompKind::kAdd:
      case CompKind::kSub:
        s.gate_equivalents += 6LL * w;
        break;
      case CompKind::kEq:
        s.gate_equivalents += 3LL * c.in[0].width + (c.in[0].width - 1);
        break;
      case CompKind::kUlt:
        s.gate_equivalents += 6LL * c.in[0].width;
        break;
      case CompKind::kReduceAnd:
      case CompKind::kReduceOr:
        s.gate_equivalents += c.in[0].width - 1;
        break;
      case CompKind::kReduceXor:
        s.gate_equivalents += 3LL * (c.in[0].width - 1);
        break;
      case CompKind::kReg:
        s.gate_equivalents += 8LL * w;
        s.flipflops += w;
        break;
      case CompKind::kRamRead:
      case CompKind::kRamWrite:
        s.gate_equivalents += c.in[0].width;  // address steering
        break;
      case CompKind::kInput:
        s.io_pins += w;
        break;
      case CompKind::kOutput:
        s.io_pins += c.in[0].width;
        break;
      default:
        break;  // const / wiring-only kinds
    }
  }
  for (const RamBlock& r : design.rams()) {
    s.ram_bits += r.words * static_cast<std::int64_t>(r.width);
  }
  s.lut4_estimate = (s.gate_equivalents - 8 * s.flipflops) / 4;

  // Levelization / fanout summary: what the simulator's incremental
  // dirty worklist is shaped by. Level of a comb component = 1 + max
  // level of its comb producers; consumers per wire feed mean_fanout.
  std::vector<std::int64_t> level_of_wire(
      static_cast<std::size_t>(design.wire_count()), 0);
  std::vector<std::int64_t> consumers(
      static_cast<std::size_t>(design.wire_count()), 0);
  std::int64_t driven_wires = 0;
  std::int64_t fanout_edges = 0;
  for (const Component& c : design.components()) {
    switch (c.kind) {
      case CompKind::kReg:
      case CompKind::kRamRead:
      case CompKind::kRamWrite:
      case CompKind::kInput:
      case CompKind::kConst:
      case CompKind::kOutput:
        break;
      default: {
        ++s.comb_components;
        std::int64_t lvl = 1;
        for (const Wire w : c.in) {
          if (!w.valid()) continue;
          lvl = std::max(lvl,
                         level_of_wire[static_cast<std::size_t>(w.id)] + 1);
          ++consumers[static_cast<std::size_t>(w.id)];
          ++fanout_edges;
        }
        if (c.out.valid()) {
          level_of_wire[static_cast<std::size_t>(c.out.id)] = lvl;
        }
        s.comb_levels = std::max(s.comb_levels, lvl);
        break;
      }
    }
  }
  for (const std::int64_t n : consumers) {
    if (n > 0) ++driven_wires;
  }
  s.mean_fanout = driven_wires > 0
                      ? static_cast<double>(fanout_edges) /
                            static_cast<double>(driven_wires)
                      : 0.0;
  return s;
}

std::string NetlistStats::to_string() const {
  std::ostringstream os;
  os << "design '" << design_name << "': " << components << " components, "
     << gate_equivalents << " gate-eq, " << flipflops << " FF, ~"
     << lut4_estimate << " LUT4, " << ram_bits << " RAM bits, " << io_pins
     << " I/O pins, " << wires << " wires, " << comb_levels
     << " comb levels";
  return os.str();
}

}  // namespace atlantis::chdl
