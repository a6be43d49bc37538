#include "chdl/export.hpp"

#include <sstream>
#include <vector>

namespace atlantis::chdl {

const char* comp_kind_name(CompKind kind) {
  switch (kind) {
    case CompKind::kConst:
      return "const";
    case CompKind::kNot:
      return "not";
    case CompKind::kAnd:
      return "and";
    case CompKind::kOr:
      return "or";
    case CompKind::kXor:
      return "xor";
    case CompKind::kMux:
      return "mux";
    case CompKind::kMuxN:
      return "muxn";
    case CompKind::kAdd:
      return "add";
    case CompKind::kSub:
      return "sub";
    case CompKind::kEq:
      return "eq";
    case CompKind::kUlt:
      return "ult";
    case CompKind::kReduceAnd:
      return "rand";
    case CompKind::kReduceOr:
      return "ror";
    case CompKind::kReduceXor:
      return "rxor";
    case CompKind::kSlice:
      return "slice";
    case CompKind::kConcat:
      return "concat";
    case CompKind::kShl:
      return "shl";
    case CompKind::kShr:
      return "shr";
    case CompKind::kReg:
      return "reg";
    case CompKind::kRamRead:
      return "ram_read";
    case CompKind::kRamWrite:
      return "ram_write";
    case CompKind::kInput:
      return "input";
    case CompKind::kOutput:
      return "output";
  }
  return "?";
}

std::string export_netlist(const Design& d) {
  std::ostringstream os;
  os << "design " << d.name() << "\n";
  for (const RamBlock& r : d.rams()) {
    os << (r.writable ? "ram " : "rom ") << r.name << " : " << r.words << " x "
       << r.width << " @" << d.clock_name(ClockId{r.clock}) << "\n";
  }
  for (const Component& c : d.components()) {
    if (c.out.valid()) {
      os << "%" << c.out.id << " = ";
    }
    os << comp_kind_name(c.kind) << "(";
    bool first = true;
    for (const Wire w : c.in) {
      if (!first) os << ", ";
      first = false;
      if (w.valid()) {
        os << "%" << w.id;
      } else {
        os << "_";
      }
    }
    switch (c.kind) {
      case CompKind::kSlice:
        os << (first ? "" : ", ") << "lo=" << c.a;
        break;
      case CompKind::kShl:
      case CompKind::kShr:
        os << (first ? "" : ", ") << "n=" << c.a;
        break;
      case CompKind::kConst:
        os << "0b" << c.init.to_binary();
        break;
      case CompKind::kRamRead:
      case CompKind::kRamWrite:
        os << (first ? "" : ", ") << "ram=" << c.ram;
        break;
      default:
        break;
    }
    os << ")";
    if (c.out.valid()) os << " : " << c.out.width;
    if (!c.name.empty()) os << " \"" << c.name << "\"";
    if (c.kind == CompKind::kReg || c.kind == CompKind::kRamRead ||
        c.kind == CompKind::kRamWrite) {
      os << " @" << d.clock_name(ClockId{c.clock});
    }
    os << "\n";
  }
  return os.str();
}

const char* fused_op_name(FusedOp op) {
  switch (op) {
    case FusedOp::kNone:
      return "none";
    case FusedOp::kAndNot:
      return "andnot";
    case FusedOp::kOrNot:
      return "ornot";
    case FusedOp::kEqImm:
      return "eq_imm";
    case FusedOp::kNeImm:
      return "ne_imm";
    case FusedOp::kUltImm:
      return "ult_imm";
    case FusedOp::kImmUlt:
      return "imm_ult";
    case FusedOp::kAddImm:
      return "add_imm";
    case FusedOp::kSubImm:
      return "sub_imm";
    case FusedOp::kAndImm:
      return "and_imm";
    case FusedOp::kOrImm:
      return "or_imm";
    case FusedOp::kXorImm:
      return "xor_imm";
    case FusedOp::kSliceImm:
      return "slice_imm";
    case FusedOp::kAndBit:
      return "and_bit";
    case FusedOp::kSelect:
      return "select";
  }
  return "?";
}

namespace {

bool comb_kind(CompKind k) {
  switch (k) {
    case CompKind::kConst:
    case CompKind::kReg:
    case CompKind::kRamRead:
    case CompKind::kRamWrite:
    case CompKind::kInput:
    case CompKind::kOutput:
      return false;
    default:
      return true;
  }
}

}  // namespace

std::string export_netlist(const Design& d, const OptimizedNetlist& opt) {
  std::ostringstream os;
  os << "design " << d.name() << " (optimized)\n";
  for (const RamBlock& r : d.rams()) {
    os << (r.writable ? "ram " : "rom ") << r.name << " : " << r.words << " x "
       << r.width << " @" << d.clock_name(ClockId{r.clock}) << "\n";
  }
  const auto& comps = d.components();
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const Component& c = comps[i];
    if (c.out.valid()) {
      const auto id = static_cast<std::size_t>(c.out.id);
      if (opt.folded(c.out.id)) {
        os << "%" << c.out.id << " = const(0b"
           << opt.fold_value[id].to_binary() << ") : " << c.out.width
           << " ; folded " << comp_kind_name(c.kind) << "\n";
        continue;
      }
      if (opt.forward[id] != c.out.id) {
        os << "%" << c.out.id << " -> %" << opt.forward[id] << " ; alias "
           << comp_kind_name(c.kind) << "\n";
        continue;
      }
    }
    // DCE'd logic compiles onto no tape: omit it from the optimized view.
    if (comb_kind(c.kind) && !opt.comp_alive[i]) continue;

    const auto fused = opt.fused.find(static_cast<std::int32_t>(i));
    if (c.out.valid()) os << "%" << c.out.id << " = ";
    if (fused != opt.fused.end()) {
      const FusedComp& f = fused->second;
      os << fused_op_name(f.op) << "(%" << f.in0.id;
      if (f.op == FusedOp::kSelect) {
        // select(%addr, 0x2: %a, 0x5: %b, ..., else %default)
        for (std::size_t k = 0; k < f.keys.size(); ++k) {
          os << ", 0x" << std::hex << f.keys[k] << std::dec << ": %"
             << f.arms[k].id;
        }
        os << ", else %" << f.in1.id << ")";
      } else {
        if (f.in1.valid()) os << ", %" << f.in1.id;
        os << ", imm=0x" << std::hex << f.imm << std::dec << ")";
      }
    } else {
      os << comp_kind_name(c.kind) << "(";
      bool first = true;
      for (const Wire w : c.in) {
        if (!first) os << ", ";
        first = false;
        if (w.valid()) {
          os << "%" << opt.rep(w).id;
        } else {
          os << "_";
        }
      }
      switch (c.kind) {
        case CompKind::kSlice:
          os << (first ? "" : ", ") << "lo=" << c.a;
          break;
        case CompKind::kShl:
        case CompKind::kShr:
          os << (first ? "" : ", ") << "n=" << c.a;
          break;
        case CompKind::kConst:
          os << "0b" << c.init.to_binary();
          break;
        case CompKind::kRamRead:
        case CompKind::kRamWrite:
          os << (first ? "" : ", ") << "ram=" << c.ram;
          break;
        default:
          break;
      }
      os << ")";
    }
    if (c.out.valid()) os << " : " << c.out.width;
    if (!c.name.empty()) os << " \"" << c.name << "\"";
    if (c.kind == CompKind::kReg || c.kind == CompKind::kRamRead ||
        c.kind == CompKind::kRamWrite) {
      os << " @" << d.clock_name(ClockId{c.clock});
    }
    os << "\n";
  }
  return os.str();
}

std::string export_dot(const Design& d) {
  std::ostringstream os;
  os << "digraph \"" << d.name() << "\" {\n  rankdir=LR;\n";
  const auto& comps = d.components();
  // Producer component of each wire, for edge drawing.
  std::vector<std::int32_t> producer(static_cast<std::size_t>(d.wire_count()),
                                     -1);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(comps.size()); ++i) {
    if (comps[static_cast<std::size_t>(i)].out.valid()) {
      producer[static_cast<std::size_t>(
          comps[static_cast<std::size_t>(i)].out.id)] = i;
    }
  }
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(comps.size()); ++i) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    const char* shape = "ellipse";
    if (c.kind == CompKind::kReg || c.kind == CompKind::kRamRead ||
        c.kind == CompKind::kRamWrite) {
      shape = "box";
    } else if (c.kind == CompKind::kInput || c.kind == CompKind::kOutput) {
      shape = "diamond";
    }
    std::string label = comp_kind_name(c.kind);
    if (!c.name.empty()) label += "\\n" + c.name;
    os << "  n" << i << " [shape=" << shape << ", label=\"" << label
       << "\"];\n";
    for (const Wire w : c.in) {
      if (!w.valid()) continue;
      const std::int32_t p = producer[static_cast<std::size_t>(w.id)];
      if (p >= 0) {
        os << "  n" << p << " -> n" << i << " [label=\"" << w.width
           << "\"];\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace atlantis::chdl
