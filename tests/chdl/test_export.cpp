#include "chdl/export.hpp"

#include <gtest/gtest.h>

#include <string>

#include "chdl/builder.hpp"

namespace atlantis::chdl {
namespace {

Design make_sample() {
  Design d("sample");
  const Wire a = d.input("a", 8);
  const Wire b = d.input("b", 8);
  const Wire sum = d.add(a, b);
  d.output("q", d.reg("acc", sum));
  d.add_rom("lut", {BitVec(4, 1), BitVec(4, 2)});
  return d;
}

TEST(Export, NetlistContainsEveryComponent) {
  const Design d = make_sample();
  const std::string text = export_netlist(d);
  EXPECT_NE(text.find("design sample"), std::string::npos);
  EXPECT_NE(text.find("input()"), std::string::npos);
  EXPECT_NE(text.find("add(%"), std::string::npos);
  EXPECT_NE(text.find("reg(%"), std::string::npos);
  EXPECT_NE(text.find("\"acc\""), std::string::npos);
  EXPECT_NE(text.find("@clk"), std::string::npos);
  EXPECT_NE(text.find("rom lut : 2 x 4"), std::string::npos);
}

TEST(Export, NetlistIsDeterministic) {
  const Design d = make_sample();
  EXPECT_EQ(export_netlist(d), export_netlist(d));
}

TEST(Export, ConstEmbedsValue) {
  Design d("c");
  d.output("y", d.constant(BitVec::from_binary("1010")));
  EXPECT_NE(export_netlist(d).find("const(0b1010)"), std::string::npos);
}

TEST(Export, SliceAndShiftShowParameters) {
  Design d("s");
  const Wire a = d.input("a", 16);
  d.output("s", d.slice(a, 4, 8));
  d.output("l", d.shl(a, 3));
  const std::string text = export_netlist(d);
  EXPECT_NE(text.find("lo=4"), std::string::npos);
  EXPECT_NE(text.find("n=3"), std::string::npos);
}

// The optimized view prints a select's whole table, not just its first
// two operands, and names the fused and-over-bit gate.
TEST(Export, OptimizedNetlistListsSelectTableAndBitGates) {
  Design d("sel");
  const Wire addr = d.input("addr", 4);
  const Wire a = d.input("a", 8);
  const Wire b = d.input("b", 8);
  const Wire zero = d.constant(8, 0);
  const Wire chain = d.mux(eq_const(d, addr, 0xB), b,
                           d.mux(eq_const(d, addr, 2), a, zero));
  d.output("y", chain);
  const Wire en = d.input("en", 1);
  const Wire row = d.input("row", 130);
  const Wire gate = d.band(en, d.bit(row, 129));
  d.output("g", gate);

  const std::string text = export_netlist(d, optimize(d));
  const auto id = [](Wire w) { return "%" + std::to_string(w.id); };
  EXPECT_NE(text.find(id(chain) + " = select(" + id(addr) + ", 0x2: " +
                      id(a) + ", 0xb: " + id(b) + ", else " + id(zero) +
                      ") : 8"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(id(gate) + " = and_bit(" + id(en) + ", " + id(row) +
                      ", imm=0x81) : 1"),
            std::string::npos)
      << text;
  EXPECT_STREQ(fused_op_name(FusedOp::kSelect), "select");
  EXPECT_STREQ(fused_op_name(FusedOp::kAndBit), "and_bit");
}

TEST(Export, DotHasNodesAndEdges) {
  const Design d = make_sample();
  const std::string dot = export_dot(d);
  EXPECT_NE(dot.find("digraph \"sample\""), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // the register
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);  // ports
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("label=\"8\""), std::string::npos);    // bus width
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Export, KindNamesCoverAllKinds) {
  // Spot check a few; the exporter would print "?" for gaps.
  EXPECT_STREQ(comp_kind_name(CompKind::kMuxN), "muxn");
  EXPECT_STREQ(comp_kind_name(CompKind::kReduceXor), "rxor");
  EXPECT_STREQ(comp_kind_name(CompKind::kRamWrite), "ram_write");
}

TEST(Export, GeneratedDesignSnapshotIsStable) {
  // A regression guard for the builder: the exported structure of a
  // known generator must not silently change shape.
  Design d("cnt");
  const Wire en = d.input("en", 1);
  d.output("q", counter(d, "c", 4, en));
  const std::string text = export_netlist(d);
  // One register, one adder, one constant, the ports.
  EXPECT_NE(text.find("reg("), std::string::npos);
  EXPECT_NE(text.find("add("), std::string::npos);
  EXPECT_EQ(text.find("mux("), std::string::npos);  // plain counter: no mux
}

}  // namespace
}  // namespace atlantis::chdl
