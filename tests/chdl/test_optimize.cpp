// Unit tests for the netlist optimizer (chdl/optimize.hpp): each pass
// exercised in isolation against hand-built netlists, plus randomized
// equivalence checks (chdl/verify.hpp) of every pass combination
// against the unoptimized reference simulator.
#include "chdl/optimize.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chdl/builder.hpp"
#include "chdl/design.hpp"
#include "chdl/export.hpp"
#include "chdl/hostif.hpp"
#include "chdl/sim.hpp"
#include "chdl/verify.hpp"

namespace atlantis::chdl {
namespace {

OptimizeOptions only(bool fold, bool dce, bool cse, bool fuse) {
  OptimizeOptions o;
  o.fold = fold;
  o.dce = dce;
  o.cse = cse;
  o.fuse = fuse;
  return o;
}

std::int32_t find_comp(const Design& d, CompKind kind) {
  for (std::size_t i = 0; i < d.components().size(); ++i) {
    if (d.components()[i].kind == kind) return static_cast<std::int32_t>(i);
  }
  return -1;
}

TEST(Optimize, FoldsFullyConstantExpressions) {
  Design d("fold");
  const Wire a = d.constant(16, 40);
  const Wire b = d.constant(16, 2);
  const Wire sum = d.add(a, b);
  d.output("y", sum);

  const OptimizedNetlist opt = optimize(d, only(true, false, false, false));
  ASSERT_TRUE(opt.folded(sum.id));
  EXPECT_EQ(opt.fold_value[static_cast<std::size_t>(sum.id)].to_u64(), 42u);
  const OptimizePassStats* fold = opt.report.pass("fold");
  ASSERT_NE(fold, nullptr);
  EXPECT_GE(fold->rewrites, 1);

  Simulator sim(d);
  EXPECT_EQ(sim.peek_u64("y"), 42u);
  EXPECT_TRUE(sim.optimized());
}

TEST(Optimize, FoldsIdentitiesToAliasesAndConstants) {
  Design d("ident");
  const Wire x = d.input("x", 8);
  const Wire self_xor = d.bxor(x, x);      // -> constant 0
  const Wire self_and = d.band(x, x);      // -> alias of x
  const Wire plus_zero = d.add(x, d.constant(8, 0));  // -> alias of x
  const Wire sel1 = d.mux(d.constant(1, 1), x, self_xor);  // -> alias of x
  d.output("a", self_xor);
  d.output("b", self_and);
  d.output("c", plus_zero);
  d.output("d", sel1);

  const OptimizedNetlist opt = optimize(d, only(true, false, false, false));
  EXPECT_TRUE(opt.folded(self_xor.id));
  EXPECT_EQ(opt.fold_value[static_cast<std::size_t>(self_xor.id)].to_u64(),
            0u);
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(self_and.id)], x.id);
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(plus_zero.id)], x.id);
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(sel1.id)], x.id);

  // Aliased wires share the representative's storage: a poke is visible
  // through every alias immediately.
  Simulator sim(d);
  sim.poke("x", 0x5A);
  EXPECT_EQ(sim.peek_u64("b"), 0x5Au);
  EXPECT_EQ(sim.peek_u64("c"), 0x5Au);
  EXPECT_EQ(sim.peek_u64("d"), 0x5Au);
  EXPECT_EQ(sim.peek_u64("a"), 0u);
}

TEST(Optimize, DceDropsUnobservedLogicButPeeksStillWork) {
  Design d("dce");
  const Wire x = d.input("x", 8);
  const Wire dead = d.add(d.bnot(x), d.constant(8, 1));  // feeds nothing
  const Wire live = d.bxor(x, d.constant(8, 0xFF));
  d.output("y", live);

  const OptimizedNetlist opt = optimize(d, only(false, true, false, false));
  const std::int32_t add_idx = find_comp(d, CompKind::kAdd);
  ASSERT_GE(add_idx, 0);
  EXPECT_FALSE(opt.comp_alive[static_cast<std::size_t>(add_idx)]);
  const OptimizePassStats* dce = opt.report.pass("dce");
  ASSERT_NE(dce, nullptr);
  EXPECT_GE(dce->rewrites, 2);  // the not and the add

  // The simulator re-evaluates dropped logic lazily when peeked, so the
  // observable value is unchanged.
  Simulator sim(d);
  sim.poke("x", 7);
  EXPECT_EQ(sim.peek(dead).to_u64(), static_cast<std::uint64_t>(
                                          (~7u + 1u) & 0xFFu));
  EXPECT_EQ(sim.peek_u64("y"), (7u ^ 0xFFu));
}

TEST(Optimize, DceKeepPinsProbedWires) {
  Design d("keep");
  const Wire x = d.input("x", 8);
  const Wire probed = d.add(x, d.constant(8, 1));  // feeds nothing
  d.output("y", x);

  OptimizeOptions opts = only(false, true, false, false);
  opts.keep.push_back(probed);
  const OptimizedNetlist opt = optimize(d, opts);
  const std::int32_t add_idx = find_comp(d, CompKind::kAdd);
  ASSERT_GE(add_idx, 0);
  EXPECT_TRUE(opt.comp_alive[static_cast<std::size_t>(add_idx)]);
}

TEST(Optimize, CseMergesStructuralDuplicates) {
  Design d("cse");
  const Wire a = d.input("a", 12);
  const Wire b = d.input("b", 12);
  const Wire s1 = d.add(a, b);
  const Wire s2 = d.add(a, b);   // structural twin
  const Wire s3 = d.add(b, a);   // commutative twin
  d.output("x", s1);
  d.output("y", s2);
  d.output("z", s3);

  const OptimizedNetlist opt = optimize(d, only(false, false, true, false));
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(s2.id)], s1.id);
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(s3.id)], s1.id);
  const OptimizePassStats* cse = opt.report.pass("cse");
  ASSERT_NE(cse, nullptr);
  EXPECT_EQ(cse->rewrites, 2);

  Simulator sim(d);
  sim.poke("a", 100);
  sim.poke("b", 23);
  EXPECT_EQ(sim.peek_u64("x"), 123u);
  EXPECT_EQ(sim.peek_u64("y"), 123u);
  EXPECT_EQ(sim.peek_u64("z"), 123u);
}

TEST(Optimize, ConstantsAreInternedByTheDesign) {
  Design d("intern");
  const Wire c1 = d.constant(8, 5);
  const Wire c2 = d.constant(8, 5);
  const Wire c3 = d.constant(8, 6);
  const Wire c4 = d.constant(9, 5);  // same value, different width
  EXPECT_EQ(c1.id, c2.id);
  EXPECT_NE(c1.id, c3.id);
  EXPECT_NE(c1.id, c4.id);
}

TEST(Optimize, FusesInverterAndImmediateForms) {
  Design d("fuse");
  const Wire a = d.input("a", 16);
  const Wire b = d.input("b", 16);
  const Wire andnot = d.band(a, d.bnot(b));
  const Wire eqc = d.eq(a, d.constant(16, 1234));
  const Wire addc = d.add(a, d.constant(16, 7));
  d.output("x", andnot);
  d.output("y", eqc);
  d.output("z", addc);

  const OptimizedNetlist opt = optimize(d, only(false, false, false, true));
  const auto fused_of = [&](CompKind kind) {
    const std::int32_t idx = find_comp(d, kind);
    EXPECT_GE(idx, 0);
    const auto it = opt.fused.find(idx);
    return it == opt.fused.end() ? FusedComp{} : it->second;
  };
  EXPECT_EQ(fused_of(CompKind::kAnd).op, FusedOp::kAndNot);
  EXPECT_EQ(fused_of(CompKind::kEq).op, FusedOp::kEqImm);
  EXPECT_EQ(fused_of(CompKind::kEq).imm, 1234u);
  EXPECT_EQ(fused_of(CompKind::kAdd).op, FusedOp::kAddImm);

  Simulator sim(d);
  sim.poke("a", 1234);
  sim.poke("b", 0x0F0F);
  EXPECT_EQ(sim.peek_u64("x"), 1234u & ~0x0F0Fu & 0xFFFFu);
  EXPECT_EQ(sim.peek_u64("y"), 1u);
  EXPECT_EQ(sim.peek_u64("z"), 1241u);
}

TEST(Optimize, ForwardsSliceOfConcat) {
  Design d("sliceconcat");
  const Wire hi = d.input("hi", 8);
  const Wire lo = d.input("lo", 8);
  const Wire cat = d.concat({hi, lo});
  const Wire take_lo = d.slice(cat, 0, 8);   // exactly the low part
  const Wire inside = d.slice(cat, 10, 4);   // inside the high part
  d.output("a", take_lo);
  d.output("b", inside);

  const OptimizedNetlist opt = optimize(d, only(false, false, false, true));
  EXPECT_EQ(opt.forward[static_cast<std::size_t>(take_lo.id)], lo.id);

  Simulator sim(d);
  sim.poke("hi", 0xAB);
  sim.poke("lo", 0xCD);
  EXPECT_EQ(sim.peek_u64("a"), 0xCDu);
  EXPECT_EQ(sim.peek_u64("b"), (0xABu >> 2) & 0xFu);
}

/// Component index driving a wire (-1: none).
std::int32_t producer_of(const Design& d, Wire w) {
  for (std::size_t i = 0; i < d.components().size(); ++i) {
    const Component& c = d.components()[i];
    if (c.kind != CompKind::kOutput && c.out.valid() && c.out.id == w.id) {
      return static_cast<std::int32_t>(i);
    }
  }
  return -1;
}

/// The fused record of the component driving `w` (op kNone if unfused).
FusedComp fused_at(const Design& d, const OptimizedNetlist& opt, Wire w) {
  const auto it = opt.fused.find(producer_of(d, w));
  return it == opt.fused.end() ? FusedComp{} : it->second;
}

// HostRegFile's read-back is one mux per mapped address over compares
// of host_addr; the fuse pass collapses the whole chain into one select
// op, the only tape op left driving a mux output.
TEST(Optimize, HostReadBackChainCompilesToOneSelect) {
  for (const int n : {2, 7, 40}) {
    SCOPED_TRACE(n);
    Design d("hrf");
    HostRegFile hrf(d, /*addr_bits=*/8, /*data_bits=*/32);
    std::vector<Wire> regs;
    for (int k = 0; k < n; ++k) {
      // Widths 1..32: narrow registers read back zero-extended.
      regs.push_back(hrf.write_reg("r" + std::to_string(k),
                                   0x10 + static_cast<std::uint32_t>(k),
                                   1 + k % 32));
    }
    hrf.finish();
    const Wire rdata = d.port("host_rdata");

    const OptimizedNetlist opt = optimize(d);
    const FusedComp sel = fused_at(d, opt, rdata);
    ASSERT_EQ(sel.op, FusedOp::kSelect);
    EXPECT_EQ(sel.in0.id, hrf.addr().id);
    ASSERT_EQ(sel.keys.size(), static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      EXPECT_EQ(sel.keys[ks], 0x10u + static_cast<std::uint64_t>(k));
      // A zero-extension arm {0, x} is read as x itself.
      EXPECT_EQ(sel.arms[ks].id, regs[ks].id);
    }

    Simulator sim(d);
    const RegionGraph g = sim.region_graph();
    int mux_ops = 0;
    for (std::int32_t t = 0; t < g.op_count(); ++t) {
      const std::int32_t c = producer_of(
          d, Wire{g.out_wire[static_cast<std::size_t>(t)], 1});
      if (d.components()[static_cast<std::size_t>(c)].kind != CompKind::kMux) {
        continue;
      }
      ++mux_ops;
      EXPECT_EQ(g.out_wire[static_cast<std::size_t>(t)], rdata.id);
      // Reads the address, the default and one word per register.
      EXPECT_EQ(g.in_begin[static_cast<std::size_t>(t) + 1] -
                    g.in_begin[static_cast<std::size_t>(t)],
                n + 2);
    }
    EXPECT_EQ(mux_ops, 1);

    HostInterface host(sim);
    for (int k = 0; k < n; ++k) {
      host.write(0x10 + static_cast<std::uint32_t>(k),
                 0xDEADBEEFu + static_cast<std::uint64_t>(k));
    }
    for (int k = 0; k < n; ++k) {
      const int width = 1 + k % 32;
      const std::uint64_t mask =
          width == 64 ? ~0ull : (std::uint64_t{1} << width) - 1;
      EXPECT_EQ(host.read(0x10 + static_cast<std::uint32_t>(k)),
                (0xDEADBEEFu + static_cast<std::uint64_t>(k)) & mask);
    }
    EXPECT_EQ(host.read(0x0F), 0u);  // unmapped: the chain's base
    EXPECT_EQ(host.read(0xFF), 0u);
  }
}

// A link is followed only through an else wire the next mux alone
// reads: an interior tap with a second consumer ends the chain there,
// and the tap's own chain becomes a select of its own.
TEST(Optimize, SelectChainStopsAtSharedTap) {
  Design d("tap");
  const Wire addr = d.input("addr", 4);
  const Wire base = d.input("base", 8);
  Wire chain = base;
  Wire tap{};
  for (int k = 0; k < 6; ++k) {
    chain = d.mux(eq_const(d, addr, static_cast<std::uint64_t>(k)),
                  d.input("v" + std::to_string(k), 8), chain);
    if (k == 2) tap = chain;
  }
  d.output("y", chain);
  d.output("t", tap);  // the tap's second consumer

  const OptimizedNetlist opt = optimize(d);
  const FusedComp outer = fused_at(d, opt, chain);
  ASSERT_EQ(outer.op, FusedOp::kSelect);
  EXPECT_EQ(outer.keys, (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(outer.in1.id, tap.id);
  const FusedComp inner = fused_at(d, opt, tap);
  ASSERT_EQ(inner.op, FusedOp::kSelect);
  EXPECT_EQ(inner.keys, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(inner.in1.id, base.id);

  Simulator sim(d);
  sim.poke("base", 0xEE);
  for (int k = 0; k < 6; ++k) {
    sim.poke("v" + std::to_string(k), static_cast<std::uint64_t>(0xA0 + k));
  }
  for (std::uint64_t a = 0; a < 16; ++a) {
    sim.poke("addr", a);
    EXPECT_EQ(sim.peek_u64("y"), a < 6 ? 0xA0 + a : 0xEEu) << a;
    EXPECT_EQ(sim.peek_u64("t"), a < 3 ? 0xA0 + a : 0xEEu) << a;
  }
}

TEST(Optimize, ReportCountsOpsPerPass) {
  Design d("report");
  const Wire x = d.input("x", 8);
  const Wire t = d.add(x, d.constant(8, 0));  // folds away
  d.output("y", d.band(t, t));

  const OptimizedNetlist opt = optimize(d);
  EXPECT_EQ(opt.report.passes.size(), 4u);  // fold, dce, cse, fuse
  EXPECT_GT(opt.report.ops_before, 0);
  EXPECT_LE(opt.report.ops_after, opt.report.ops_before);
  EXPECT_FALSE(opt.report.to_string().empty());
}

TEST(Optimize, OptimizedExportShowsRewrites) {
  Design d("exportopt");
  const Wire x = d.input("x", 8);
  const Wire aliased = d.band(x, x);
  const Wire folded = d.bxor(x, x);
  d.output("a", aliased);
  d.output("b", folded);

  const OptimizedNetlist opt = optimize(d);
  const std::string text = export_netlist(d, opt);
  EXPECT_NE(text.find("(optimized)"), std::string::npos);
  EXPECT_NE(text.find("; alias"), std::string::npos);
  EXPECT_NE(text.find("; folded"), std::string::npos);
}

TEST(Optimize, EscapeHatchDisablesEverything) {
  Design d("hatch");
  const Wire x = d.input("x", 8);
  d.output("y", d.band(x, x));

  SimOptions off;
  off.optimize = false;
  Simulator raw(d, off);
  Simulator opt(d);
  EXPECT_FALSE(raw.optimized());
  EXPECT_TRUE(opt.optimized());
  EXPECT_EQ(raw.optimize_report(), nullptr);
  ASSERT_NE(opt.optimize_report(), nullptr);
  EXPECT_LE(opt.tape_ops(), raw.tape_ops());
  raw.poke("x", 3);
  opt.poke("x", 3);
  EXPECT_EQ(raw.peek_u64("y"), opt.peek_u64("y"));
}

/// A design mixing everything the passes rewrite: inverter absorption,
/// immediates, duplicates, identities, slice-of-concat and a register.
void build_mixed(Design& d) {
  const Wire a = d.input("a", 16);
  const Wire b = d.input("b", 16);
  const Wire t1 = d.band(a, d.bnot(b));
  const Wire t2 = d.add(a, d.constant(16, 3));
  const Wire sel = d.eq(b, d.constant(16, 100));
  const Wire t4 = d.mux(sel, t1, t2);
  const Wire dup = d.band(a, d.bnot(b));
  const Wire cat = d.concat({a, b});
  const Wire sl = d.slice(cat, 4, 8);
  const Wire r = d.reg("r", t4);
  d.output("y", d.bxor(r, dup));
  d.output("z", sl);
  d.output("w", d.sub(t2, d.constant(16, 0)));
}

TEST(Optimize, EveryPassCombinationIsEquivalentToReference) {
  Design ref("mixed_ref");
  build_mixed(ref);
  Design opt("mixed_opt");
  build_mixed(opt);

  for (int mask = 0; mask < 16; ++mask) {
    EquivalenceOptions eq;
    eq.cycles = 200;
    eq.sim_a.optimize = false;
    eq.sim_b.optimize = true;
    eq.sim_b.opt =
        only(mask & 1, (mask & 2) != 0, (mask & 4) != 0, (mask & 8) != 0);
    const EquivalenceReport report = check_equivalence(ref, opt, eq);
    EXPECT_TRUE(report.equivalent)
        << "pass mask " << mask << ": " << report.mismatch;
  }
}

}  // namespace
}  // namespace atlantis::chdl
