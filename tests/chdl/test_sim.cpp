#include "chdl/sim.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "util/rng.hpp"

namespace atlantis::chdl {
namespace {

TEST(Sim, GateTruthTables) {
  Design d("gates");
  const Wire a = d.input("a", 1);
  const Wire b = d.input("b", 1);
  d.output("and", d.band(a, b));
  d.output("or", d.bor(a, b));
  d.output("xor", d.bxor(a, b));
  d.output("not", d.bnot(a));
  Simulator sim(d);
  for (int av = 0; av <= 1; ++av) {
    for (int bv = 0; bv <= 1; ++bv) {
      sim.poke("a", static_cast<std::uint64_t>(av));
      sim.poke("b", static_cast<std::uint64_t>(bv));
      EXPECT_EQ(sim.peek_u64("and"), static_cast<std::uint64_t>(av & bv));
      EXPECT_EQ(sim.peek_u64("or"), static_cast<std::uint64_t>(av | bv));
      EXPECT_EQ(sim.peek_u64("xor"), static_cast<std::uint64_t>(av ^ bv));
      EXPECT_EQ(sim.peek_u64("not"), static_cast<std::uint64_t>(1 - av));
    }
  }
}

TEST(Sim, CombinationalOpsMatchBitVecSemantics) {
  Design d("comb");
  const Wire a = d.input("a", 16);
  const Wire b = d.input("b", 16);
  d.output("add", d.add(a, b));
  d.output("sub", d.sub(a, b));
  d.output("eq", d.eq(a, b));
  d.output("ult", d.ult(a, b));
  d.output("rand", d.reduce_and(a));
  d.output("ror", d.reduce_or(a));
  d.output("rxor", d.reduce_xor(a));
  d.output("sl", d.shl(a, 3));
  d.output("sr", d.shr(a, 3));
  d.output("slice", d.slice(a, 4, 8));
  d.output("cat", d.concat({d.slice(a, 8, 8), d.slice(a, 0, 8)}));
  Simulator sim(d);
  util::Rng rng(71);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t x = rng.next_u64() & 0xFFFF;
    const std::uint64_t y = rng.next_u64() & 0xFFFF;
    sim.poke("a", x);
    sim.poke("b", y);
    EXPECT_EQ(sim.peek_u64("add"), (x + y) & 0xFFFF);
    EXPECT_EQ(sim.peek_u64("sub"), (x - y) & 0xFFFF);
    EXPECT_EQ(sim.peek_u64("eq"), x == y ? 1u : 0u);
    EXPECT_EQ(sim.peek_u64("ult"), x < y ? 1u : 0u);
    EXPECT_EQ(sim.peek_u64("rand"), x == 0xFFFF ? 1u : 0u);
    EXPECT_EQ(sim.peek_u64("ror"), x != 0 ? 1u : 0u);
    EXPECT_EQ(sim.peek_u64("rxor"),
              static_cast<std::uint64_t>(__builtin_popcountll(x) & 1));
    EXPECT_EQ(sim.peek_u64("sl"), (x << 3) & 0xFFFF);
    EXPECT_EQ(sim.peek_u64("sr"), x >> 3);
    EXPECT_EQ(sim.peek_u64("slice"), (x >> 4) & 0xFF);
    EXPECT_EQ(sim.peek_u64("cat"), x);  // slices reassembled
  }
}

TEST(Sim, MuxAndMuxN) {
  Design d("mux");
  const Wire sel = d.input("sel", 1);
  const Wire seln = d.input("seln", 2);
  const Wire a = d.input("a", 8);
  const Wire b = d.input("b", 8);
  const Wire c = d.input("c", 8);
  d.output("m", d.mux(sel, a, b));
  d.output("mn", d.muxn(seln, {a, b, c}));
  Simulator sim(d);
  sim.poke("a", 10);
  sim.poke("b", 20);
  sim.poke("c", 30);
  sim.poke("sel", 1);
  EXPECT_EQ(sim.peek_u64("m"), 10u);
  sim.poke("sel", 0);
  EXPECT_EQ(sim.peek_u64("m"), 20u);
  sim.poke("seln", 0);
  EXPECT_EQ(sim.peek_u64("mn"), 10u);
  sim.poke("seln", 2);
  EXPECT_EQ(sim.peek_u64("mn"), 30u);
  sim.poke("seln", 3);  // clamped to the last choice
  EXPECT_EQ(sim.peek_u64("mn"), 30u);
}

TEST(Sim, RegisterLatchesOnEdgeOnly) {
  Design d("reg");
  const Wire din = d.input("d", 8);
  d.output("q", d.reg("r", din));
  Simulator sim(d);
  sim.poke("d", 55);
  EXPECT_EQ(sim.peek_u64("q"), 0u);  // power-up value
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 55u);
  sim.poke("d", 77);
  EXPECT_EQ(sim.peek_u64("q"), 55u);  // not yet clocked
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 77u);
}

TEST(Sim, RegisterInitEnableReset) {
  Design d("reg2");
  const Wire din = d.input("d", 8);
  const Wire en = d.input("en", 1);
  const Wire rst = d.input("rst", 1);
  RegOpts opts;
  opts.enable = en;
  opts.reset = rst;
  opts.init = BitVec(8, 0xA5);
  d.output("q", d.reg("r", din, opts));
  Simulator sim(d);
  EXPECT_EQ(sim.peek_u64("q"), 0xA5u);  // init value at power-up
  sim.poke("d", 1);
  sim.poke("en", 0);
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 0xA5u);  // enable off: hold
  sim.poke("en", 1);
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 1u);
  sim.poke("rst", 1);
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 0xA5u);  // sync reset back to init
}

TEST(Sim, ResetRestoresPowerUpState) {
  Design d("reg3");
  const Wire din = d.input("d", 8);
  d.output("q", d.reg("r", din));
  Simulator sim(d);
  sim.poke("d", 9);
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 9u);
  EXPECT_EQ(sim.cycles(), 1u);
  sim.reset();
  EXPECT_EQ(sim.cycles(), 0u);
  // Inputs are cleared too; q back to 0.
  EXPECT_EQ(sim.peek_u64("q"), 0u);
}

TEST(Sim, RamSyncReadAndWrite) {
  Design d("ram");
  const int ram = d.add_ram("mem", 16, 8);
  const Wire addr = d.input("addr", 4);
  const Wire data = d.input("data", 8);
  const Wire we = d.input("we", 1);
  d.ram_write(ram, addr, data, we);
  d.output("q", d.ram_read(ram, addr));
  Simulator sim(d);
  // Write 0xAB at address 3.
  sim.poke("addr", 3);
  sim.poke("data", 0xAB);
  sim.poke("we", 1);
  sim.step();
  sim.poke("we", 0);
  // Sync read: data appears one cycle after the address is presented.
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 0xABu);
  // Read-before-write: writing a new value while reading the same
  // address returns the OLD contents on that edge.
  sim.poke("data", 0xCD);
  sim.poke("we", 1);
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 0xABu);
  sim.poke("we", 0);
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 0xCDu);
}

TEST(Sim, RamDirectAccess) {
  Design d("ram2");
  const int ram = d.add_ram("mem", 8, 16);
  const Wire addr = d.input("addr", 3);
  d.output("q", d.ram_read(ram, addr));
  Simulator sim(d);
  sim.write_ram(ram, 5, BitVec(16, 0x1234));
  EXPECT_EQ(sim.read_ram(ram, 5).to_u64(), 0x1234u);
  sim.poke("addr", 5);
  sim.step();
  EXPECT_EQ(sim.peek_u64("q"), 0x1234u);
  EXPECT_THROW(sim.write_ram(ram, 8, BitVec(16, 0)), util::Error);
  EXPECT_THROW(sim.write_ram(ram, 0, BitVec(8, 0)), util::Error);
}

TEST(Sim, RomContentsPreloaded) {
  Design d("rom");
  const int rom = d.add_rom("r", {BitVec(8, 11), BitVec(8, 22), BitVec(8, 33)});
  const Wire addr = d.input("addr", 2);
  d.output("q", d.ram_read(rom, addr));
  Simulator sim(d);
  for (std::uint64_t a = 0; a < 3; ++a) {
    sim.poke("addr", a);
    sim.step();
    EXPECT_EQ(sim.peek_u64("q"), 11 * (a + 1));
  }
}

TEST(Sim, CombinationalCycleDetected) {
  Design d("loop");
  const Wire a = d.input("a", 1);
  // Build a feedback loop through combinational logic only: forward-
  // declare a register, misuse its Q in logic, then feed the logic into
  // an AND with itself via two NOTs... simplest true cycle: x = not(y),
  // y = not(x) is impossible to express without forward refs, so use a
  // register loop and check it is FINE, then a self-referential check is
  // done via reg misuse below.
  const Wire q = d.reg_forward("q", 1);
  d.reg_connect(q, d.bxor(q, a));  // sequential feedback: legal
  d.output("y", q);
  EXPECT_NO_THROW(Simulator{d});
}

TEST(Sim, ToggleCounterViaFeedback) {
  Design d("tog");
  const Wire q = d.reg_forward("q", 4);
  d.reg_connect(q, d.add(q, d.constant(4, 1)));
  d.output("count", q);
  Simulator sim(d);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(sim.peek_u64("count"), i & 0xF);
    sim.step();
  }
  EXPECT_EQ(sim.cycles(), 20u);
}

TEST(Sim, WideDatapath176Bits) {
  // The TRT LUT row width: make sure >64-bit values flow end to end.
  Design d("wide");
  const Wire a = d.input("a", 176);
  const Wire b = d.input("b", 176);
  d.output("x", d.bxor(a, b));
  d.output("any", d.reduce_or(d.band(a, b)));
  Simulator sim(d);
  BitVec va(176), vb(176);
  va.set_bit(0, true);
  va.set_bit(175, true);
  vb.set_bit(175, true);
  sim.poke(d.port("a"), va);
  sim.poke(d.port("b"), vb);
  const BitVec x = sim.peek(d.port("x"));
  EXPECT_TRUE(x.bit(0));
  EXPECT_FALSE(x.bit(175));
  EXPECT_EQ(sim.peek_u64("any"), 1u);
}

// A slice of a multi-word wire that lies inside one 64-bit word compiles
// to a single-word op on that word; one that straddles a word boundary
// stays on the general path. Both must equal BitVec::slice on every
// engine, fed from a port and from a register (the TRT LUT row's shape).
TEST(Sim, InWordSlicesOfWideWiresMatchBitVec) {
  struct Cut {
    int lo, width;
  };
  const Cut cuts[] = {{0, 64},  {5, 7},   {63, 1}, {64, 64},
                      {100, 20}, {191, 1}, {255, 1},
                      {60, 8}};  // straddles bits 63|64: general path
  Design d("slices");
  const Wire row = d.input("row", 256);
  const Wire held = d.reg("held", row);
  for (std::size_t k = 0; k < std::size(cuts); ++k) {
    const std::string n = std::to_string(k);
    d.output("p" + n, d.slice(row, cuts[k].lo, cuts[k].width));
    d.output("r" + n, d.slice(held, cuts[k].lo, cuts[k].width));
  }
  util::Rng rng(256);
  for (const EvalMode mode : {EvalMode::kThreaded, EvalMode::kFullSweep}) {
    Simulator sim(d, mode);
    BitVec prev(256);
    for (int cycle = 0; cycle < 20; ++cycle) {
      BitVec v(256);
      for (auto& word : v.words()) word = rng.next_u64();
      sim.poke(row, v);
      for (std::size_t k = 0; k < std::size(cuts); ++k) {
        const std::string n = std::to_string(k);
        EXPECT_EQ(sim.peek(d.port("p" + n)),
                  v.slice(cuts[k].lo, cuts[k].width))
            << "port slice lo=" << cuts[k].lo << " mode "
            << static_cast<int>(mode);
        EXPECT_EQ(sim.peek(d.port("r" + n)),
                  prev.slice(cuts[k].lo, cuts[k].width))
            << "register slice lo=" << cuts[k].lo << " mode "
            << static_cast<int>(mode);
      }
      sim.step();
      prev = v;
    }
  }
}

TEST(Sim, PokeRejectsNonInputs) {
  Design d("p");
  const Wire a = d.input("a", 8);
  const Wire y = d.bnot(a);
  d.output("y", y);
  Simulator sim(d);
  EXPECT_THROW(sim.poke(y, 1), util::Error);
}

TEST(Sim, MultiClockDomainsLatchIndependently) {
  Design d("mc");
  const ClockId fast = d.add_clock("fast");
  const Wire din = d.input("d", 8);
  RegOpts slow_opts;  // domain 0
  const Wire q0 = d.reg("q0", din, slow_opts);
  RegOpts fast_opts;
  fast_opts.clock = fast;
  const Wire q1 = d.reg("q1", din, fast_opts);
  d.output("y0", q0);
  d.output("y1", q1);
  Simulator sim(d);
  sim.poke("d", 5);
  sim.step(fast);
  EXPECT_EQ(sim.peek_u64("y1"), 5u);
  EXPECT_EQ(sim.peek_u64("y0"), 0u);  // domain 0 has not ticked
  sim.step(ClockId{0});
  EXPECT_EQ(sim.peek_u64("y0"), 5u);
  EXPECT_EQ(sim.cycles(fast), 1u);
  EXPECT_EQ(sim.cycles(ClockId{0}), 1u);
}

// Property: a ripple of registers is a delay line of its depth.
class DelayLine : public ::testing::TestWithParam<int> {};

TEST_P(DelayLine, DelaysByDepth) {
  const int depth = GetParam();
  Design d("delay");
  const Wire in = d.input("in", 8);
  Wire w = in;
  for (int i = 0; i < depth; ++i) {
    w = d.reg("s" + std::to_string(i), w);
  }
  d.output("out", w);
  Simulator sim(d);
  util::Rng rng(static_cast<std::uint64_t>(depth) + 99);
  std::vector<std::uint64_t> sent;
  for (int t = 0; t < depth + 50; ++t) {
    const std::uint64_t v = rng.next_u64() & 0xFF;
    sent.push_back(v);
    sim.poke("in", v);
    sim.step();
    if (t >= depth - 1) {
      EXPECT_EQ(sim.peek_u64("out"), sent[static_cast<std::size_t>(t - depth + 1)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, DelayLine, ::testing::Values(1, 2, 5, 16));

}  // namespace
}  // namespace atlantis::chdl
