// Lockstep stepping of the 2x2 FPGA matrix: AcbBoard::step_matrix must
// match four simulators stepped and linked by hand, edge for edge —
// identical neighbour-link traffic, RAM contents and port values. The
// four node designs exchange LFSR streams over the h/v links and fold
// what they receive into a RAM, so any link-ordering or off-by-one-edge
// bug shows up as a diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/acb.hpp"
#include "core/system.hpp"
#include "hw/fpga.hpp"

namespace atlantis::core {
namespace {

using chdl::BitVec;
using chdl::Design;
using chdl::RegOpts;
using chdl::Wire;

/// One matrix node: a seeded 16-bit LFSR drives both link outputs, the
/// link inputs are latched into registers (the registered-link property
/// that makes per-edge exchange cycle-accurate) and mixed into a RAM.
Design make_node(int index) {
  Design d("node" + std::to_string(index));
  RegOpts seed;
  seed.init = BitVec(16, 0xACE1u + 0x111u * static_cast<unsigned>(index));
  const Wire q = d.reg_forward("lfsr", 16, seed);
  const Wire fb = d.bxor(d.bit(q, 0),
                         d.bxor(d.bit(q, 2), d.bxor(d.bit(q, 3), d.bit(q, 5))));
  d.reg_connect(q, d.concat({fb, d.slice(q, 1, 15)}));
  d.output("h_out", q);
  d.output("v_out", d.bnot(q));

  const Wire hr = d.reg("h_r", d.input("h_in", 16));
  const Wire vr = d.reg("v_r", d.input("v_in", 16));

  const int ram = d.add_ram("acc", 16, 16);
  const Wire addr = d.reg_forward("addr", 4);
  d.reg_connect(addr, d.add(addr, d.constant(4, 1)));
  d.ram_write(ram, addr, d.bxor(d.add(hr, vr), q), d.constant(1, 1));
  d.output("mix", d.bxor(hr, vr));
  return d;
}

struct MatrixRun {
  AcbMatrixReport report;
  std::vector<std::vector<BitVec>> ram;  // per FPGA, 16 words
  std::vector<std::uint64_t> mix;
  std::vector<std::uint64_t> pattern;
};

constexpr int kCycles = 200;

void collect_state(const std::vector<chdl::Simulator*>& sims, MatrixRun& r) {
  for (chdl::Simulator* sim : sims) {
    std::vector<BitVec> words;
    for (std::int64_t a = 0; a < 16; ++a) words.push_back(sim->read_ram(0, a));
    r.ram.push_back(std::move(words));
    r.mix.push_back(sim->peek_u64("mix"));
    r.pattern.push_back(sim->peek_u64("h_out"));
  }
}

MatrixRun run_board(const std::vector<Design>& nodes) {
  AcbBoard board("acb");
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    board.fpga(i).configure(
        hw::Bitstream::from_design(nodes[static_cast<std::size_t>(i)]));
  }
  MatrixRun r;
  r.report = board.step_matrix(kCycles, /*record_trace=*/true);
  std::vector<chdl::Simulator*> sims;
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    sims.push_back(board.fpga(i).sim());
  }
  collect_state(sims, r);
  return r;
}

/// The reference: four bare simulators, each stepped one edge, then the
/// post-edge link outputs poked into the neighbours' inputs in the
/// documented order (per FPGA in index order: horizontal, then
/// vertical).
MatrixRun run_by_hand(const std::vector<Design>& nodes) {
  std::vector<std::unique_ptr<chdl::Simulator>> owned;
  std::vector<chdl::Simulator*> sims;
  for (const Design& d : nodes) {
    owned.push_back(std::make_unique<chdl::Simulator>(d));
    sims.push_back(owned.back().get());
  }
  MatrixRun r;
  for (int c = 0; c < kCycles; ++c) {
    for (chdl::Simulator* sim : sims) sim->step();
    for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
      const int row = i / 2, col = i % 2;
      const struct {
        int to;
        const char* out;
        const char* in;
      } links[] = {{row * 2 + (1 - col), "h_out", "h_in"},
                   {(1 - row) * 2 + col, "v_out", "v_in"}};
      for (const auto& link : links) {
        const BitVec v = sims[static_cast<std::size_t>(i)]->peek(
            nodes[static_cast<std::size_t>(i)].port(link.out));
        r.report.trace.push_back(
            {static_cast<std::uint64_t>(c), i, link.to, v});
        chdl::Simulator* dst = sims[static_cast<std::size_t>(link.to)];
        dst->poke(nodes[static_cast<std::size_t>(link.to)].port(link.in), v);
      }
    }
  }
  collect_state(sims, r);
  return r;
}

TEST(AcbMatrix, SteppingMatchesHandLinkedSimulators) {
  std::vector<Design> nodes;
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) nodes.push_back(make_node(i));

  const MatrixRun board = run_board(nodes);
  const MatrixRun by_hand = run_by_hand(nodes);

  EXPECT_EQ(board.report.sims, 4);
  EXPECT_EQ(board.report.links, 8);  // 4 nodes x (h + v)
  EXPECT_EQ(board.report.cycles, static_cast<std::uint64_t>(kCycles));

  // The link traffic is live (the LFSRs run), not a constant stream.
  ASSERT_FALSE(board.report.trace.empty());
  EXPECT_NE(board.report.trace.front().value,
            board.report.trace.back().value);

  // Cycle-exact traffic equality, transfer by transfer.
  ASSERT_EQ(board.report.trace.size(), by_hand.report.trace.size());
  for (std::size_t k = 0; k < board.report.trace.size(); ++k) {
    const AcbLinkTransfer& s = board.report.trace[k];
    const AcbLinkTransfer& p = by_hand.report.trace[k];
    EXPECT_EQ(s.cycle, p.cycle) << "transfer " << k;
    EXPECT_EQ(s.from, p.from) << "transfer " << k;
    EXPECT_EQ(s.to, p.to) << "transfer " << k;
    EXPECT_EQ(s.value, p.value) << "transfer " << k;
  }

  // Final architectural state: RAM images and port values.
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    const auto fi = static_cast<std::size_t>(i);
    EXPECT_EQ(board.mix[fi], by_hand.mix[fi]) << "fpga " << i;
    EXPECT_EQ(board.pattern[fi], by_hand.pattern[fi]) << "fpga " << i;
    for (std::size_t a = 0; a < 16; ++a) {
      EXPECT_EQ(board.ram[fi][a], by_hand.ram[fi][a])
          << "fpga " << i << " RAM word " << a;
    }
  }
}

TEST(AcbMatrix, DiagonalPairHasNoLinks) {
  std::vector<Design> nodes;
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) nodes.push_back(make_node(i));
  AcbBoard board("acb_diag");
  board.fpga(0).configure(hw::Bitstream::from_design(nodes[0]));
  board.fpga(3).configure(hw::Bitstream::from_design(nodes[3]));
  const AcbMatrixReport r = board.step_matrix(5);
  EXPECT_EQ(r.sims, 2);
  EXPECT_EQ(r.links, 0);  // FPGAs 0 and 3 are not matrix neighbours
  EXPECT_EQ(r.cycles, 5u);
}

TEST(AcbMatrix, SystemStepsAllBoards) {
  std::vector<Design> nodes;
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) nodes.push_back(make_node(i));
  AtlantisSystem sys("crate");
  const int b0 = sys.add_acb("acb0");
  const int b1 = sys.add_acb("acb1");
  for (const int b : {b0, b1}) {
    for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
      sys.acb(b).fpga(i).configure(
          hw::Bitstream::from_design(nodes[static_cast<std::size_t>(i)]));
    }
  }
  // 10 cycles x 2 boards x 4 sims = 80 simulator edges.
  EXPECT_EQ(sys.step_acbs(10), 80u);
  EXPECT_EQ(sys.acb(b0).fpga(0).sim()->cycles(), 10u);
}

}  // namespace
}  // namespace atlantis::core
