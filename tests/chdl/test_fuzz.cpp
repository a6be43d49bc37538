// Randomized netlist fuzzing: build random combinational DAGs, then
// compare the levelized Simulator against an independent recursive
// BitVec interpreter over the same component list. Any disagreement is a
// kernel bug — this is the strongest single check on the CHDL simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chdl/builder.hpp"
#include "chdl/optimize.hpp"
#include "chdl/sim.hpp"
#include "chdl/vcd.hpp"
#include "util/rng.hpp"

namespace atlantis::chdl {
namespace {

/// Reference evaluator: memoized recursion over wire producers using
/// BitVec arithmetic only (no levelization, no flat storage).
class Interpreter {
 public:
  Interpreter(const Design& d, const std::map<std::string, BitVec>& inputs)
      : d_(d), inputs_(inputs) {
    for (std::int32_t i = 0; i < static_cast<std::int32_t>(
                                     d.components().size());
         ++i) {
      const Component& c = d.components()[static_cast<std::size_t>(i)];
      if (c.out.valid()) producer_[c.out.id] = i;
    }
  }

  BitVec eval(Wire w) {
    const auto cached = values_.find(w.id);
    if (cached != values_.end()) return cached->second;
    const Component& c =
        d_.components()[static_cast<std::size_t>(producer_.at(w.id))];
    BitVec result = eval_comp(c);
    values_[w.id] = result;
    return result;
  }

 private:
  BitVec eval_comp(const Component& c) {
    auto in = [&](std::size_t k) { return eval(c.in[k]); };
    switch (c.kind) {
      case CompKind::kInput:
        return inputs_.at(c.name);
      case CompKind::kConst:
        return c.init;
      case CompKind::kNot:
        return ~in(0);
      case CompKind::kAnd:
        return in(0) & in(1);
      case CompKind::kOr:
        return in(0) | in(1);
      case CompKind::kXor:
        return in(0) ^ in(1);
      case CompKind::kAdd:
        return in(0) + in(1);
      case CompKind::kSub:
        return in(0) - in(1);
      case CompKind::kMux:
        return in(0).bit(0) ? in(1) : in(2);
      case CompKind::kEq:
        return BitVec(1, in(0) == in(1) ? 1 : 0);
      case CompKind::kUlt:
        return BitVec(1, in(0).ult(in(1)) ? 1 : 0);
      case CompKind::kReduceOr:
        return BitVec(1, in(0).any() ? 1 : 0);
      case CompKind::kReduceXor:
        return BitVec(1, static_cast<std::uint64_t>(in(0).popcount() & 1));
      case CompKind::kSlice:
        return in(0).slice(c.a, c.out.width);
      case CompKind::kConcat: {
        BitVec acc = in(0);
        for (std::size_t k = 1; k < c.in.size(); ++k) {
          acc = BitVec::concat(acc, in(k));
        }
        return acc;
      }
      case CompKind::kShl:
        return in(0).shl(c.a);
      case CompKind::kShr:
        return in(0).shr(c.a);
      default:
        ADD_FAILURE() << "fuzz interpreter hit unsupported kind";
        return BitVec(c.out.width);
    }
  }

  const Design& d_;
  const std::map<std::string, BitVec>& inputs_;
  std::map<std::int32_t, std::int32_t> producer_;
  std::map<std::int32_t, BitVec> values_;
};

/// Builds a random combinational DAG over a few input ports.
Design random_design(util::Rng& rng, int ops) {
  Design d("fuzz");
  std::vector<Wire> pool;
  for (int i = 0; i < 4; ++i) {
    const int width = 1 + static_cast<int>(rng.next_below(90));
    pool.push_back(d.input("in" + std::to_string(i), width));
  }
  pool.push_back(d.constant(BitVec(17, 0x1ABCD)));
  auto pick = [&] {
    return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
  };
  auto pick_pair = [&] {
    // Same-width pair: resize the second operand to the first.
    const Wire a = pick();
    const Wire b = d.resize(pick(), a.width);
    return std::make_pair(a, b);
  };
  for (int i = 0; i < ops; ++i) {
    Wire out{};
    switch (rng.next_below(12)) {
      case 0: {
        const auto [a, b] = pick_pair();
        out = d.band(a, b);
        break;
      }
      case 1: {
        const auto [a, b] = pick_pair();
        out = d.bor(a, b);
        break;
      }
      case 2: {
        const auto [a, b] = pick_pair();
        out = d.bxor(a, b);
        break;
      }
      case 3: {
        const auto [a, b] = pick_pair();
        out = d.add(a, b);
        break;
      }
      case 4: {
        const auto [a, b] = pick_pair();
        out = d.sub(a, b);
        break;
      }
      case 5: {
        const auto [a, b] = pick_pair();
        out = d.mux(d.resize(pick(), 1), a, b);
        break;
      }
      case 6: {
        const auto [a, b] = pick_pair();
        out = d.eq(a, b);
        break;
      }
      case 7: {
        const auto [a, b] = pick_pair();
        out = d.ult(a, b);
        break;
      }
      case 8: {
        const Wire a = pick();
        const int lo = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(a.width)));
        const int width = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(a.width - lo)));
        out = d.slice(a, lo, width);
        break;
      }
      case 9:
        out = d.concat({pick(), pick()});
        break;
      case 10:
        out = d.shl(pick(), static_cast<int>(rng.next_below(20)));
        break;
      default:
        out = d.bnot(pick());
        break;
    }
    if (out.width <= 256) pool.push_back(out);
  }
  // Expose a handful of final values.
  for (int i = 0; i < 6; ++i) {
    d.output("out" + std::to_string(i), pick());
  }
  return d;
}

class NetlistFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistFuzz, SimulatorMatchesInterpreter) {
  util::Rng rng(GetParam());
  const Design d = random_design(rng, 120);
  Simulator full(d, EvalMode::kFullSweep);
  Simulator threaded(d);
  for (int vector = 0; vector < 25; ++vector) {
    std::map<std::string, BitVec> inputs;
    for (const auto& [name, w] : d.inputs()) {
      BitVec v(w.width);
      for (auto& word : v.words()) word = rng.next_u64();
      v = v & BitVec::ones(w.width);
      inputs[name] = v;
      full.poke(w, v);
      threaded.poke(w, v);
    }
    Interpreter ref(d, inputs);
    for (const auto& [name, w] : d.outputs()) {
      EXPECT_EQ(full.peek(w), ref.eval(w))
          << "full-sweep output '" << name << "', vector " << vector
          << ", seed " << GetParam();
      EXPECT_EQ(threaded.peek(w), ref.eval(w))
          << "threaded output '" << name << "', vector " << vector
          << ", seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

// ---------------------------------------------------------------------------
// Differential mode fuzz: the threaded engine's incremental evaluation
// against the full-sweep reference path, over SEQUENTIAL designs
// (registers with enable/reset, feedback counters, RAM read/write ports)
// clocked for many cycles with random pokes. The two policies share the
// storage layout and the multi-word evaluation helper but no scheduling,
// single-word evaluation or edge-commit code, so bit-identical results
// across every wire, RAM word and VCD byte is strong evidence the
// incremental dirty tracking is sound.

BitVec random_bits(util::Rng& rng, int width) {
  BitVec v(width);
  for (auto& word : v.words()) word = rng.next_u64();
  return v & BitVec::ones(width);
}

/// Random design with state: comb ops plus registers (optional
/// enable/reset, random init), feedback accumulators and one RAM.
Design random_seq_design(util::Rng& rng, int ops) {
  Design d("seqfuzz");
  std::vector<Wire> pool;
  for (int i = 0; i < 4; ++i) {
    const int width = 1 + static_cast<int>(rng.next_below(70));
    pool.push_back(d.input("in" + std::to_string(i), width));
  }
  pool.push_back(d.constant(BitVec(17, 0x1ABCD)));
  auto pick = [&] {
    return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
  };
  auto pick_pair = [&] {
    const Wire a = pick();
    const Wire b = d.resize(pick(), a.width);
    return std::make_pair(a, b);
  };
  const int ram = d.add_ram("m", 32, 24);
  int regs = 0;
  for (int i = 0; i < ops; ++i) {
    Wire out{};
    switch (rng.next_below(16)) {
      case 0: {
        const auto [a, b] = pick_pair();
        out = d.band(a, b);
        break;
      }
      case 1: {
        const auto [a, b] = pick_pair();
        out = d.bxor(a, b);
        break;
      }
      case 2: {
        const auto [a, b] = pick_pair();
        out = d.add(a, b);
        break;
      }
      case 3: {
        const auto [a, b] = pick_pair();
        out = d.sub(a, b);
        break;
      }
      case 4: {
        const auto [a, b] = pick_pair();
        out = d.mux(d.resize(pick(), 1), a, b);
        break;
      }
      case 5: {
        const auto [a, b] = pick_pair();
        out = d.eq(a, b);
        break;
      }
      case 6: {
        const auto [a, b] = pick_pair();
        out = d.ult(a, b);
        break;
      }
      case 7: {
        const Wire a = pick();
        const int lo = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(a.width)));
        const int width = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(a.width - lo)));
        out = d.slice(a, lo, width);
        break;
      }
      case 8:
        out = d.concat({pick(), pick()});
        break;
      case 9:
        out = d.shl(pick(), static_cast<int>(rng.next_below(20)));
        break;
      case 10:
        out = d.bnot(pick());
        break;
      case 11: {  // register with random enable / reset / init
        const Wire dw = pick();
        RegOpts opts;
        if (rng.next_below(2)) opts.enable = d.resize(pick(), 1);
        if (rng.next_below(2)) opts.reset = d.resize(pick(), 1);
        opts.init = random_bits(rng, dw.width);
        out = d.reg("r" + std::to_string(regs++), dw, opts);
        break;
      }
      case 12: {  // feedback accumulator (counter-style loop)
        const int width = 1 + static_cast<int>(rng.next_below(40));
        RegOpts opts;
        if (rng.next_below(2)) opts.enable = d.resize(pick(), 1);
        const Wire q = d.reg_forward("f" + std::to_string(regs++), width,
                                     opts);
        d.reg_connect(q, d.add(q, d.resize(pick(), width)));
        out = q;
        break;
      }
      case 13: {  // synchronous RAM read, sometimes gated
        const Wire en =
            rng.next_below(2) ? d.resize(pick(), 1) : Wire{};
        out = d.ram_read(ram, d.resize(pick(), 5), en);
        break;
      }
      default: {  // RAM write port (no output wire)
        d.ram_write(ram, d.resize(pick(), 5), d.resize(pick(), 24),
                    d.resize(pick(), 1));
        break;
      }
    }
    if (out.valid() && out.width <= 256) pool.push_back(out);
  }
  for (int i = 0; i < 8; ++i) {
    d.output("out" + std::to_string(i), pick());
  }
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The TRT core's shape with random sizes: a >=128-bit row (a ROM read
/// port or a register fed from the pool) sliced bit by bit into
/// valid-gated counters with a clear, read back through a HostRegFile
/// mux chain. It exercises in-word slice lowering, sibling-group regions
/// (the per-bit gates) and cone regions (the mux chain).
Design wide_row_design(util::Rng& rng) {
  Design d("rowfuzz");
  HostRegFile hrf(d, /*addr_bits=*/9, /*data_bits=*/16);
  const int width = 128 + static_cast<int>(rng.next_below(129));
  const Wire in = d.input("in", 1 + static_cast<int>(rng.next_below(70)));
  Wire row{};
  if (rng.next_below(2) == 0) {
    std::vector<BitVec> rows;
    for (int i = 0; i < 16; ++i) rows.push_back(random_bits(rng, width));
    const int rom = d.add_rom("lut", std::move(rows));
    row = d.ram_read(rom, d.resize(hrf.wdata(), 4), hrf.we());
  } else {
    row = d.reg("row", d.resize(d.concat({in, hrf.wdata(), in}), width));
  }
  const Wire valid = d.reg("valid", d.bxor(d.resize(in, 1), hrf.we()));
  // Clear on host writes to the top eighth of the address space: often
  // enough under random pokes to exercise the reset path.
  const Wire clear =
      d.band(hrf.we(), d.reduce_and(d.slice(hrf.addr(), 6, 3)));
  const int counter_bits = 1 + static_cast<int>(rng.next_below(12));
  const Wire one = d.constant(counter_bits, 1);
  for (int p = 0; p < width; ++p) {
    RegOpts opts;
    opts.enable = d.band(valid, d.bit(row, p));
    opts.reset = clear;
    const Wire q = d.reg_forward("cnt" + std::to_string(p), counter_bits, opts);
    d.reg_connect(q, d.add(q, one));
    hrf.map_read(static_cast<std::uint32_t>(p), q);
  }
  hrf.finish();
  return d;
}

/// Picks the value an input is poked with this cycle; an empty BitVec
/// leaves the input as it is.
using Stimulus = std::function<BitVec(const std::string& name, Wire w)>;

/// Both threaded policies against the full-sweep oracle, over 50
/// clocked cycles of random pokes: every wire, RAM word and VCD byte
/// must agree. `opt` configures the threaded+opt side's optimizer;
/// `stim` replaces the default stimulus (each input, half the cycles,
/// a random value).
void expect_engines_match(const Design& d, util::Rng& rng,
                          const std::string& tag,
                          const OptimizeOptions& opt = {},
                          const Stimulus& stim = {}) {
  // The reference is the unoptimized full sweep, which shares no
  // scheduling code with the threaded engine. "thr_raw" covers the
  // region superop compiler and the dirty edge tape alone; "thr_opt"
  // additionally runs the fold/dce/cse/fuse netlist optimizer, so this
  // test is also the bit-exactness proof for every optimizer rewrite.
  SimOptions ref_opts;
  ref_opts.mode = EvalMode::kFullSweep;
  ref_opts.optimize = false;
  SimOptions thr_raw_opts;
  thr_raw_opts.mode = EvalMode::kThreaded;
  thr_raw_opts.optimize = false;
  SimOptions thr_opt_opts;
  thr_opt_opts.mode = EvalMode::kThreaded;
  thr_opt_opts.optimize = true;
  thr_opt_opts.opt = opt;
  Simulator full(d, ref_opts);
  Simulator thr_raw(d, thr_raw_opts);
  Simulator thr_opt(d, thr_opt_opts);
  const std::string full_vcd =
      ::testing::TempDir() + "/fuzz_full_" + tag + ".vcd";
  const std::string thr_raw_vcd =
      ::testing::TempDir() + "/fuzz_thr_raw_" + tag + ".vcd";
  const std::string thr_opt_vcd =
      ::testing::TempDir() + "/fuzz_thr_opt_" + tag + ".vcd";
  {
    VcdWriter wf(full, full_vcd);
    VcdWriter wtr(thr_raw, thr_raw_vcd);
    VcdWriter wto(thr_opt, thr_opt_vcd);
    for (int cycle = 0; cycle < 50; ++cycle) {
      // Random pokes, identical on all sides; skipping inputs some
      // cycles leaves quiescent islands for the worklist to skip.
      for (const auto& [name, w] : d.inputs()) {
        BitVec v;
        if (stim) {
          v = stim(name, w);
        } else if (rng.next_below(2) != 0) {
          v = random_bits(rng, w.width);
        }
        if (v.empty()) continue;
        full.poke(w, v);
        thr_raw.poke(w, v);
        thr_opt.poke(w, v);
      }
      // Every wire in the design, not just the ports — including wires
      // the optimizer aliased, folded or dead-code-eliminated.
      for (std::int32_t id = 0; id < d.wire_count(); ++id) {
        const Wire w{id, d.wire_width(id)};
        ASSERT_EQ(full.peek(w), thr_raw.peek(w))
            << "threaded wire " << id << ", cycle " << cycle << ", seed "
            << tag;
        ASSERT_EQ(full.peek(w), thr_opt.peek(w))
            << "threaded+opt wire " << id << ", cycle " << cycle
            << ", seed " << tag;
      }
      full.step();
      thr_raw.step();
      thr_opt.step();
    }
  }
  // Memory images must agree word for word.
  for (int m = 0; m < static_cast<int>(d.rams().size()); ++m) {
    for (std::int64_t a = 0; a < d.rams()[static_cast<std::size_t>(m)].words;
         ++a) {
      EXPECT_EQ(full.read_ram(m, a), thr_raw.read_ram(m, a))
          << "threaded RAM " << m << " word " << a << ", seed " << tag;
      EXPECT_EQ(full.read_ram(m, a), thr_opt.read_ram(m, a))
          << "threaded+opt RAM " << m << " word " << a << ", seed " << tag;
    }
  }
  // Identical samples => byte-identical waveforms.
  const std::string full_bytes = slurp(full_vcd);
  ASSERT_FALSE(full_bytes.empty());
  EXPECT_EQ(full_bytes, slurp(thr_raw_vcd)) << "threaded seed " << tag;
  EXPECT_EQ(full_bytes, slurp(thr_opt_vcd))
      << "threaded+opt seed " << tag;
  std::remove(full_vcd.c_str());
  std::remove(thr_raw_vcd.c_str());
  std::remove(thr_opt_vcd.c_str());
}

class SequentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// The threaded engine is the event-driven one: it re-evaluates only what
// a poke or an edge changed.
TEST_P(SequentialFuzz, EventDrivenMatchesFullSweep) {
  util::Rng rng(GetParam() * 7919 + 13);
  expect_engines_match(random_seq_design(rng, 140), rng,
                       std::to_string(GetParam()));
}

TEST_P(SequentialFuzz, WideRowCountersMatchFullSweep) {
  util::Rng rng(GetParam() * 104729 + 7);
  expect_engines_match(wide_row_design(rng), rng,
                       "row" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Host-bus idioms: the fuse pass turns priority mux chains over one
// address into one table select and 1-bit gates over a bit slice into
// and_bit. The oracle is the unoptimized full sweep, as above.

/// Host read-back shaped logic: priority mux chains over compares of
/// 1..32-bit address inputs with dense, sparse and duplicate keys,
/// zero-extended and >64-bit arms, and interior taps that have a second
/// consumer, are pinned by `keep` or are only ever peeked; plus 1-bit
/// gates over bit slices of 1-, 64- and 256-bit sources at lo = 0, 63,
/// 64 and 255, counting like the TRT core's histogram.
struct SelectFixture {
  Design d{"selfuzz"};
  std::map<std::string, std::vector<std::uint64_t>> keys;  // per address
  std::vector<Wire> taps;  // interior chain wires with a second consumer
  OptimizeOptions opt;     // keep: the pinned taps
};

SelectFixture select_design(util::Rng& rng) {
  SelectFixture f;
  Design& d = f.d;
  const auto draw = [&](int lo, int hi) {
    return lo + static_cast<int>(
                    rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  const auto pick = [&](const std::vector<Wire>& pool) {
    return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
  };
  // Values the arms read back, of assorted widths.
  std::vector<Wire> values;
  for (int i = 0; i < 4; ++i) {
    values.push_back(d.input("v" + std::to_string(i), draw(1, 70)));
  }
  values.push_back(d.reg("rv", d.input("rv_d", draw(1, 70))));
  std::vector<Wire> addrs;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "addr" + std::to_string(i);
    addrs.push_back(d.input(name, draw(1, 32)));
    f.keys[name];
  }
  int tap = 0;
  for (int chain = 0; chain < 3; ++chain) {
    const int width = rng.next_below(6) == 0 ? draw(65, 130) : draw(1, 64);
    const std::size_t ai = rng.next_below(2);
    const int links = draw(2, 40);
    const bool dense = rng.next_below(2) == 0;
    const std::uint64_t first = rng.next_u64();
    std::vector<std::uint64_t> chain_keys;
    std::vector<Wire> interior;
    Wire acc = rng.next_below(2) == 0 ? d.constant(width, 0)
                                      : d.resize(pick(values), width);
    for (int k = 0; k < links; ++k) {
      // Mostly the chain's own address; a link on the other one ends
      // the select there.
      const std::size_t a = rng.next_below(32) == 0 ? 1 - ai : ai;
      const Wire addr = addrs[a];
      std::uint64_t key;
      if (!chain_keys.empty() && rng.next_below(5) == 0) {
        key = chain_keys[static_cast<std::size_t>(
            rng.next_below(chain_keys.size()))];
      } else if (dense) {
        key = first + rng.next_below(static_cast<std::uint64_t>(links));
      } else {
        key = rng.next_u64();
      }
      key &= (std::uint64_t{1} << addr.width) - 1;
      chain_keys.push_back(key);
      f.keys["addr" + std::to_string(a)].push_back(key);
      const Wire k_wire = d.constant(addr.width, key);
      const Wire sel =
          rng.next_below(2) == 0 ? d.eq(addr, k_wire) : d.eq(k_wire, addr);
      acc = d.mux(sel, d.resize(pick(values), width), acc);
      if (k + 1 < links) interior.push_back(acc);
    }
    d.output("y" + std::to_string(chain), acc);
    // Up to two interior taps per chain: a second consumer, a keep pin,
    // or nothing but the every-wire peeks.
    for (int i = 0; i < 2 && !interior.empty(); ++i) {
      const Wire t = pick(interior);
      const std::string name = "tap" + std::to_string(tap++);
      switch (rng.next_below(4)) {
        case 0:
          d.output(name, t);
          f.taps.push_back(t);
          break;
        case 1:
          d.reg(name, t);
          f.taps.push_back(t);
          break;
        case 2:
          f.opt.keep.push_back(t);
          f.taps.push_back(t);
          break;
        default:
          break;
      }
    }
  }
  // 1-bit gates over bit slices, as the TRT core's LUT-row gates.
  const Wire en = d.input("en", 1);
  const Wire one = d.constant(8, 1);
  int gate = 0;
  for (const int width : {1, 64, 256}) {
    const std::string name = "src" + std::to_string(width);
    const Wire src = rng.next_below(2) == 0
                         ? d.input(name, width)
                         : d.reg(name + "_q", d.input(name, width));
    for (const int lo : {0, 63, 64, 255}) {
      if (lo >= width) continue;
      const Wire bit = d.bit(src, lo);
      const Wire g = rng.next_below(2) == 0 ? d.band(en, bit) : d.band(bit, en);
      RegOpts opts;
      opts.enable = g;
      const Wire q =
          d.reg_forward("cnt" + std::to_string(gate++), 8, opts);
      d.reg_connect(q, d.add(q, one));
      d.output("g" + std::to_string(gate), g);
    }
  }
  return f;
}

class SelectFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectFuzz, SelectAndBitGatesMatchFullSweep) {
  util::Rng rng(GetParam() * 15485863 + 5);
  const SelectFixture f = select_design(rng);
  const Design& d = f.d;

  // Structure: every select is single-word with unique ascending keys,
  // and no tap with a second consumer or a keep pin was folded away.
  const OptimizedNetlist opt = optimize(d, f.opt);
  const auto& comps = d.components();
  int selects = 0;
  int and_bits = 0;
  for (const auto& [idx, fc] : opt.fused) {
    if (fc.op == FusedOp::kAndBit) ++and_bits;
    if (fc.op != FusedOp::kSelect) continue;
    ++selects;
    EXPECT_LE(comps[static_cast<std::size_t>(idx)].out.width, 64);
    EXPECT_GE(fc.keys.size(), 1u);
    EXPECT_EQ(fc.keys.size(), fc.arms.size());
    EXPECT_TRUE(std::adjacent_find(fc.keys.begin(), fc.keys.end(),
                                   std::greater_equal<>()) == fc.keys.end());
  }
  for (const Wire t : f.taps) {
    for (std::size_t i = 0; i < comps.size(); ++i) {
      if (comps[i].kind == CompKind::kMux && comps[i].out.id == t.id) {
        EXPECT_TRUE(opt.comp_alive[i]) << "tap " << t.id;
      }
    }
  }
  EXPECT_GE(and_bits, 4);  // the 64- and 256-bit sources' gates

  // Stimulus: addresses hit a key, a key's neighbour or a random value.
  const Stimulus stim = [&](const std::string& name, Wire w) {
    const auto it = f.keys.find(name);
    if (it == f.keys.end() || it->second.empty()) {
      return rng.next_below(2) != 0 ? random_bits(rng, w.width) : BitVec{};
    }
    const std::vector<std::uint64_t>& keys = it->second;
    std::uint64_t a =
        keys[static_cast<std::size_t>(rng.next_below(keys.size()))];
    switch (rng.next_below(4)) {
      case 0: ++a; break;
      case 1: --a; break;
      case 2: a = rng.next_u64(); break;
      default: break;
    }
    return BitVec(w.width, a);
  };
  SCOPED_TRACE(::testing::Message()
               << selects << " selects, " << and_bits << " and_bits");
  expect_engines_match(d, rng, "sel" + std::to_string(GetParam()), f.opt,
                       stim);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

// Regression: registers whose enable is low (or whose reset re-asserts
// the value they already hold) must not wake the combinational cone
// behind them. This is the quiescent-logic case the TRT histogrammer
// spends most of its cycles in.
TEST(SequentialFuzz, QuiescentRegistersCostNoEvaluations) {
  Design d("quiet");
  const Wire en = d.input("en", 1);
  const Wire rst = d.input("rst", 1);
  const Wire data = d.input("d", 32);
  RegOpts opts;
  opts.enable = en;
  opts.reset = rst;
  opts.init = BitVec(32, 7);
  const Wire q = d.reg("r", data, opts);
  Wire x = q;
  for (int i = 0; i < 50; ++i) x = d.add(x, q);  // 51*q
  d.output("y", x);

  Simulator threaded(d, EvalMode::kThreaded);
  Simulator full(d, EvalMode::kFullSweep);
  for (Simulator* s : {&threaded, &full}) {
    s->poke("d", 123);
    EXPECT_EQ(s->peek_u64("y"), 51u * 7u);
    s->reset_activity();
  }
  threaded.run(1000);
  full.run(1000);
  // Enable low and D stable: the threaded engine does no comb work.
  EXPECT_EQ(threaded.activity().comp_evals, 0u);
  EXPECT_GT(full.activity().comp_evals, 10000u);

  // Reset asserted while the register already holds its init value:
  // still no change, still free.
  threaded.poke("rst", 1);
  threaded.run(100);
  EXPECT_EQ(threaded.activity().comp_evals, 0u);
  EXPECT_EQ(threaded.peek_u64("y"), 51u * 7u);

  // Releasing reset and enabling finally moves data through.
  threaded.poke("rst", 0);
  threaded.poke("en", 1);
  threaded.run(1);
  EXPECT_GT(threaded.activity().comp_evals, 0u);
  EXPECT_EQ(threaded.peek_u64("y"), 51u * 123u);
  full.poke("rst", 0);
  full.poke("en", 1);
  full.run(1);
  EXPECT_EQ(full.peek_u64("y"), 51u * 123u);
}

}  // namespace
}  // namespace atlantis::chdl
