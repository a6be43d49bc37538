// Threaded backend: region partitioning invariants, region-output
// diffing, the set_eval_mode/reset contract, and the quiescent-cost
// bound on the real TRT core. The bit-exactness of the backend itself
// is proven by the three-way differential fuzz in test_fuzz.cpp; these
// tests pin the structural properties the executor's correctness
// argument rests on.
#include "chdl/threaded.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "chdl/builder.hpp"
#include "chdl/hostif.hpp"
#include "chdl/optimize.hpp"
#include "chdl/region.hpp"
#include "chdl/sim.hpp"
#include "chdl/verify.hpp"
#include "imgproc/conv_core.hpp"
#include "trt/trt_core.hpp"
#include "util/rng.hpp"

namespace atlantis::chdl {
namespace {

/// A design with enough structure to produce a non-trivial region plan:
/// shared subexpressions (multi-consumer wires force region breaks),
/// long chains (single-consumer runs fuse), registers and a RAM.
Design plan_fixture() {
  Design d("fixture");
  const Wire a = d.input("a", 16);
  const Wire b = d.input("b", 16);
  const Wire shared = d.add(a, b);  // consumed three times: its own region
  Wire chain = shared;
  for (int i = 0; i < 10; ++i) chain = d.bxor(d.add(chain, a), b);
  const Wire q = d.reg("q", d.band(shared, chain));
  const int ram = d.add_ram("m", 16, 16);
  d.ram_write(ram, d.slice(q, 0, 4), shared, d.reduce_or(chain));
  const Wire rd = d.ram_read(ram, d.slice(chain, 0, 4));
  d.output("y", d.bxor(rd, q));
  d.output("z", d.ult(shared, chain));
  return d;
}

TEST(Region, PlanIsDeterministic) {
  const Design d = plan_fixture();
  SimOptions so;
  so.mode = EvalMode::kThreaded;
  Simulator s1(d, so);
  Simulator s2(d, so);
  const RegionPlan* p1 = s1.region_plan();
  const RegionPlan* p2 = s2.region_plan();
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p1->op_order, p2->op_order);
  EXPECT_EQ(p1->out_wires, p2->out_wires);
  EXPECT_EQ(p1->op_region, p2->op_region);
  EXPECT_EQ(p1->fan_begin, p2->fan_begin);
  EXPECT_EQ(p1->fan_regions, p2->fan_regions);
  ASSERT_EQ(p1->regions.size(), p2->regions.size());
  for (std::size_t r = 0; r < p1->regions.size(); ++r) {
    EXPECT_EQ(p1->regions[r].ops_begin, p2->regions[r].ops_begin);
    EXPECT_EQ(p1->regions[r].ops_end, p2->regions[r].ops_end);
    EXPECT_EQ(p1->regions[r].level, p2->regions[r].level);
  }
}

/// The TRT core at the benchmark's size: 16x64 straws, 256 patterns.
Design trt_core_fixture() {
  trt::DetectorGeometry geo;
  geo.layers = 16;
  geo.straws_per_layer = 64;
  Design d("trt_core");
  trt::build_trt_core(d, trt::PatternBank(geo, 256));
  return d;
}

Design conv_core_fixture() {
  Design d("conv_core");
  imgproc::build_conv_core(d, 256, imgproc::Kernel3x3::gaussian());
  return d;
}

/// The executor's correctness argument: (1) every op belongs to exactly
/// one region, after its in-region producers; (2) every cross-region
/// edge leaves from an op with no in-region consumer (a cone root), so
/// executing a region straight-line with one change check at its outputs
/// is sound; (3) region levels strictly increase along inter-region
/// edges, so the level-bucketed worklist drains in one pass; (4) the
/// diffed output set covers exactly the externally consumed and
/// sequentially consumed wires.
void expect_region_invariants(const Design& d) {
  SCOPED_TRACE(d.name());
  Simulator sim(d, SimOptions{.mode = EvalMode::kThreaded});
  const RegionGraph g = sim.region_graph();
  const RegionPlan* plan = sim.region_plan();
  ASSERT_NE(plan, nullptr);

  // (1) op_order is a permutation of the tape, each op owned once.
  ASSERT_EQ(plan->op_order.size(), static_cast<std::size_t>(g.op_count()));
  std::set<std::int32_t> seen(plan->op_order.begin(), plan->op_order.end());
  EXPECT_EQ(seen.size(), plan->op_order.size());
  std::vector<std::int32_t> pos(plan->op_order.size());
  for (std::size_t k = 0; k < plan->op_order.size(); ++k) {
    pos[static_cast<std::size_t>(plan->op_order[k])] =
        static_cast<std::int32_t>(k);
  }
  for (std::int32_t r = 0; r < plan->region_count(); ++r) {
    const Region& region = plan->regions[static_cast<std::size_t>(r)];
    for (std::int32_t k = region.ops_begin; k < region.ops_end; ++k) {
      EXPECT_EQ(plan->op_region[static_cast<std::size_t>(
                    plan->op_order[static_cast<std::size_t>(k)])],
                r);
    }
  }

  std::map<std::int32_t, std::int32_t> producer;  // wire -> op
  for (std::int32_t t = 0; t < g.op_count(); ++t) {
    producer[g.out_wire[static_cast<std::size_t>(t)]] = t;
  }
  std::set<std::int32_t> external_or_seq;  // wires that must be diffed
  std::set<std::int32_t> in_region_consumed, crossing;  // producer ops
  for (std::int32_t t = 0; t < g.op_count(); ++t) {
    const std::int32_t rt = plan->op_region[static_cast<std::size_t>(t)];
    for (std::int32_t i = g.in_begin[static_cast<std::size_t>(t)];
         i < g.in_begin[static_cast<std::size_t>(t) + 1]; ++i) {
      const std::int32_t w = g.in_wires[static_cast<std::size_t>(i)];
      const auto it = producer.find(w);
      if (it == producer.end()) continue;  // port/register/RAM input
      const std::int32_t p = it->second;
      const std::int32_t rp = plan->op_region[static_cast<std::size_t>(p)];
      if (rp == rt) {
        // Intra-region edge: the producer executes earlier in the same
        // straight-line block.
        EXPECT_LT(pos[static_cast<std::size_t>(p)],
                  pos[static_cast<std::size_t>(t)])
            << "producer after consumer in region " << rp;
        in_region_consumed.insert(p);
        continue;
      }
      crossing.insert(p);
      // (3) levels strictly increase along the edge.
      EXPECT_LT(plan->regions[static_cast<std::size_t>(rp)].level,
                plan->regions[static_cast<std::size_t>(rt)].level);
      external_or_seq.insert(w);
    }
  }
  // (2) no op both feeds its own region and crosses to another one.
  for (const std::int32_t p : crossing) {
    EXPECT_EQ(in_region_consumed.count(p), 0u)
        << "op " << p << " has in-region consumers yet crosses a boundary";
  }
  for (std::int32_t t = 0; t < g.op_count(); ++t) {
    const std::int32_t w = g.out_wire[static_cast<std::size_t>(t)];
    if (g.wire_seq_consumed[static_cast<std::size_t>(w)] != 0) {
      external_or_seq.insert(w);
    }
  }
  // (4) the diffed set is exactly the externally/sequentially consumed
  // producer outputs.
  const std::set<std::int32_t> diffed(plan->out_wires.begin(),
                                      plan->out_wires.end());
  EXPECT_EQ(diffed, external_or_seq);
}

TEST(Region, SingleEntryInvariantsHoldOnRealTape) {
  expect_region_invariants(plan_fixture());
  expect_region_invariants(trt_core_fixture());
  expect_region_invariants(conv_core_fixture());
}

/// Tape op index per design wire (-1: no op drives it).
std::vector<std::int32_t> op_of_wire(const Design& d, const RegionGraph& g) {
  std::vector<std::int32_t> op(static_cast<std::size_t>(d.wire_count()), -1);
  for (std::int32_t t = 0; t < g.op_count(); ++t) {
    op[static_cast<std::size_t>(g.out_wire[static_cast<std::size_t>(t)])] = t;
  }
  return op;
}

// Sibling groups: the 256 per-pattern {bit select, AND valid} gates all
// read exactly {LUT row, valid_d1}; each fuses to one and_bit that reads
// its bit straight out of the row, and they are always dirtied together,
// so the 256 ops execute as one block.
TEST(Region, TrtLutRowGatesFormOneRegion) {
  const Design d = trt_core_fixture();
  const OptimizedNetlist opt = optimize(d);
  Simulator sim(d, SimOptions{.mode = EvalMode::kThreaded});
  const RegionGraph g = sim.region_graph();
  const RegionPlan* plan = sim.region_plan();
  ASSERT_NE(plan, nullptr);
  const std::vector<std::int32_t> op = op_of_wire(d, g);
  const auto& comps = d.components();
  Wire row{};
  for (const Component& c : comps) {
    if (c.kind == CompKind::kRamRead) row = c.out;  // the LUT ROM port
  }
  ASSERT_TRUE(row.valid());
  std::set<std::int32_t> selects;  // 1-bit slices of the row
  for (const Component& c : comps) {
    if (c.kind == CompKind::kSlice && c.in[0].id == row.id) {
      selects.insert(c.out.id);
    }
  }
  std::set<std::int32_t> regions;
  int gates = 0;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const Component& c = comps[i];
    if (c.kind != CompKind::kAnd || selects.count(c.in[1].id) == 0) continue;
    ++gates;
    const auto it = opt.fused.find(static_cast<std::int32_t>(i));
    ASSERT_NE(it, opt.fused.end());
    EXPECT_EQ(it->second.op, FusedOp::kAndBit);
    EXPECT_EQ(it->second.in1.id, row.id);
    const std::int32_t t = op[static_cast<std::size_t>(c.out.id)];
    ASSERT_GE(t, 0);
    regions.insert(plan->op_region[static_cast<std::size_t>(t)]);
  }
  ASSERT_EQ(selects.size(), 256u);
  EXPECT_EQ(gates, 256);
  // The bit selects run inside the gates: none is left on the tape.
  for (const std::int32_t w : selects) {
    EXPECT_LT(op[static_cast<std::size_t>(w)], 0);
  }
  ASSERT_EQ(regions.size(), 1u);
  const Region& block = plan->regions[static_cast<std::size_t>(*regions.begin())];
  EXPECT_EQ(block.ops_end - block.ops_begin, 256);
}

// HostRegFile's read-back mux chain (one mux per mapped address) is one
// table select reading all 262 mapped values, alone in its region: it
// absorbs none of the cones feeding it, so a change of one read-back
// value re-runs the select only.
TEST(Region, TrtReadBackIsOneSelectInItsOwnRegion) {
  const Design d = trt_core_fixture();
  const auto& comps = d.components();
  std::vector<std::int32_t> producer(static_cast<std::size_t>(d.wire_count()),
                                     -1);
  for (std::size_t i = 0; i < comps.size(); ++i) {
    if (comps[i].kind != CompKind::kOutput && comps[i].out.valid()) {
      producer[static_cast<std::size_t>(comps[i].out.id)] =
          static_cast<std::int32_t>(i);
    }
  }
  const Wire rdata = d.port("host_rdata");
  const std::int32_t head = producer[static_cast<std::size_t>(rdata.id)];
  ASSERT_GE(head, 0);
  ASSERT_EQ(comps[static_cast<std::size_t>(head)].kind, CompKind::kMux);
  const OptimizedNetlist opt = optimize(d);
  const auto it = opt.fused.find(head);
  ASSERT_NE(it, opt.fused.end());
  EXPECT_EQ(it->second.op, FusedOp::kSelect);
  EXPECT_EQ(it->second.keys.size(), 262u);
  EXPECT_EQ(it->second.arms.size(), 262u);

  Simulator sim(d, SimOptions{.mode = EvalMode::kThreaded});
  const RegionGraph g = sim.region_graph();
  const RegionPlan* plan = sim.region_plan();
  ASSERT_NE(plan, nullptr);
  const std::vector<std::int32_t> op = op_of_wire(d, g);
  const std::int32_t t = op[static_cast<std::size_t>(rdata.id)];
  ASSERT_GE(t, 0);
  EXPECT_EQ(g.in_begin[static_cast<std::size_t>(t) + 1] -
                g.in_begin[static_cast<std::size_t>(t)],
            264);  // address, default, 262 arms
  const Region& region = plan->regions[static_cast<std::size_t>(
      plan->op_region[static_cast<std::size_t>(t)])];
  EXPECT_EQ(region.ops_end - region.ops_begin, 1);
  // The chain's other muxes are off the tape (evaluated only if peeked).
  int interior = 0;
  for (std::int32_t c = producer[static_cast<std::size_t>(
           comps[static_cast<std::size_t>(head)].in[2].id)];
       c >= 0 && comps[static_cast<std::size_t>(c)].kind == CompKind::kMux;
       c = producer[static_cast<std::size_t>(
           comps[static_cast<std::size_t>(c)].in[2].id)]) {
    ++interior;
    EXPECT_LT(op[static_cast<std::size_t>(
                  comps[static_cast<std::size_t>(c)].out.id)],
              0);
  }
  EXPECT_EQ(interior, 261);
}

// The cone rule on a plain graph: an op reading more than three wires
// absorbs none of its single-consumer producers, an op reading three
// absorbs them all.
TEST(Region, WideReaderAbsorbsNoProducerCones) {
  // Wires 0..6 are graph inputs. Ops 0..3 map inputs 0..3 to wires
  // 7..10, op 4 reads all four; ops 5..7 map inputs 4..6 to wires
  // 11..13, op 8 reads those three.
  RegionGraph g;
  g.wire_count = 16;
  g.in_begin = {0};
  const auto add_op = [&g](std::vector<std::int32_t> ins, std::int32_t out) {
    g.in_wires.insert(g.in_wires.end(), ins.begin(), ins.end());
    g.in_begin.push_back(static_cast<std::int32_t>(g.in_wires.size()));
    g.out_wire.push_back(out);
  };
  for (std::int32_t k = 0; k < 4; ++k) add_op({k}, 7 + k);
  add_op({7, 8, 9, 10}, 14);
  for (std::int32_t k = 0; k < 3; ++k) add_op({4 + k}, 11 + k);
  add_op({11, 12, 13}, 15);
  g.wire_seq_consumed.assign(16, 0);
  g.wire_seq_consumed[14] = 1;
  g.wire_seq_consumed[15] = 1;

  const RegionPlan plan = build_region_plan(g);
  const auto region_of = [&](std::int32_t t) {
    return plan.op_region[static_cast<std::size_t>(t)];
  };
  const Region& wide = plan.regions[static_cast<std::size_t>(region_of(4))];
  EXPECT_EQ(wide.ops_end - wide.ops_begin, 1);
  for (std::int32_t k = 0; k < 4; ++k) {
    EXPECT_NE(region_of(k), region_of(4));
    EXPECT_LT(plan.regions[static_cast<std::size_t>(region_of(k))].level,
              wide.level);
  }
  const Region& narrow = plan.regions[static_cast<std::size_t>(region_of(8))];
  EXPECT_EQ(narrow.ops_end - narrow.ops_begin, 4);
  for (std::int32_t k = 5; k < 8; ++k) EXPECT_EQ(region_of(k), region_of(8));
}

TEST(Region, MaxRegionOpsCapsChains) {
  Design d("chain");
  Wire x = d.input("x", 32);
  const Wire one = d.input("k", 32);
  for (int i = 0; i < 100; ++i) x = d.add(x, one);
  d.output("y", x);
  SimOptions so;
  so.mode = EvalMode::kThreaded;
  so.optimize = false;
  so.region.max_region_ops = 8;
  Simulator sim(d, so);
  const RegionPlan* plan = sim.region_plan();
  ASSERT_NE(plan, nullptr);
  for (const Region& r : plan->regions) {
    EXPECT_LE(r.ops_end - r.ops_begin, 8);
  }
  sim.poke("x", 5);
  sim.poke("k", 3);
  EXPECT_EQ(sim.peek_u64("y"), (5ull + 100ull * 3ull) & 0xFFFFFFFFull);
}

// A region whose output does not change must not wake its consumers:
// the single change check at region outputs gives incremental
// evaluation its short-circuit property at region granularity.
TEST(Threaded, RegionOutputDiffShortCircuits) {
  Design d("diamond");
  const Wire a = d.input("a", 8);
  const Wire b = d.input("b", 8);
  const Wire m = d.band(a, b);  // two consumers: a one-op region
  d.output("y1", d.bor(m, d.input("c", 8)));
  d.output("y2", d.bxor(m, d.input("e", 8)));
  SimOptions so;
  so.mode = EvalMode::kThreaded;
  so.optimize = false;
  Simulator sim(d, so);
  sim.poke("a", 0x0F);
  sim.poke("b", 0xF0);  // m = 0
  sim.peek_u64("y1");
  sim.reset_activity();
  // a changes but m stays 0: only m's own region re-executes.
  sim.poke("a", 0x07);
  sim.peek_u64("y1");
  EXPECT_EQ(sim.activity().comp_evals, 1u);
  EXPECT_EQ(sim.activity().comp_changes, 0u);
  // Now make m change: downstream regions run too.
  sim.poke("b", 0xFF);
  sim.peek_u64("y1");
  EXPECT_EQ(sim.activity().comp_evals, 4u);  // m again + its two consumers
  EXPECT_EQ(sim.peek_u64("y2"), (0x07ull & 0xFFull) ^ 0ull);
}

TEST(Threaded, DispatchFlavorMatchesBuild) {
#if defined(ATLANTIS_THREADED_FORCE_SWITCH)
  // CI's fallback builds must really exercise the switch loop.
  EXPECT_FALSE(threaded_uses_computed_goto());
#elif defined(__GNUC__) || defined(__clang__)
  EXPECT_TRUE(threaded_uses_computed_goto());
#else
  EXPECT_FALSE(threaded_uses_computed_goto());
#endif
  // Whichever dispatch this build uses, it must agree with the other
  // two backends on every wire (three-way check, threaded reference).
  const Design d = plan_fixture();
  BackendCheckOptions opts;
  opts.cycles = 200;
  const BackendCheckReport rep = check_backends(d, opts);
  EXPECT_TRUE(rep) << rep.mismatch;
}

// reset() starts a fresh measurement epoch: activity counters cleared,
// all state re-marked, results identical to a freshly built simulator.
TEST(Threaded, ResetClearsActivityAndRebuildsDirtyState) {
  const Design d = plan_fixture();
  for (const EvalMode mode : {EvalMode::kThreaded, EvalMode::kFullSweep}) {
    Simulator sim(d, mode);
    sim.poke("a", 123);
    sim.poke("b", 77);
    sim.run(20);
    EXPECT_GT(sim.activity().comp_evals, 0u);
    EXPECT_GT(sim.activity().edges, 0u);
    sim.reset();
    EXPECT_EQ(sim.activity().comp_evals, 0u);
    EXPECT_EQ(sim.activity().comp_changes, 0u);
    EXPECT_EQ(sim.activity().edges, 0u);
    EXPECT_EQ(sim.cycles(), 0u);
    // Post-reset behaviour matches a fresh simulator bit for bit.
    Simulator fresh(d, mode);
    sim.poke("a", 9);
    fresh.poke("a", 9);
    sim.poke("b", 4);
    fresh.poke("b", 4);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(sim.peek_u64("y"), fresh.peek_u64("y"));
      EXPECT_EQ(sim.peek_u64("z"), fresh.peek_u64("z"));
      sim.step();
      fresh.step();
    }
  }
}

// Switching backends mid-run must rebuild dirty state (no stale values
// leak) and a same-mode switch must be a no-op.
TEST(Threaded, MidRunModeSwitchIsBitIdentical) {
  const Design d = plan_fixture();
  Simulator switching(d, EvalMode::kFullSweep);
  Simulator full(d, EvalMode::kFullSweep);
  Simulator threaded(d, EvalMode::kThreaded);
  util::Rng rng(99);
  const EvalMode schedule[] = {EvalMode::kThreaded, EvalMode::kFullSweep,
                               EvalMode::kThreaded, EvalMode::kFullSweep,
                               EvalMode::kThreaded};
  int phase = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    if (cycle % 20 == 10) {
      // Poke while dirty, THEN switch: the rebuild must pick it up.
      switching.set_eval_mode(schedule[phase++ % 5]);
    }
    const std::uint64_t va = rng.next_u64() & 0xFFFF;
    const std::uint64_t vb = rng.next_u64() & 0xFFFF;
    for (Simulator* s : {&switching, &full, &threaded}) {
      s->poke("a", va);
      s->poke("b", vb);
    }
    for (std::int32_t id = 0; id < d.wire_count(); ++id) {
      const Wire w{id, d.wire_width(id)};
      ASSERT_EQ(switching.peek(w), full.peek(w))
          << "wire " << wire_name(d, id) << " cycle " << cycle;
      ASSERT_EQ(threaded.peek(w), full.peek(w))
          << "wire " << wire_name(d, id) << " cycle " << cycle;
    }
    switching.step();
    full.step();
    threaded.step();
  }

  // Same-mode switch: no rebuild, no extra work on the next peek.
  threaded.peek_u64("y");
  threaded.reset_activity();
  threaded.set_eval_mode(EvalMode::kThreaded);
  threaded.peek_u64("y");
  EXPECT_EQ(threaded.activity().comp_evals, 0u);
}

// The headline property behind the bench_a5 speedup: an idle TRT cycle
// changes no region or register input, so it evaluates nothing.
TEST(Threaded, QuiescentTrtCycleCostMatchesEventMode) {
  trt::DetectorGeometry geo;
  geo.layers = 8;
  geo.straws_per_layer = 32;
  trt::PatternBank bank(geo, 64);
  Design d("trt_quiescent");
  trt::build_trt_core(d, bank);

  Simulator sim(d, EvalMode::kThreaded);
  HostInterface host(sim);
  host.write(0x01, 5);  // one hit, then let the core go quiescent
  host.idle(50);
  sim.reset_activity();
  host.idle(1000);  // measured region: pure idle cycles
  EXPECT_EQ(sim.activity().comp_evals, 0u);
  EXPECT_EQ(sim.activity().edges, 1000u);
}

TEST(Verify, CheckBackendsReportsDivergentWireByName) {
  // A healthy design passes the default three-way check.
  Design d("ok");
  const Wire x = d.input("x", 8);
  const Wire pipe = d.reg("pipe", d.add(x, d.constant(8, 1)));
  d.output("q", d.bnot(pipe));
  const BackendCheckReport rep = check_backends(d);
  EXPECT_TRUE(rep) << rep.mismatch;
  EXPECT_EQ(rep.cycles_run, 500u);

  // wire_name resolves ports, named components and anonymous nets.
  EXPECT_EQ(wire_name(d, x.id), "input 'x'");
  EXPECT_EQ(wire_name(d, d.port("q").id), "output 'q'");
  EXPECT_EQ(wire_name(d, pipe.id), "'pipe'");
  EXPECT_EQ(wire_name(d, 999), "#999");
}

TEST(Verify, CheckBackendsPinsExplicitSides) {
  const Design d = plan_fixture();
  BackendCheckOptions opts;
  opts.cycles = 100;
  SimOptions thr_raw;
  thr_raw.mode = EvalMode::kThreaded;
  thr_raw.optimize = false;
  SimOptions thr_opt;
  thr_opt.mode = EvalMode::kThreaded;
  thr_opt.optimize = true;
  SimOptions full;
  full.mode = EvalMode::kFullSweep;
  full.optimize = false;
  opts.sides = {full, thr_raw, thr_opt};
  const BackendCheckReport rep = check_backends(d, opts);
  EXPECT_TRUE(rep) << rep.mismatch;
}

// kEventDriven and kAuto survive only as names: both resolve to the
// threaded engine, at construction and in set_eval_mode, on any tape.
TEST(Auto, EveryTapeResolvesToThreaded) {
  const Design tiny = [] {
    Design d("tiny");
    d.output("y", d.bnot(d.input("x", 8)));
    return d;
  }();
  const Design fixture = plan_fixture();
  const Design conv = conv_core_fixture();
  for (const Design* d : {&tiny, &fixture, &conv}) {
    for (const EvalMode legacy : {EvalMode::kAuto, EvalMode::kEventDriven}) {
      Simulator sim(*d, SimOptions{.mode = legacy});
      EXPECT_EQ(sim.eval_mode(), EvalMode::kThreaded) << d->name();
      EXPECT_NE(sim.region_plan(), nullptr) << d->name();

      Simulator switched(*d, EvalMode::kFullSweep);
      EXPECT_EQ(switched.region_plan(), nullptr) << d->name();
      switched.set_eval_mode(legacy);
      EXPECT_EQ(switched.eval_mode(), EvalMode::kThreaded) << d->name();
      EXPECT_NE(switched.region_plan(), nullptr) << d->name();
    }
  }
  // A bare Simulator runs the threaded engine too.
  Simulator plain(fixture);
  EXPECT_EQ(plain.eval_mode(), EvalMode::kThreaded);
}

}  // namespace
}  // namespace atlantis::chdl
