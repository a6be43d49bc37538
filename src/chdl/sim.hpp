// Levelized cycle simulator for CHDL designs.
//
// The simulator keeps every wire's value in one flat word array (no
// allocation on the evaluation path) and latches registers and RAM ports
// on explicit clock edges. Synchronous-read RAMs return the pre-edge
// memory contents when an address is written on the same edge
// (read-before-write).
//
// During elaboration the combinational netlist is compiled, in
// component-creation order (which is topological), into a flat "op
// tape" of POD records (opcode, input/output word offsets, width
// mask). A slice that lies inside one 64-bit word of a wider wire
// compiles to a single-word op on that word, and a fused table select
// (a host read-back mux chain) to one op over a SelectTable. There are
// two evaluation policies:
//
//  * kThreaded (the default): the op tape is re-compiled into region
//    superops (fanout-free cones, chdl/region.hpp) executed by a
//    computed-goto threaded dispatcher (or its portable switch
//    fallback). Pokes and edge commits mark only the regions and
//    sequential components whose inputs actually changed, and a region
//    propagates onward only if one of its outputs changed, so quiescent
//    logic costs nothing (see chdl/threaded.hpp).
//  * kFullSweep: the original policy — every combinational component is
//    re-evaluated in topological order whenever anything might have
//    changed, and every sequential component latches on every edge.
//    It shares no evaluation code with kThreaded beyond the wide-op
//    helper, and is kept as the independent oracle for differential
//    testing (see tests/chdl/test_fuzz.cpp).
//
// The application drives the design directly — poke inputs, clock, peek
// outputs — which is the CHDL workflow: the C++ program that will operate
// the real FPGA is also its test bench. The word-valued poke/peek_u64
// forms allocate nothing for wires of 64 bits or fewer, which keeps a
// host-bus register access (chdl/hostif.hpp) free of heap traffic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chdl/design.hpp"
#include "chdl/optimize.hpp"
#include "chdl/region.hpp"
#include "sim/snapshot.hpp"

namespace atlantis::chdl {

class ThreadedBackend;

/// Combinational evaluation policy.
enum class EvalMode {
  kEventDriven,  // kept only so the benchmark compiles; means kThreaded
  kThreaded,     // region superops + computed-goto dispatch
  kFullSweep,    // re-evaluate everything (reference cross-check path)
  kAuto,         // kept only so the benchmark compiles; means kThreaded
};

/// Simulator construction options. The netlist optimizer
/// (chdl/optimize.hpp) is on by default; `optimize = false` is the
/// escape hatch that compiles the tape 1:1 from the elaborated design.
struct SimOptions {
  EvalMode mode = EvalMode::kThreaded;
  bool optimize = true;
  OptimizeOptions opt{};
  /// Region partitioning knobs for EvalMode::kThreaded.
  RegionBuildOptions region{};
};

/// Compiled lookup of one FusedOp::kSelect tape op: which word of the
/// value array holds the result for a given address. compile_tape picks
/// the form by a fixed rule: a dense table indexed by (address - first
/// key) when the keys span fewer than twice as many addresses as there
/// are keys, otherwise a binary search over the sorted keys.
struct SelectTable {
  std::int32_t default_off = 0;         // unmapped addresses read this
  std::uint64_t first_key = 0;          // dense: address of dense_off[0]
  std::vector<std::int32_t> dense_off;  // dense: per address, arm or default
  std::vector<std::uint64_t> keys;      // sparse: ascending, unique
  std::vector<std::int32_t> arm_off;    // sparse: parallel to keys

  std::int32_t lookup(std::uint64_t addr) const {
    if (!dense_off.empty()) {
      // Below first_key the difference wraps past the table's end.
      const std::uint64_t i = addr - first_key;
      return i < dense_off.size() ? dense_off[i] : default_off;
    }
    const auto it = std::lower_bound(keys.begin(), keys.end(), addr);
    return it != keys.end() && *it == addr ? arm_off[static_cast<std::size_t>(
                                                 it - keys.begin())]
                                           : default_off;
  }
};

/// Work counters for speed reporting and activity-based tuning.
struct SimActivity {
  std::uint64_t comp_evals = 0;    // combinational evaluations performed
  std::uint64_t comp_changes = 0;  // evaluations whose output changed
  std::uint64_t edges = 0;         // clock edges applied
};

class Simulator {
 public:
  /// Elaborates the design: runs the netlist optimizer (unless
  /// disabled), compiles combinational logic into the levelled op tape
  /// (throwing util::Error on a combinational cycle), builds the
  /// selected engine, allocates flat storage and applies power-up
  /// values.
  Simulator(const Design& design, const SimOptions& options);
  explicit Simulator(const Design& design,
                     EvalMode mode = EvalMode::kThreaded)
      : Simulator(design, SimOptions{.mode = mode}) {}
  ~Simulator();

  const Design& design() const { return design_; }

  /// The resolved evaluation policy: kThreaded or kFullSweep, never one
  /// of the legacy names (they resolve to kThreaded at construction and
  /// inside set_eval_mode).
  EvalMode eval_mode() const { return mode_; }
  /// Switches the evaluation policy; all combinational state is
  /// re-evaluated on the next peek/step, so results are unaffected.
  /// Each engine's structures are built the first time it is selected.
  void set_eval_mode(EvalMode mode);

  const SimActivity& activity() const { return activity_; }
  void reset_activity() { activity_ = {}; }

  /// Drives an input port. The word form masks `value` to the port's
  /// width; for ports of 64 bits or fewer it allocates nothing (the
  /// host-interface path), wider ports go through the BitVec form.
  void poke(Wire input, const BitVec& value);
  void poke(Wire input, std::uint64_t value);
  void poke(const std::string& port, std::uint64_t value);

  /// Reads any wire's current value (combinational logic is brought
  /// up to date first). peek_u64 allocates nothing for wires of 64 bits
  /// or fewer and throws for wider ones, like BitVec::to_u64.
  BitVec peek(Wire w);
  std::uint64_t peek_u64(Wire w);
  std::uint64_t peek_u64(const std::string& port);

  /// Applies one positive clock edge on the given domain, then
  /// re-evaluates combinational logic.
  void step(ClockId clock = {});
  /// Applies `n` edges on domain 0.
  void run(int n);

  /// Edges applied so far per clock domain.
  std::uint64_t cycles(ClockId clock = {}) const {
    return cycle_count_.at(static_cast<std::size_t>(clock.id));
  }

  /// Direct RAM access for loading images / reading results without
  /// simulating a host bus (tests and loaders use this; the driver path
  /// goes through the design's host interface instead).
  void write_ram(int ram, std::int64_t addr, const BitVec& value);
  BitVec read_ram(int ram, std::int64_t addr) const;

  /// Observer called after every clock edge (used by the VCD writer).
  using EdgeHook = std::function<void(Simulator&, ClockId)>;
  void set_edge_hook(EdgeHook hook) { edge_hook_ = std::move(hook); }

  /// Re-applies power-up values (registers to init, RAM reads to zero;
  /// RAM contents are preserved, ROMs reloaded). Also clears the
  /// activity counters: a reset starts a fresh measurement epoch, so
  /// work done before it is never double-counted against work after.
  void reset();

  /// Snapshottable leaf (see sim/snapshot.hpp): writes the complete
  /// replayable state — every wire word, every RAM word, per-domain
  /// cycle counts and the activity counters — into the caller's open
  /// section. Worklist/backend state is *not* serialized: it is derived,
  /// and load_state re-derives it by marking everything dirty, which
  /// converges to the identical fixed point on both eval backends
  /// (evaluation is a pure function of the restored values). load_state
  /// requires a simulator constructed over the same design and throws
  /// util::Error on a shape mismatch.
  void save_state(sim::SnapshotWriter& w) const;
  void load_state(sim::SnapshotReader& r);

  /// Levelization depth of the combinational netlist (longest
  /// comb path, in components).
  int comb_levels() const { return comb_levels_; }

  /// Number of ops compiled onto the op tape (after the optimizer, when
  /// enabled).
  std::size_t tape_ops() const { return tape_.size(); }
  /// True when the netlist optimizer ran at construction.
  bool optimized() const { return opt_.has_value(); }
  /// Per-pass optimizer accounting; nullptr when the optimizer is off.
  const OptimizeReport* optimize_report() const {
    return opt_ ? &opt_->report : nullptr;
  }

  /// The combinational dependency graph of the compiled tape (inputs
  /// resolved through the optimizer), as consumed by the threaded
  /// backend's region compiler. Exposed so tests can check the region
  /// partitioning invariants against the real tape.
  RegionGraph region_graph() const;
  /// The threaded backend's region plan; nullptr until kThreaded has
  /// been selected at construction or via set_eval_mode.
  const RegionPlan* region_plan() const;

 private:
  struct WireSlot {
    std::int32_t offset = 0;  // index into values_
    std::int32_t words = 0;
    std::int32_t width = 0;
  };

  /// One compiled combinational component. `single` marks the ≤64-bit
  /// fast path: every word it reads and the output are one word each, so
  /// the threaded backend decodes it into one TOp with no Component/Wire
  /// chasing. A kSelect op's `a` indexes select_tables_; a kAndBit op's
  /// in1 is the word holding the bit and `a` the bit within it.
  struct Op {
    CompKind kind = CompKind::kConst;
    FusedOp fused = FusedOp::kNone;  // != kNone: fused fast-path opcode
    bool single = false;
    std::int32_t comp = -1;      // index into design_.components()
    std::int32_t out_wire = -1;
    std::int32_t out_off = 0;
    std::int32_t in0 = 0, in1 = 0, in2 = 0;  // input word offsets
    std::int32_t a = 0;          // slice lo / shift amount / concat lo width
    std::uint64_t out_mask = ~std::uint64_t{0};
    std::uint64_t in_mask = ~std::uint64_t{0};  // kReduceAnd input mask
    std::uint64_t imm = 0;                      // fused immediate / shift
  };

  std::uint64_t* wire_ptr(std::int32_t id) {
    return values_.data() + slots_[static_cast<std::size_t>(id)].offset;
  }
  const std::uint64_t* wire_ptr(std::int32_t id) const {
    return values_.data() + slots_[static_cast<std::size_t>(id)].offset;
  }

  friend class ThreadedBackend;

  void eval_comb();
  void eval_comp(const Component& c, std::uint64_t* dst);
  void refresh_lazy();
  void commit_edge(ClockId clock);
  void collect_components();
  void compile_tape();
  void mark_all_dirty();
  void ensure_backend();
  void store(Wire w, const BitVec& v);
  BitVec load(Wire w) const;
  void check_input(Wire input) const;
  void note_input_changed(Wire input);
  SelectTable compile_select(const FusedComp& fc) const;

  const Design& design_;
  EvalMode mode_;
  std::optional<OptimizedNetlist> opt_;  // engaged iff optimizer enabled
  std::vector<WireSlot> slots_;
  std::vector<std::uint64_t> values_;
  std::vector<std::int32_t> comb_order_;   // comb components, creation order
  std::vector<std::int32_t> seq_comps_;    // kReg / kRamRead / kRamWrite
  std::vector<std::vector<std::uint64_t>> ram_data_;  // flat words per RAM
  std::vector<std::int32_t> ram_stride_;   // words per RAM entry
  std::vector<std::uint64_t> cycle_count_;
  // Staging for next register / RAM-read values (avoids ordering hazards).
  std::vector<std::uint64_t> stage_;
  bool comb_dirty_ = true;                 // full-sweep mode only
  EdgeHook edge_hook_;

  // The compiled op tape, decoded by the threaded backend.
  std::vector<Op> tape_;                   // comb ops, creation order
  std::vector<SelectTable> select_tables_;  // kSelect ops' lookups
  std::vector<std::int32_t> tape_in_begin_;  // tape op -> input wires CSR ...
  std::vector<std::int32_t> tape_in_wires_;  // ... (optimizer-resolved ids)
  int comb_levels_ = 0;                    // tape levels (max level + 1)
  std::vector<std::uint8_t> is_input_;     // per wire: design input?
  // DCE'd-but-observable logic: kept off the tape, re-evaluated only
  // when a peek asks for one of its wires (keeps peeks bit-identical).
  std::vector<std::int32_t> lazy_comps_;   // dead comb comps, topo order
  std::vector<std::uint8_t> wire_lazy_;    // per wire: driven by a dead comp
  bool lazy_stale_ = true;
  SimActivity activity_;

  // Threaded backend (chdl/threaded.hpp); built lazily on first use of
  // EvalMode::kThreaded and kept across mode switches.
  RegionBuildOptions region_opts_{};
  std::unique_ptr<ThreadedBackend> threaded_;
};

}  // namespace atlantis::chdl
