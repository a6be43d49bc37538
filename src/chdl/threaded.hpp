// Threaded-code execution backend for the CHDL op tape: the
// simulator's incremental engine (EvalMode::kThreaded, the default).
//
// A per-op interpreter pays a double switch (fused form, then component
// kind) plus worklist bookkeeping for every op it touches, and a plain
// edge commit sweeps every sequential component whether or not
// anything changed. This backend removes both costs, QEMU-TCG-style,
// while staying bit-identical to the full-sweep reference
// (EvalMode::kFullSweep), which the differential fuzzers check:
//
//  * flat opcode space — the tape is re-decoded once into TOp records
//    whose single `code` byte covers plain, single-word-fast-path and
//    peephole-fused forms alike, so dispatch is one indirection;
//  * computed-goto dispatch — on GCC/Clang each opcode's handler jumps
//    straight to the next op through a `&&label` table (one indirect
//    branch per op, predicted per-opcode); elsewhere, or when
//    ATLANTIS_THREADED_FORCE_SWITCH is defined, a portable switch loop
//    executes the identical handler bodies;
//  * region superops — chdl/region.hpp partitions the tape into
//    fanout-free cones (plus sibling groups of cones that read the same
//    wires) executed as straight-line blocks: no per-op queue flags, one
//    change check at the region outputs (diffed against a shadow copy of
//    the last value each consumer saw, through an (offset, words) array
//    parallel to the plan's output list, one compare for a one-word
//    output);
//  * host-bus idioms as single ops — a host read-back mux chain runs as
//    one table select (kSelect: dense offset table or binary search,
//    fixed at compile time) and a 1-bit gate over a bit of a wide row as
//    one and_bit, both produced by the optimizer's fuse pass;
//  * an event-driven edge tape — sequential components are compiled
//    into SeqOp records and latched only when marked dirty by a fanin
//    change (registers are idempotent once their inputs are stable; an
//    asserted RAM write port re-arms itself; a RAM word change re-arms
//    the RAM's read ports). A quiescent design commits an edge in O(1).
//
// Scheduling stays deterministic: regions drain level by level, and
// dirty sequential components commit in component-creation order,
// preserving the reference's last-write-wins ordering for multi-port
// RAM writes.
#pragma once

#include <cstdint>
#include <vector>

#include "chdl/design.hpp"
#include "chdl/region.hpp"

namespace atlantis::chdl {

class Simulator;

/// True when this build dispatches through the computed-goto label
/// table; false on non-GNU compilers or when the portable switch loop
/// was forced with -DATLANTIS_THREADED_FORCE_SWITCH (CI builds both).
bool threaded_uses_computed_goto();

/// Flat opcode space: one byte selects the handler directly. Order must
/// match the label table in threaded.cpp (static_assert'd there).
enum class TCode : std::uint8_t {
  kEnd = 0,    // region terminator
  kWide,       // multi-word / general op: delegate to Simulator::eval_comp
  // Single-word CompKind fast paths (semantics of Simulator::eval_comp).
  kNot,
  kAnd,
  kOr,
  kXor,
  kMux,
  kAdd,
  kSub,
  kEq,
  kUlt,
  kReduceAnd,
  kReduceOr,
  kReduceXor,
  kSlice,
  kConcat2,
  kShl,
  kShr,
  // Peephole-fused forms (chdl/optimize.hpp FusedOp).
  kAndNot,
  kOrNot,
  kEqImm,
  kNeImm,
  kUltImm,
  kImmUlt,
  kAddImm,
  kSubImm,
  kAndImm,
  kOrImm,
  kXorImm,
  kSliceImm,
  kAndBit,     // in1 = the word holding the bit, a = the bit within it
  kSelect,     // a indexes Simulator::select_tables_
  kCount_,
};

/// One decoded op. Offsets index the simulator's flat value array; no
/// Component/Wire chasing on the execution path except kWide.
struct TOp {
  TCode code = TCode::kEnd;
  std::int32_t in0 = 0, in1 = 0, in2 = 0;  // input word offsets
  std::int32_t out = 0;                    // output word offset
  std::int32_t a = 0;        // shift amount / slice lo / concat lo width /
                             // and_bit bit / select table index
  std::int32_t comp = -1;    // kWide: component index
  std::uint64_t mask = ~std::uint64_t{0};  // output width mask
  std::uint64_t imm = 0;     // fused immediate; kReduceAnd input mask
};

/// The compiled backend for one Simulator. Owns the region plan, the
/// decoded superop blocks, the shadow value copy and the sequential
/// edge tape; the Simulator forwards poke/eval/step/write_ram events
/// here when its mode is EvalMode::kThreaded.
/// Construction leaves nothing marked: the Simulator calls mark_all()
/// right after building the backend.
class ThreadedBackend {
 public:
  ThreadedBackend(Simulator& sim, const RegionBuildOptions& opts);

  /// Marks everything dirty: every region queued, every sequential
  /// component armed for its next edge. Used on mode switches / reset.
  void mark_all();
  /// A wire's value changed (poke or sequential commit): queue its
  /// consumer regions and arm its sequential consumers.
  void mark_wire(std::int32_t wire_id);
  /// Drains the region worklist level by level.
  void eval();
  /// Latches dirty registers / RAM ports on `clock`, then marks the
  /// fanout of every output that changed.
  void commit_edge(ClockId clock);
  /// RAM contents changed behind the design's back (Simulator::write_ram):
  /// re-arm the RAM's read ports.
  void note_ram_written(std::int32_t ram);

  const RegionPlan& plan() const { return plan_; }

 private:
  /// One compiled sequential component (register or RAM port).
  struct SeqOp {
    enum Kind : std::uint8_t { kReg1, kRegN, kRamRead, kRamWrite };
    Kind kind = kReg1;
    std::int32_t comp = -1;      // design component index (commit order key)
    std::int32_t clock = 0;
    std::int32_t out_wire = -1;
    std::int32_t out_off = 0;
    std::int32_t out_words = 0;
    std::int32_t d_off = -1;     // D / write-data word offset
    std::int32_t en_off = -1;    // enable / we offset; -1 = always enabled
    std::int32_t rst_off = -1;   // sync reset offset; -1 = none
    std::int32_t addr_off = -1;  // RAM port address offset
    std::int32_t ram = -1;
    const std::uint64_t* init = nullptr;  // register reset/init words
  };

  void decode_tape();
  void build_seq_tape();
  void execute_region(std::int32_t r);
  void mark_region(std::int32_t r);
  void mark_seq(std::int32_t s);

  Simulator& sim_;
  RegionPlan plan_;
  std::vector<TOp> code_;                  // superop blocks, kEnd-terminated
  std::vector<std::int32_t> code_begin_;   // region -> first TOp
  // Last value each region output propagated; diffing against it is the
  // single change check that replaces per-op change propagation.
  std::vector<std::uint64_t> shadow_;
  // Storage of each plan_.out_wires entry, parallel to it, so the diff
  // reads no WireSlot.
  struct OutSlot {
    std::int32_t offset = 0;
    std::int32_t words = 0;
  };
  std::vector<OutSlot> out_slots_;

  // Region worklist, bucketed by region level.
  std::vector<std::vector<std::int32_t>> buckets_;  // by region level
  std::vector<std::uint8_t> region_queued_;
  std::int64_t dirty_regions_ = 0;

  // Sequential edge tape.
  std::vector<SeqOp> seq_ops_;
  std::vector<std::vector<std::int32_t>> seq_dirty_;  // per clock domain
  std::vector<std::uint8_t> seq_queued_;
  std::vector<std::int32_t> seq_fan_begin_;  // wire -> consuming SeqOps CSR
  std::vector<std::int32_t> seq_fan_ops_;
  std::vector<std::vector<std::int32_t>> ram_readers_;  // ram -> SeqOp ids
  // Commit scratch (kept here so commits stay allocation-free).
  std::vector<std::int32_t> commit_order_;
  struct PendingWrite {
    std::int32_t ram;
    std::int64_t addr;
    std::int32_t src_off;
    std::int32_t words;
  };
  std::vector<PendingWrite> pending_writes_;
  std::vector<std::int32_t> touched_;
};

}  // namespace atlantis::chdl
