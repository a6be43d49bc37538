// Region compiler for the threaded execution backend (chdl/threaded.hpp).
//
// The levelized op tape evaluates one opcode per dispatch; the threaded
// backend instead executes whole *regions* — fanout-free cones of
// combinational logic between register / RAM / port boundaries — as
// straight-line superop blocks. This header holds the region
// partitioning itself, kept free of Simulator internals so the
// invariants are unit-testable on plain graphs.
//
// Partitioning rule (deterministic, derived from the tape fanout table):
//
//   * cones — walking the tape in topological order, each op absorbs
//     every producer region whose root output it is the only tape
//     consumer of, while the merged size stays within `max_region_ops`.
//     The absorbed regions share no edges, so their blocks concatenated,
//     then the op, stay in topological order. Regions are fanout-free
//     cones: only a root (an op with no in-region consumer) ever feeds
//     another region. An op reading more than kMaxAbsorbingInputs wires
//     (a host read-back table select) absorbs nothing: it is dirtied by
//     any one of its inputs, and each time it would re-run every cone it
//     had absorbed;
//   * sibling groups — cones that read exactly the same set of external
//     wires are always dirtied together and sit at the same level, so
//     they are fused into one block. The cap does not apply: no member
//     ever runs when it would not have run on its own (the TRT core's
//     256 per-pattern LUT-row gates form one such block).
//
// This gives two structural guarantees:
//
//   * single entry: every cross-region edge leaves from an op with no
//     in-region consumer, so a region can be executed start to finish
//     with no interior change checks, and inter-region dirtiness can be
//     tracked by diffing region outputs only;
//   * the region DAG is acyclic and region levels (longest inter-region
//     path) strictly increase along every edge, so a level-bucketed
//     dirty worklist drains in one pass.
//
// Interior wires may still feed sequential elements or be observed by
// peeks/VCD; wires with sequential consumers are listed as region
// outputs too so the edge scheduler sees their changes.
#pragma once

#include <cstdint>
#include <vector>

namespace atlantis::chdl {

/// Combinational dependency graph the partitioner consumes: one node per
/// tape op (already in topological order), edges expressed as input wire
/// ids per op plus each op's output wire.
struct RegionGraph {
  std::int32_t wire_count = 0;
  std::vector<std::int32_t> in_begin;   // CSR: op -> slice of in_wires
  std::vector<std::int32_t> in_wires;   // input wire ids, per op
  std::vector<std::int32_t> out_wire;   // output wire id, per op
  // Per wire: consumed by a sequential element (register D/enable/reset,
  // RAM address/data/write-enable). Such wires must be diffed at region
  // boundaries even when no other region consumes them.
  std::vector<std::uint8_t> wire_seq_consumed;

  std::int32_t op_count() const {
    return static_cast<std::int32_t>(out_wire.size());
  }
};

/// Input count above which an op starts its own region (see above).
inline constexpr std::int32_t kMaxAbsorbingInputs = 3;

struct RegionBuildOptions {
  /// Upper bound on ops per cone. Bigger cones amortize dispatch better
  /// but re-execute more ops when one leaf input wiggles; 64 keeps the
  /// worst-case inflation bounded. Sibling groups (see above) may exceed
  /// it.
  int max_region_ops = 64;
};

/// One compiled region: a slice of `RegionPlan::op_order` executed
/// straight-line, plus the slice of `RegionPlan::out_wires` diffed after
/// execution.
struct Region {
  std::int32_t ops_begin = 0, ops_end = 0;    // into plan.op_order
  std::int32_t outs_begin = 0, outs_end = 0;  // into plan.out_wires
  std::int32_t level = 0;                     // region DAG level
};

struct RegionPlan {
  std::vector<Region> regions;
  std::vector<std::int32_t> op_order;    // op ids grouped per region
  std::vector<std::int32_t> out_wires;   // diffed wires, grouped per region
  std::vector<std::int32_t> op_region;   // op id -> owning region
  // Wire -> consuming regions CSR (deduplicated, ascending). Drives the
  // region-granular dirty worklist: pokes and sequential commits mark
  // exactly the regions that read a changed wire.
  std::vector<std::int32_t> fan_begin;
  std::vector<std::int32_t> fan_regions;
  std::int32_t max_level = 0;

  std::int32_t region_count() const {
    return static_cast<std::int32_t>(regions.size());
  }
};

/// Partitions the graph. Pure function of its inputs: identical graphs
/// and options produce identical plans (asserted by the determinism test
/// in tests/chdl/test_threaded.cpp).
RegionPlan build_region_plan(const RegionGraph& graph,
                             const RegionBuildOptions& opts = {});

}  // namespace atlantis::chdl
