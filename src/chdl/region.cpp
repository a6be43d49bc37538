#include "chdl/region.hpp"

#include <algorithm>
#include <compare>

#include "util/status.hpp"

namespace atlantis::chdl {

RegionPlan build_region_plan(const RegionGraph& graph,
                             const RegionBuildOptions& opts) {
  const std::int32_t n_ops = graph.op_count();
  const std::size_t n_wires = static_cast<std::size_t>(graph.wire_count);
  ATLANTIS_CHECK(opts.max_region_ops >= 1, "max_region_ops must be >= 1");
  ATLANTIS_CHECK(graph.in_begin.size() == static_cast<std::size_t>(n_ops) + 1,
                 "RegionGraph CSR size mismatch");
  const auto ins_begin = [&](std::int32_t t) {
    return graph.in_begin[static_cast<std::size_t>(t)];
  };
  const auto ins_end = [&](std::int32_t t) {
    return graph.in_begin[static_cast<std::size_t>(t) + 1];
  };
  const auto in_wire = [&](std::int32_t i) {
    return graph.in_wires[static_cast<std::size_t>(i)];
  };

  // Producer op and distinct-consumer summary per wire. sole_consumer is
  // the consuming op when there is exactly one, -1 for none, -2 for many.
  std::vector<std::int32_t> producer(n_wires, -1);
  std::vector<std::int32_t> sole_consumer(n_wires, -1);
  for (std::int32_t t = 0; t < n_ops; ++t) {
    producer[static_cast<std::size_t>(graph.out_wire[
        static_cast<std::size_t>(t)])] = t;
    for (std::int32_t i = ins_begin(t); i < ins_end(t); ++i) {
      auto& c = sole_consumer[static_cast<std::size_t>(in_wire(i))];
      if (c == -1) {
        c = t;
      } else if (c != t) {
        c = -2;
      }
    }
  }

  // Phase 1: fanout-free cones, one per root op, identified by the root.
  // Op t absorbs every producer cone whose root output only t consumes
  // (while the cap allows); the absorbed cones share no edges, so their
  // member lists concatenated, then t, stay topological. A cone that is
  // not absorbed by its root's sole consumer never will be, so producer
  // levels are final when a consumer reads them.
  std::vector<std::int32_t> next(static_cast<std::size_t>(n_ops), -1);
  std::vector<std::int32_t> head(static_cast<std::size_t>(n_ops));
  std::vector<std::int32_t> cone_size(static_cast<std::size_t>(n_ops));
  std::vector<std::int32_t> level(static_cast<std::size_t>(n_ops));
  std::vector<std::int32_t> absorbed_by(static_cast<std::size_t>(n_ops), -1);
  for (std::int32_t t = 0; t < n_ops; ++t) {
    const std::size_t ut = static_cast<std::size_t>(t);
    std::int32_t first = -1, last = -1, n = 1, lvl = 0;
    // A wide reader (a table select) changes on any of its many inputs;
    // an absorbed cone would re-run on every one of them.
    const bool absorbs = ins_end(t) - ins_begin(t) <= kMaxAbsorbingInputs;
    for (std::int32_t i = ins_begin(t); i < ins_end(t); ++i) {
      const std::int32_t w = in_wire(i);
      const std::int32_t p = producer[static_cast<std::size_t>(w)];
      if (p < 0) continue;
      const std::size_t up = static_cast<std::size_t>(p);
      if (absorbed_by[up] == t) continue;  // operand repeated
      if (absorbs && sole_consumer[static_cast<std::size_t>(w)] == t &&
          n + cone_size[up] <= opts.max_region_ops) {
        absorbed_by[up] = t;
        n += cone_size[up];
        lvl = std::max(lvl, level[up]);
        if (last < 0) {
          first = head[up];
        } else {
          next[static_cast<std::size_t>(last)] = head[up];
        }
        last = p;  // a cone's root is its last member
        continue;
      }
      lvl = std::max(lvl, level[up] + 1);
    }
    if (last >= 0) next[static_cast<std::size_t>(last)] = t;
    head[ut] = first >= 0 ? first : t;
    cone_size[ut] = n;
    level[ut] = lvl;
  }

  // Live cones in creation (root) order, and each op's cone.
  std::vector<std::int32_t> cones;
  std::vector<std::int32_t> op_cone(static_cast<std::size_t>(n_ops));
  for (std::int32_t t = 0; t < n_ops; ++t) {
    if (absorbed_by[static_cast<std::size_t>(t)] >= 0) continue;
    const auto c = static_cast<std::int32_t>(cones.size());
    cones.push_back(t);
    for (std::int32_t m = head[static_cast<std::size_t>(t)]; m >= 0;
         m = next[static_cast<std::size_t>(m)]) {
      op_cone[static_cast<std::size_t>(m)] = c;
    }
  }
  const auto n_cones = static_cast<std::int32_t>(cones.size());

  // Phase 2: sibling groups. Cones reading the same external wire set are
  // always dirtied together (and sit at the same level), so they execute
  // as one block; the size cap does not apply, since no member ever runs
  // when it would not have run on its own. Groups are found by sorting
  // the cones on their sorted external-input lists.
  std::vector<std::int32_t> stamp(n_wires, -1);
  std::vector<std::int32_t> ext_begin(static_cast<std::size_t>(n_cones) + 1, 0);
  std::vector<std::int32_t> ext;
  for (std::int32_t c = 0; c < n_cones; ++c) {
    for (std::int32_t m = head[static_cast<std::size_t>(
             cones[static_cast<std::size_t>(c)])];
         m >= 0; m = next[static_cast<std::size_t>(m)]) {
      for (std::int32_t i = ins_begin(m); i < ins_end(m); ++i) {
        const std::int32_t w = in_wire(i);
        const std::int32_t p = producer[static_cast<std::size_t>(w)];
        if (p >= 0 && op_cone[static_cast<std::size_t>(p)] == c) continue;
        if (stamp[static_cast<std::size_t>(w)] == c) continue;
        stamp[static_cast<std::size_t>(w)] = c;
        ext.push_back(w);
      }
    }
    std::sort(ext.begin() + ext_begin[static_cast<std::size_t>(c)], ext.end());
    ext_begin[static_cast<std::size_t>(c) + 1] =
        static_cast<std::int32_t>(ext.size());
  }
  const auto ext_first = [&](std::int32_t c) {
    return ext.begin() + ext_begin[static_cast<std::size_t>(c)];
  };
  const auto ext_last = [&](std::int32_t c) {
    return ext.begin() + ext_begin[static_cast<std::size_t>(c) + 1];
  };
  const auto compare_ext = [&](std::int32_t a, std::int32_t b) {
    return std::lexicographical_compare_three_way(ext_first(a), ext_last(a),
                                                  ext_first(b), ext_last(b));
  };
  std::vector<std::int32_t> by_ext(static_cast<std::size_t>(n_cones));
  for (std::int32_t c = 0; c < n_cones; ++c) {
    by_ext[static_cast<std::size_t>(c)] = c;
  }
  std::sort(by_ext.begin(), by_ext.end(), [&](std::int32_t a, std::int32_t b) {
    const auto order = compare_ext(a, b);
    return order != 0 ? order < 0 : a < b;
  });
  // Each cone's group leader: the group's first cone in creation order.
  std::vector<std::int32_t> leader(static_cast<std::size_t>(n_cones));
  for (std::size_t k = 0; k < by_ext.size(); ++k) {
    const std::int32_t c = by_ext[k];
    const bool same = k > 0 && compare_ext(by_ext[k - 1], c) == 0;
    leader[static_cast<std::size_t>(c)] =
        same ? leader[static_cast<std::size_t>(by_ext[k - 1])] : c;
  }

  // Phase 3: regions numbered by their leader's creation order, member
  // cones concatenated in creation order.
  RegionPlan plan;
  std::vector<std::int32_t> cone_region(static_cast<std::size_t>(n_cones));
  std::vector<std::int32_t> region_leader;
  for (std::int32_t c = 0; c < n_cones; ++c) {
    const std::int32_t l = leader[static_cast<std::size_t>(c)];
    if (l == c) {
      cone_region[static_cast<std::size_t>(c)] = plan.region_count();
      region_leader.push_back(c);
      Region region;
      region.level = level[static_cast<std::size_t>(
          cones[static_cast<std::size_t>(c)])];
      plan.max_level = std::max(plan.max_level, region.level);
      plan.regions.push_back(region);
    } else {
      cone_region[static_cast<std::size_t>(c)] =
          cone_region[static_cast<std::size_t>(l)];
    }
    // ops_end counts the region's ops until the prefix sum below.
    plan.regions[static_cast<std::size_t>(
        cone_region[static_cast<std::size_t>(c)])].ops_end +=
        cone_size[static_cast<std::size_t>(cones[static_cast<std::size_t>(c)])];
  }
  std::int32_t pos = 0;
  for (Region& region : plan.regions) {
    region.ops_begin = pos;
    pos += region.ops_end;
    region.ops_end = region.ops_begin;  // fill cursor below
  }
  plan.op_order.resize(static_cast<std::size_t>(n_ops));
  plan.op_region.resize(static_cast<std::size_t>(n_ops));
  for (std::int32_t c = 0; c < n_cones; ++c) {
    const std::int32_t r = cone_region[static_cast<std::size_t>(c)];
    Region& region = plan.regions[static_cast<std::size_t>(r)];
    for (std::int32_t m = head[static_cast<std::size_t>(
             cones[static_cast<std::size_t>(c)])];
         m >= 0; m = next[static_cast<std::size_t>(m)]) {
      plan.op_order[static_cast<std::size_t>(region.ops_end++)] = m;
      plan.op_region[static_cast<std::size_t>(m)] = r;
    }
  }

  // Diffed outputs per region: wires leaving the region for another
  // region or a sequential element.
  for (std::int32_t r = 0; r < plan.region_count(); ++r) {
    Region& region = plan.regions[static_cast<std::size_t>(r)];
    region.outs_begin = static_cast<std::int32_t>(plan.out_wires.size());
    for (std::int32_t k = region.ops_begin; k < region.ops_end; ++k) {
      const std::int32_t t = plan.op_order[static_cast<std::size_t>(k)];
      const std::int32_t w = graph.out_wire[static_cast<std::size_t>(t)];
      const std::int32_t c = sole_consumer[static_cast<std::size_t>(w)];
      const bool external_tape_consumer =
          c == -2 ||
          (c >= 0 && plan.op_region[static_cast<std::size_t>(c)] != r);
      if (external_tape_consumer ||
          graph.wire_seq_consumed[static_cast<std::size_t>(w)] != 0) {
        plan.out_wires.push_back(w);
      }
    }
    region.outs_end = static_cast<std::int32_t>(plan.out_wires.size());
  }

  // Wire -> consuming regions CSR, ascending per wire. A region's
  // external inputs are its leader cone's list (sibling cones read the
  // same wires and share no edges), so the producing region is excluded
  // — its interior consumers already saw the value while the block
  // executed — which also guarantees every mark issued while the level
  // queue drains targets a strictly higher level. Graph inputs (ports,
  // register outputs) list every reading region.
  plan.fan_begin.assign(n_wires + 1, 0);
  for (const std::int32_t c : region_leader) {
    for (auto w = ext_first(c); w != ext_last(c); ++w) {
      ++plan.fan_begin[static_cast<std::size_t>(*w) + 1];
    }
  }
  for (std::size_t w = 0; w < n_wires; ++w) {
    plan.fan_begin[w + 1] += plan.fan_begin[w];
  }
  plan.fan_regions.resize(static_cast<std::size_t>(plan.fan_begin.back()));
  std::vector<std::int32_t> cursor(plan.fan_begin.begin(),
                                   plan.fan_begin.end() - 1);
  for (std::int32_t r = 0; r < plan.region_count(); ++r) {
    const std::int32_t c = region_leader[static_cast<std::size_t>(r)];
    for (auto w = ext_first(c); w != ext_last(c); ++w) {
      plan.fan_regions[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(*w)]++)] = r;
    }
  }
  return plan;
}

}  // namespace atlantis::chdl
