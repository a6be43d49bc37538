#include "chdl/sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "chdl/threaded.hpp"
#include "util/bitops.hpp"

namespace atlantis::chdl {
namespace {

int words_for(int width) { return BitVec::word_count(width); }

std::uint64_t width_mask(int width) {
  return width >= 64 ? ~std::uint64_t{0} : util::low_mask(width);
}

void mask_top_word(std::uint64_t* p, int width) {
  const int rem = width % 64;
  if (rem != 0) p[(width - 1) / 64] &= util::low_mask(rem);
}

bool get_bit(const std::uint64_t* p, int i) {
  return ((p[i / 64] >> (i % 64)) & 1) != 0;
}

void set_bit(std::uint64_t* p, int i, bool v) {
  const std::uint64_t m = std::uint64_t{1} << (i % 64);
  if (v) {
    p[i / 64] |= m;
  } else {
    p[i / 64] &= ~m;
  }
}

/// Copies n bits from src[src_lo..] to dst[dst_lo..]. Bit-granular; hot
/// designs keep buses <= 64 bits where the word fast paths apply instead.
void copy_bits(std::uint64_t* dst, int dst_lo, const std::uint64_t* src,
               int src_lo, int n) {
  for (int i = 0; i < n; ++i) set_bit(dst, dst_lo + i, get_bit(src, src_lo + i));
}

/// The one place legacy policy names resolve: kAuto and kEventDriven
/// both mean the threaded engine.
EvalMode resolve(EvalMode mode) {
  return mode == EvalMode::kFullSweep ? EvalMode::kFullSweep
                                      : EvalMode::kThreaded;
}

}  // namespace

Simulator::Simulator(const Design& design, const SimOptions& options)
    : design_(design),
      mode_(resolve(options.mode)),
      region_opts_(options.region) {
  design.check_complete();
  if (options.optimize) opt_.emplace(optimize(design, options.opt));
  // Allocate one flat slot per wire. A wire the optimizer forwarded
  // shares its representative's slot (the representative always has a
  // smaller id, so its slot is already assigned); pokes, peeks and VCD
  // dumps then observe optimized-away wires with zero extra machinery.
  slots_.resize(static_cast<std::size_t>(design.wire_count()));
  std::int32_t offset = 0;
  for (std::int32_t id = 0; id < design.wire_count(); ++id) {
    auto& s = slots_[static_cast<std::size_t>(id)];
    if (opt_) {
      const std::int32_t rep = opt_->forward[static_cast<std::size_t>(id)];
      if (rep != id) {
        s = slots_[static_cast<std::size_t>(rep)];
        continue;
      }
    }
    const int width = design.wire_width(id);
    s.offset = offset;
    s.width = width;
    s.words = words_for(width);
    offset += s.words;
  }
  values_.assign(static_cast<std::size_t>(offset), 0);
  stage_.assign(static_cast<std::size_t>(offset), 0);

  is_input_.assign(slots_.size(), 0);
  for (const auto& [name, w] : design.inputs()) {
    is_input_[static_cast<std::size_t>(w.id)] = 1;
  }

  // RAM storage.
  ram_data_.resize(design.rams().size());
  ram_stride_.resize(design.rams().size());
  for (std::size_t r = 0; r < design.rams().size(); ++r) {
    const RamBlock& blk = design.rams()[r];
    ram_stride_[r] = words_for(blk.width);
    ram_data_[r].assign(
        static_cast<std::size_t>(blk.words) * ram_stride_[r], 0);
  }

  cycle_count_.assign(static_cast<std::size_t>(design.clock_count()), 0);
  collect_components();
  if (opt_) {
    // An aliased component's output shares its representative's storage
    // slot, so the full sweep must never evaluate it: kinds that
    // zero-fill the destination before reading (shift, slice, concat)
    // would wipe their own input when the alias points at it. The
    // representative keeps the shared slot up to date.
    std::erase_if(comb_order_, [&](std::int32_t i) {
      const Wire w = design.components()[static_cast<std::size_t>(i)].out;
      return opt_->forward[static_cast<std::size_t>(w.id)] != w.id;
    });
  }
  compile_tape();

  // Dead-but-observable logic: comb components the optimizer dropped
  // from the tape without replacing their output (not aliased, not
  // folded to a constant). They are re-evaluated lazily so peeks of
  // their wires stay bit-identical to the unoptimized engine.
  wire_lazy_.assign(slots_.size(), 0);
  if (opt_) {
    const auto& comps = design.components();
    for (const std::int32_t i : comb_order_) {
      if (opt_->comp_alive[static_cast<std::size_t>(i)]) continue;
      const Component& c = comps[static_cast<std::size_t>(i)];
      const std::int32_t id = c.out.id;
      if (opt_->forward[static_cast<std::size_t>(id)] != id) continue;
      if (opt_->folded(id)) continue;
      lazy_comps_.push_back(i);
      wire_lazy_[static_cast<std::size_t>(id)] = 1;
    }
  }
  ensure_backend();
  reset();
}

Simulator::~Simulator() = default;

void Simulator::ensure_backend() {
  // The threaded backend is built on first selection only, so a
  // full-sweep simulator never pays for its region plan.
  if (mode_ == EvalMode::kThreaded && !threaded_) {
    threaded_ = std::make_unique<ThreadedBackend>(*this, region_opts_);
  }
}

RegionGraph Simulator::region_graph() const {
  RegionGraph g;
  g.wire_count = design_.wire_count();
  g.in_begin = tape_in_begin_;
  g.in_wires = tape_in_wires_;
  g.out_wire.reserve(tape_.size());
  for (const Op& op : tape_) g.out_wire.push_back(op.out_wire);
  g.wire_seq_consumed.assign(slots_.size(), 0);
  const auto& comps = design_.components();
  for (const std::int32_t i : seq_comps_) {
    for (const Wire w : comps[static_cast<std::size_t>(i)].in) {
      if (!w.valid()) continue;
      const Wire r = opt_ ? opt_->rep(w) : w;
      g.wire_seq_consumed[static_cast<std::size_t>(r.id)] = 1;
    }
  }
  return g;
}

const RegionPlan* Simulator::region_plan() const {
  return threaded_ ? &threaded_->plan() : nullptr;
}

void Simulator::collect_components() {
  // Creation order is topological for combinational logic: a component
  // can only read wires that already exist (only registers are
  // forward-declared), so every comb input's id precedes the output id.
  // It also stays topological after optimization, because every rewrite
  // (alias, CSE representative, fused operand) points at an
  // earlier-created wire — unlike a levelized order of the original
  // graph, in which a CSE representative need not precede its merged
  // twin's consumers.
  const auto& comps = design_.components();
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(comps.size()); ++i) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    switch (c.kind) {
      case CompKind::kReg:
      case CompKind::kRamRead:
      case CompKind::kRamWrite:
        seq_comps_.push_back(i);
        break;
      case CompKind::kInput:
      case CompKind::kConst:
      case CompKind::kOutput:
        break;
      default:
        for (const Wire w : c.in) {
          if (w.valid() && w.id >= c.out.id) {
            throw util::Error("combinational cycle in design '" +
                              design_.name() + "' involving component #" +
                              std::to_string(i));
          }
        }
        comb_order_.push_back(i);
        break;
    }
  }
}

void Simulator::compile_tape() {
  const auto& comps = design_.components();
  // Topological level of each comb component's producing op.
  std::vector<std::int32_t> level_of_wire(slots_.size(), -1);
  tape_.clear();
  tape_.reserve(comb_order_.size());
  select_tables_.clear();
  // Effective inputs per tape op, kept as a CSR: the component's inputs
  // resolved through the optimizer's forwarding map, or the fused
  // operands when the peephole pass rewrote the op. Used for levels,
  // word offsets and the threaded backend's region compiler
  // (Simulator::region_graph), so dirtiness propagates along the
  // optimized graph.
  tape_in_begin_.assign(1, 0);
  tape_in_wires_.clear();
  std::vector<Wire> ins;
  int max_level = 0;
  for (const std::int32_t i : comb_order_) {
    if (opt_ && !opt_->comp_alive[static_cast<std::size_t>(i)]) continue;
    const Component& c = comps[static_cast<std::size_t>(i)];
    const WireSlot& out = slots_[static_cast<std::size_t>(c.out.id)];
    Op op;
    op.kind = c.kind;
    op.comp = i;
    op.out_wire = c.out.id;
    op.out_off = out.offset;
    op.out_mask = width_mask(out.width);

    const FusedComp* fc = nullptr;
    if (opt_) {
      const auto it = opt_->fused.find(i);
      if (it != opt_->fused.end()) fc = &it->second;
    }
    ins.clear();
    if (fc != nullptr) {
      ins.push_back(fc->in0);
      if (fc->in1.valid()) ins.push_back(fc->in1);
      ins.insert(ins.end(), fc->arms.begin(), fc->arms.end());
    } else {
      for (const Wire w : c.in) {
        if (!w.valid()) continue;
        ins.push_back(opt_ ? opt_->rep(w) : w);
      }
    }
    std::int32_t level = 0;
    for (const Wire w : ins) {
      const std::int32_t lw = level_of_wire[static_cast<std::size_t>(w.id)];
      level = std::max(level, lw + 1);
    }
    level_of_wire[static_cast<std::size_t>(c.out.id)] = level;
    max_level = std::max(max_level, level);

    // Single-word fast path: output and every input fit one word and the
    // operand layout maps onto the fixed in0/in1/in2 offsets.
    auto all_single = [&] {
      if (out.words != 1) return false;
      for (const Wire w : ins) {
        if (slots_[static_cast<std::size_t>(w.id)].words != 1) return false;
      }
      return true;
    };
    std::int32_t in0_word = 0;  // word of input 0 a single-word op reads
    std::int32_t in1_word = 0;  // word of input 1 a single-word op reads
    if (fc != nullptr) {
      // Fused opcodes read one word per operand.
      op.fused = fc->op;
      op.imm = fc->imm;
      op.single = true;
      if (fc->op == FusedOp::kAndBit) {
        in1_word = static_cast<std::int32_t>(fc->imm / 64);
        op.a = static_cast<std::int32_t>(fc->imm % 64);
      } else if (fc->op == FusedOp::kSelect) {
        op.a = static_cast<std::int32_t>(select_tables_.size());
        select_tables_.push_back(compile_select(*fc));
      }
    } else {
      switch (c.kind) {
        case CompKind::kNot:
        case CompKind::kAnd:
        case CompKind::kOr:
        case CompKind::kXor:
        case CompKind::kMux:
        case CompKind::kAdd:
        case CompKind::kSub:
        case CompKind::kEq:
        case CompKind::kUlt:
        case CompKind::kReduceAnd:
        case CompKind::kReduceOr:
        case CompKind::kReduceXor:
          op.single = all_single();
          break;
        case CompKind::kSlice:
          // A slice that lies inside one 64-bit word of its input, however
          // wide that input is, is a single-word shift-and-mask of that
          // word (the 256-bit TRT LUT row's per-pattern bit selects).
          op.single = c.a % 64 + out.width <= 64;
          op.a = c.a % 64;
          in0_word = c.a / 64;
          break;
        case CompKind::kShl:
        case CompKind::kShr:
          // c.a >= 64 would make the word shift UB; the general path
          // handles those (they are all-zero results anyway).
          op.single = all_single() && c.a < 64;
          op.a = c.a;
          break;
        case CompKind::kConcat:
          // Two-part {hi, lo} concat compiles to shift+or; `a` holds the
          // low part's width.
          op.single = all_single() && ins.size() == 2;
          if (op.single) op.a = ins[1].width;
          break;
        default:
          break;  // kMuxN and anything else stays on the general path
      }
    }
    if (op.single) {
      auto off = [&](std::size_t k) {
        return slots_[static_cast<std::size_t>(ins[k].id)].offset;
      };
      if (ins.size() > 0) op.in0 = off(0) + in0_word;
      if (ins.size() > 1) op.in1 = off(1) + in1_word;
      if (ins.size() > 2) op.in2 = off(2);
      if (fc == nullptr && c.kind == CompKind::kReduceAnd) {
        op.in_mask = width_mask(ins[0].width);
      }
    }
    tape_.push_back(op);
    for (const Wire w : ins) tape_in_wires_.push_back(w.id);
    tape_in_begin_.push_back(static_cast<std::int32_t>(tape_in_wires_.size()));
  }
  comb_levels_ = max_level + 1;
}

SelectTable Simulator::compile_select(const FusedComp& fc) const {
  const auto off = [&](Wire w) {
    return slots_[static_cast<std::size_t>(w.id)].offset;
  };
  SelectTable t;
  t.default_off = off(fc.in1);
  // The optimizer hands over unique ascending keys, so the span below
  // counts every address from the first key to the last.
  const std::uint64_t span = fc.keys.back() - fc.keys.front();
  if (span < 2 * static_cast<std::uint64_t>(fc.keys.size())) {
    t.first_key = fc.keys.front();
    t.dense_off.assign(static_cast<std::size_t>(span) + 1, t.default_off);
    for (std::size_t k = 0; k < fc.keys.size(); ++k) {
      t.dense_off[static_cast<std::size_t>(fc.keys[k] - t.first_key)] =
          off(fc.arms[k]);
    }
  } else {
    t.keys = fc.keys;
    for (const Wire w : fc.arms) t.arm_off.push_back(off(w));
  }
  return t;
}

void Simulator::mark_all_dirty() {
  comb_dirty_ = true;
  lazy_stale_ = true;
  if (threaded_) threaded_->mark_all();
}

void Simulator::set_eval_mode(EvalMode mode) {
  mode = resolve(mode);
  if (mode == mode_) return;
  mode_ = mode;
  ensure_backend();
  // Everything is re-evaluated on the next peek/step so stale values
  // cannot leak across the policy switch: the threaded worklists see no
  // marks while the full sweep runs, so the rebuild here is what makes a
  // mid-run switch sound.
  mark_all_dirty();
}

void Simulator::reset() {
  // Fresh measurement epoch (see header): pre-reset work must not be
  // double-counted by speed reports that reset + drive + read activity.
  activity_ = {};
  std::fill(values_.begin(), values_.end(), 0);
  const auto& comps = design_.components();
  for (const Component& c : comps) {
    if (c.kind == CompKind::kConst || c.kind == CompKind::kReg) {
      store(c.out, c.init);
    }
  }
  // Wires the optimizer proved constant: written once here, their
  // producers never appear on the tape again.
  if (opt_) {
    for (std::int32_t id = 0; id < design_.wire_count(); ++id) {
      const BitVec& v = opt_->fold_value[static_cast<std::size_t>(id)];
      if (!v.empty()) store(Wire{id, v.width()}, v);
    }
  }
  // ROM contents (and zero for RAMs).
  for (std::size_t r = 0; r < design_.rams().size(); ++r) {
    const RamBlock& blk = design_.rams()[r];
    if (!blk.init.empty()) {
      for (std::size_t a = 0; a < blk.init.size(); ++a) {
        const auto& w = blk.init[a].words();
        std::copy(w.begin(), w.end(),
                  ram_data_[r].begin() +
                      static_cast<std::ptrdiff_t>(a) * ram_stride_[r]);
      }
    } else {
      std::fill(ram_data_[r].begin(), ram_data_[r].end(), 0);
    }
  }
  std::fill(cycle_count_.begin(), cycle_count_.end(), 0);
  mark_all_dirty();
}

void Simulator::save_state(sim::SnapshotWriter& w) const {
  // Only primary state goes into the stream. Worklists, shadow values
  // and region plans are derived; load_state rebuilds them.
  w.put_string(design_.name());
  w.put_words(values_);
  w.put_u32(static_cast<std::uint32_t>(ram_data_.size()));
  for (const std::vector<std::uint64_t>& ram : ram_data_) w.put_words(ram);
  w.put_words(cycle_count_);
  w.put_u64(activity_.comp_evals);
  w.put_u64(activity_.comp_changes);
  w.put_u64(activity_.edges);
}

void Simulator::load_state(sim::SnapshotReader& r) {
  const std::string name = r.get_string();
  ATLANTIS_CHECK(name == design_.name(),
                 "snapshot was taken from design '" + name + "', not '" +
                     design_.name() + "'");
  std::vector<std::uint64_t> values = r.get_words();
  ATLANTIS_CHECK(values.size() == values_.size(),
                 "snapshot wire storage shape mismatch");
  const std::uint32_t n_rams = r.get_u32();
  ATLANTIS_CHECK(n_rams == ram_data_.size(), "snapshot RAM count mismatch");
  std::vector<std::vector<std::uint64_t>> rams;
  rams.reserve(n_rams);
  for (std::uint32_t i = 0; i < n_rams; ++i) {
    rams.push_back(r.get_words());
    ATLANTIS_CHECK(rams.back().size() == ram_data_[i].size(),
                   "snapshot RAM shape mismatch");
  }
  std::vector<std::uint64_t> cycles = r.get_words();
  ATLANTIS_CHECK(cycles.size() == cycle_count_.size(),
                 "snapshot clock domain count mismatch");
  values_ = std::move(values);
  ram_data_ = std::move(rams);
  cycle_count_ = std::move(cycles);
  activity_.comp_evals = r.get_u64();
  activity_.comp_changes = r.get_u64();
  activity_.edges = r.get_u64();
  // Re-derive everything else: with all ops marked dirty, the next
  // evaluation recomputes every combinational value from the restored
  // wires — a pure function of them — so both backends converge to
  // the same fixed point the saved simulator held.
  mark_all_dirty();
}

void Simulator::store(Wire w, const BitVec& v) {
  ATLANTIS_CHECK(v.width() == w.width, "value width mismatch");
  const WireSlot& s = slots_[static_cast<std::size_t>(w.id)];
  std::copy(v.words().begin(), v.words().end(), values_.begin() + s.offset);
}

BitVec Simulator::load(Wire w) const {
  const WireSlot& s = slots_[static_cast<std::size_t>(w.id)];
  BitVec v(w.width);
  std::copy(values_.begin() + s.offset, values_.begin() + s.offset + s.words,
            v.words().begin());
  return v;
}

void Simulator::check_input(Wire input) const {
  ATLANTIS_CHECK(input.valid() &&
                     input.id < static_cast<std::int32_t>(is_input_.size()) &&
                     is_input_[static_cast<std::size_t>(input.id)] != 0,
                 "poke target is not a design input");
}

void Simulator::note_input_changed(Wire input) {
  if (mode_ == EvalMode::kThreaded) threaded_->mark_wire(input.id);
  comb_dirty_ = true;
  lazy_stale_ = true;
}

void Simulator::poke(Wire input, const BitVec& value) {
  check_input(input);
  ATLANTIS_CHECK(value.width() == input.width, "value width mismatch");
  const WireSlot& s = slots_[static_cast<std::size_t>(input.id)];
  std::uint64_t* dst = values_.data() + s.offset;
  if (std::equal(value.words().begin(), value.words().end(), dst)) {
    return;  // unchanged input: nothing downstream can change
  }
  std::copy(value.words().begin(), value.words().end(), dst);
  note_input_changed(input);
}

void Simulator::poke(Wire input, std::uint64_t value) {
  if (input.width > 64) {
    poke(input, BitVec(input.width, value));
    return;
  }
  check_input(input);
  std::uint64_t& dst = values_[static_cast<std::size_t>(
      slots_[static_cast<std::size_t>(input.id)].offset)];
  value &= width_mask(input.width);
  if (dst == value) return;
  dst = value;
  note_input_changed(input);
}

void Simulator::poke(const std::string& port, std::uint64_t value) {
  poke(design_.port(port), value);
}

BitVec Simulator::peek(Wire w) {
  eval_comb();
  if (lazy_stale_ && w.valid() &&
      wire_lazy_[static_cast<std::size_t>(w.id)] != 0) {
    refresh_lazy();
  }
  return load(w);
}

void Simulator::refresh_lazy() {
  // Observability path only: brings DCE'd logic up to date for a peek.
  // Deliberately not counted in activity_ — the op tape never ran these.
  const auto& comps = design_.components();
  for (const std::int32_t i : lazy_comps_) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    eval_comp(c, values_.data() +
                     slots_[static_cast<std::size_t>(c.out.id)].offset);
  }
  lazy_stale_ = false;
}

std::uint64_t Simulator::peek_u64(Wire w) {
  if (!w.valid() || w.width > 64) return peek(w).to_u64();
  eval_comb();
  if (lazy_stale_ && wire_lazy_[static_cast<std::size_t>(w.id)] != 0) {
    refresh_lazy();
  }
  return values_[static_cast<std::size_t>(
      slots_[static_cast<std::size_t>(w.id)].offset)];
}

std::uint64_t Simulator::peek_u64(const std::string& port) {
  return peek_u64(design_.port(port));
}

void Simulator::eval_comb() {
  if (mode_ == EvalMode::kThreaded) {
    threaded_->eval();
    return;
  }
  if (!comb_dirty_) return;
  const auto& comps = design_.components();
  for (const std::int32_t i : comb_order_) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    eval_comp(c, values_.data() +
                     slots_[static_cast<std::size_t>(c.out.id)].offset);
  }
  activity_.comp_evals += comb_order_.size();
  comb_dirty_ = false;
  lazy_stale_ = false;  // the sweep covers DCE'd components too
}

void Simulator::eval_comp(const Component& c, std::uint64_t* dst) {
  const WireSlot& out = slots_[static_cast<std::size_t>(c.out.id)];
  auto src = [&](std::size_t k) -> const std::uint64_t* {
    return wire_ptr(c.in[k].id);
  };
  switch (c.kind) {
    case CompKind::kNot: {
      const std::uint64_t* a = src(0);
      for (int w = 0; w < out.words; ++w) dst[w] = ~a[w];
      mask_top_word(dst, out.width);
      break;
    }
    case CompKind::kAnd: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      for (int w = 0; w < out.words; ++w) dst[w] = a[w] & b[w];
      break;
    }
    case CompKind::kOr: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      for (int w = 0; w < out.words; ++w) dst[w] = a[w] | b[w];
      break;
    }
    case CompKind::kXor: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      for (int w = 0; w < out.words; ++w) dst[w] = a[w] ^ b[w];
      break;
    }
    case CompKind::kMux: {
      const bool sel = (src(0)[0] & 1) != 0;
      const std::uint64_t* v = sel ? src(1) : src(2);
      std::copy(v, v + out.words, dst);
      break;
    }
    case CompKind::kMuxN: {
      const std::uint64_t selv = src(0)[0];
      const std::size_t n = c.in.size() - 1;
      const std::size_t idx = std::min<std::uint64_t>(selv, n - 1);
      const std::uint64_t* v = src(1 + idx);
      std::copy(v, v + out.words, dst);
      break;
    }
    case CompKind::kAdd: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      unsigned __int128 carry = 0;
      for (int w = 0; w < out.words; ++w) {
        const unsigned __int128 s =
            static_cast<unsigned __int128>(a[w]) + b[w] + carry;
        dst[w] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
      mask_top_word(dst, out.width);
      break;
    }
    case CompKind::kSub: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      unsigned __int128 carry = 1;
      for (int w = 0; w < out.words; ++w) {
        const unsigned __int128 s =
            static_cast<unsigned __int128>(a[w]) + ~b[w] + carry;
        dst[w] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
      mask_top_word(dst, out.width);
      break;
    }
    case CompKind::kEq: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      const int n = slots_[static_cast<std::size_t>(c.in[0].id)].words;
      bool equal = true;
      for (int w = 0; w < n; ++w) {
        if (a[w] != b[w]) {
          equal = false;
          break;
        }
      }
      dst[0] = equal ? 1 : 0;
      break;
    }
    case CompKind::kUlt: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      const int n = slots_[static_cast<std::size_t>(c.in[0].id)].words;
      bool lt = false;
      for (int w = n; w-- > 0;) {
        if (a[w] != b[w]) {
          lt = a[w] < b[w];
          break;
        }
      }
      dst[0] = lt ? 1 : 0;
      break;
    }
    case CompKind::kReduceAnd: {
      const Wire in0 = c.in[0];
      const std::uint64_t* a = src(0);
      bool all = true;
      for (int i = 0; i < in0.width && all; ++i) all = get_bit(a, i);
      dst[0] = all ? 1 : 0;
      break;
    }
    case CompKind::kReduceOr: {
      const std::uint64_t* a = src(0);
      const int n = slots_[static_cast<std::size_t>(c.in[0].id)].words;
      bool any = false;
      for (int w = 0; w < n && !any; ++w) any = a[w] != 0;
      dst[0] = any ? 1 : 0;
      break;
    }
    case CompKind::kReduceXor: {
      const std::uint64_t* a = src(0);
      const int n = slots_[static_cast<std::size_t>(c.in[0].id)].words;
      std::uint64_t acc = 0;
      for (int w = 0; w < n; ++w) acc ^= a[w];
      dst[0] = static_cast<std::uint64_t>(std::popcount(acc) & 1);
      break;
    }
    case CompKind::kSlice: {
      const std::uint64_t* a = src(0);
      if (c.a % 64 == 0 && out.width <= 64) {
        dst[0] = a[c.a / 64];
        mask_top_word(dst, out.width);
      } else if (c.a + out.width <= 64) {
        dst[0] = (a[0] >> c.a) & util::low_mask(out.width);
      } else {
        std::fill(dst, dst + out.words, 0);
        copy_bits(dst, 0, a, c.a, out.width);
      }
      break;
    }
    case CompKind::kConcat: {
      std::fill(dst, dst + out.words, 0);
      // in[0] is the most significant part.
      int lo = 0;
      for (std::size_t k = c.in.size(); k-- > 0;) {
        copy_bits(dst, lo, src(k), 0, c.in[k].width);
        lo += c.in[k].width;
      }
      break;
    }
    case CompKind::kShl: {
      const std::uint64_t* a = src(0);
      std::fill(dst, dst + out.words, 0);
      if (c.a < out.width) copy_bits(dst, c.a, a, 0, out.width - c.a);
      break;
    }
    case CompKind::kShr: {
      const std::uint64_t* a = src(0);
      std::fill(dst, dst + out.words, 0);
      if (c.a < out.width) copy_bits(dst, 0, a, c.a, out.width - c.a);
      break;
    }
    default:
      break;  // sequential / port kinds are not evaluated here
  }
}

void Simulator::step(ClockId clock) {
  ATLANTIS_CHECK(clock.id >= 0 && clock.id < design_.clock_count(),
                 "unknown clock domain");
  eval_comb();
  if (mode_ == EvalMode::kThreaded) {
    threaded_->commit_edge(clock);
  } else {
    commit_edge(clock);
    comb_dirty_ = true;
  }
  eval_comb();
  ++cycle_count_[static_cast<std::size_t>(clock.id)];
  ++activity_.edges;
  if (edge_hook_) edge_hook_(*this, clock);
}

void Simulator::run(int n) {
  for (int i = 0; i < n; ++i) step();
}

void Simulator::commit_edge(ClockId clock) {
  // The full sweep's edge: every sequential component of the domain
  // latches, whatever changed, so this path stays independent of the
  // threaded backend's dirty edge tape.
  const auto& comps = design_.components();
  // Phase 1: compute next values into stage_ (reads see pre-edge state).
  struct PendingWrite {
    std::int32_t ram;
    std::int64_t addr;
    std::int32_t src_wire;
  };
  static thread_local std::vector<PendingWrite> writes;
  writes.clear();
  static thread_local std::vector<std::int32_t> touched;
  touched.clear();

  for (const std::int32_t i : seq_comps_) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    if (c.clock != clock.id) continue;
    switch (c.kind) {
      case CompKind::kReg: {
        const WireSlot& out = slots_[static_cast<std::size_t>(c.out.id)];
        std::uint64_t* st = stage_.data() + out.offset;
        const Wire en = c.in[1];
        const Wire rst = c.in[2];
        const bool reset_now = rst.valid() && (wire_ptr(rst.id)[0] & 1) != 0;
        const bool enabled =
            !en.valid() || (wire_ptr(en.id)[0] & 1) != 0;
        if (reset_now) {
          std::copy(c.init.words().begin(), c.init.words().end(), st);
        } else if (enabled) {
          const std::uint64_t* d = wire_ptr(c.in[0].id);
          std::copy(d, d + out.words, st);
        } else {
          const std::uint64_t* q = wire_ptr(c.out.id);
          std::copy(q, q + out.words, st);
        }
        touched.push_back(c.out.id);
        break;
      }
      case CompKind::kRamRead: {
        const WireSlot& out = slots_[static_cast<std::size_t>(c.out.id)];
        std::uint64_t* st = stage_.data() + out.offset;
        const bool enabled =
            c.in.size() < 2 || (wire_ptr(c.in[1].id)[0] & 1) != 0;
        if (enabled) {
          const RamBlock& blk =
              design_.rams()[static_cast<std::size_t>(c.ram)];
          const std::uint64_t addr =
              wire_ptr(c.in[0].id)[0] % static_cast<std::uint64_t>(blk.words);
          const std::uint64_t* mem =
              ram_data_[static_cast<std::size_t>(c.ram)].data() +
              addr * static_cast<std::uint64_t>(
                         ram_stride_[static_cast<std::size_t>(c.ram)]);
          std::copy(mem, mem + out.words, st);
        } else {
          const std::uint64_t* q = wire_ptr(c.out.id);
          std::copy(q, q + out.words, st);
        }
        touched.push_back(c.out.id);
        break;
      }
      case CompKind::kRamWrite: {
        const bool we = (wire_ptr(c.in[2].id)[0] & 1) != 0;
        if (we) {
          const RamBlock& blk =
              design_.rams()[static_cast<std::size_t>(c.ram)];
          const auto addr = static_cast<std::int64_t>(
              wire_ptr(c.in[0].id)[0] % static_cast<std::uint64_t>(blk.words));
          writes.push_back({c.ram, addr, c.in[1].id});
        }
        break;
      }
      default:
        break;
    }
  }
  // Phase 2: commit RAM writes (after all reads sampled old contents).
  for (const PendingWrite& w : writes) {
    const std::int32_t stride = ram_stride_[static_cast<std::size_t>(w.ram)];
    std::uint64_t* mem = ram_data_[static_cast<std::size_t>(w.ram)].data() +
                         static_cast<std::uint64_t>(w.addr) * stride;
    const std::uint64_t* d = wire_ptr(w.src_wire);
    std::copy(d, d + stride, mem);
  }
  // Phase 3: commit register / read-port outputs. The caller re-sweeps
  // all combinational logic afterwards.
  for (const std::int32_t id : touched) {
    const WireSlot& s = slots_[static_cast<std::size_t>(id)];
    const std::uint64_t* st = stage_.data() + s.offset;
    std::copy(st, st + s.words, values_.data() + s.offset);
  }
}

void Simulator::write_ram(int ram, std::int64_t addr, const BitVec& value) {
  ATLANTIS_CHECK(ram >= 0 && ram < static_cast<int>(ram_data_.size()),
                 "unknown RAM");
  const RamBlock& blk = design_.rams()[static_cast<std::size_t>(ram)];
  ATLANTIS_CHECK(addr >= 0 && addr < blk.words, "RAM address out of range");
  ATLANTIS_CHECK(value.width() == blk.width, "RAM data width mismatch");
  std::copy(value.words().begin(), value.words().end(),
            ram_data_[static_cast<std::size_t>(ram)].begin() +
                static_cast<std::ptrdiff_t>(addr) *
                    ram_stride_[static_cast<std::size_t>(ram)]);
  // The change is visible through the RAM's synchronous read ports on
  // their next edge; arm them so the threaded edge tape re-reads.
  if (mode_ == EvalMode::kThreaded) threaded_->note_ram_written(ram);
}

BitVec Simulator::read_ram(int ram, std::int64_t addr) const {
  ATLANTIS_CHECK(ram >= 0 && ram < static_cast<int>(ram_data_.size()),
                 "unknown RAM");
  const RamBlock& blk = design_.rams()[static_cast<std::size_t>(ram)];
  ATLANTIS_CHECK(addr >= 0 && addr < blk.words, "RAM address out of range");
  BitVec v(blk.width);
  const auto* mem = ram_data_[static_cast<std::size_t>(ram)].data() +
                    static_cast<std::ptrdiff_t>(addr) *
                        ram_stride_[static_cast<std::size_t>(ram)];
  std::copy(mem, mem + ram_stride_[static_cast<std::size_t>(ram)],
            v.words().begin());
  return v;
}

}  // namespace atlantis::chdl
