// The two chdl workloads: an application drives its own CHDL netlist as
// its test bench, through hw::FpgaDevice::configure (so the engine is
// whatever the fleet default resolves to) and chdl::HostInterface.
//
//   trt_netlist   TRT histogrammer core (16x64 straws, 256 patterns).
//                 Per L2 event: clear, the hit list, the readout scan,
//                 then idle up to the 400-cycle slot of a 100 kHz event
//                 rate on the 40 MHz design. Large tape, small active
//                 share per clock.
//   conv_netlist  Streaming 3x3 conv core (256-pixel rows). Edge-
//                 replicated tiles go in one pixel per clock; outputs
//                 are aligned by the pipeline latency. Small tape with
//                 every op active on every clock.
//
// Both check every result against the software reference.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chdl/design.hpp"
#include "chdl/hostif.hpp"
#include "chdl/sim.hpp"
#include "hw/fpga.hpp"
#include "imgproc/conv_core.hpp"
#include "imgproc/filters.hpp"
#include "report.hpp"
#include "serve/job.hpp"
#include "trace.hpp"
#include "trt/events.hpp"
#include "trt/histogram.hpp"
#include "trt/patterns.hpp"
#include "trt/trt_core.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace perfbench {
namespace {

using namespace atlantis;

/// Set-up repeats: a pass sets up kSetupMinReps times before driving,
/// then again for kSetupSliceSeconds after every throughput chunk, so the
/// samples span the whole pass like the throughput samples do (a conv
/// set-up takes ~0.1 ms and would otherwise sample one instant of the
/// host's load). setup_s is their median.
constexpr int kSetupMinReps = 15;
constexpr double kSetupSliceSeconds = 0.005;
/// Host time per throughput sample; the pass reports the median sample.
constexpr double kChunkSeconds = 0.2;

double engine_code(chdl::EvalMode m) {
  switch (m) {
    case chdl::EvalMode::kFullSweep: return 0;
    case chdl::EvalMode::kEventDriven: return 1;
    case chdl::EvalMode::kThreaded: return 2;
    case chdl::EvalMode::kAuto: return 3;
  }
  return -1;
}

/// One elaborated and configured netlist on an ORCA device.
struct Device {
  std::unique_ptr<chdl::Design> design;
  std::unique_ptr<hw::FpgaDevice> fpga;
  chdl::Simulator& sim() const { return *fpga->sim(); }
};

struct SetupTimes {
  std::vector<double> elaborate_s;
  std::vector<double> configure_s;
  std::vector<double> total_s;
};

/// Elaborates (`build` fills a fresh design) and configures an ORCA
/// device once, appending the two times.
template <typename Build>
Device set_up_once(const char* name, const Build& build, SetupTimes& times) {
  Device d;
  const std::int64_t t0 = now_ns();
  {
    Span s("chdl.elaborate");
    d.design = std::make_unique<chdl::Design>(name);
    build(*d.design);
  }
  const std::int64_t t1 = now_ns();
  {
    Span s("hw.configure");
    d.fpga = std::make_unique<hw::FpgaDevice>("acb0/fpga0", hw::orca_3t125());
    d.fpga->configure(hw::Bitstream::from_design(*d.design));
    d.sim().peek_u64("host_rdata");  // settle power-up state
  }
  const std::int64_t t2 = now_ns();
  times.elaborate_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  times.configure_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  times.total_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  return d;
}

/// The pre-drive repeats; returns the last device.
template <typename Build>
Device set_up(const char* name, const Build& build, SetupTimes& times) {
  Device d;
  for (int rep = 0; rep < kSetupMinReps; ++rep) {
    d = set_up_once(name, build, times);
  }
  return d;
}

/// One between-chunk slice of set-up repeats (devices discarded).
template <typename Build>
void set_up_slice(const char* name, const Build& build, SetupTimes& times) {
  const std::int64_t start = now_ns();
  do {
    set_up_once(name, build, times);
  } while (static_cast<double>(now_ns() - start) * 1e-9 < kSetupSliceSeconds);
}

/// Throughput samples and totals of one drive loop.
struct DriveTotals {
  std::vector<double> cycle_rates;  // per chunk, cycles per host second
  std::vector<double> unit_rates;   // per chunk, units per host second
  std::uint64_t cycles = 0;
  std::uint64_t units = 0;
  double host_s = 0.0;
};

/// Time-sliced drive loop shared by both workloads: calls `unit(i)` on
/// inputs 0, 1, ... (wrapping) until `seconds` have passed and every
/// input ran at least once. `unit` returns the clock edges it applied;
/// `between` runs untimed after each chunk.
template <typename Unit, typename Between>
DriveTotals drive(std::size_t inputs, double seconds, const Unit& unit,
                  const Between& between) {
  DriveTotals t;
  const std::int64_t start = now_ns();
  std::size_t next = 0;
  for (;;) {
    const std::int64_t c0 = now_ns();
    std::uint64_t chunk_cycles = 0;
    std::uint64_t chunk_units = 0;
    std::int64_t c1 = c0;
    while (static_cast<double>(c1 - c0) * 1e-9 < kChunkSeconds) {
      chunk_cycles += unit(next % inputs);
      ++chunk_units;
      ++next;
      c1 = now_ns();
    }
    const double dt = static_cast<double>(c1 - c0) * 1e-9;
    t.cycle_rates.push_back(static_cast<double>(chunk_cycles) / dt);
    t.unit_rates.push_back(static_cast<double>(chunk_units) / dt);
    t.cycles += chunk_cycles;
    t.units += chunk_units;
    t.host_s += dt;
    probe_host_speed();
    if (next >= inputs && static_cast<double>(c1 - start) * 1e-9 >= seconds) {
      break;
    }
    between();
  }
  return t;
}

/// Fills the metrics both netlist workloads share.
void report_netlist(PassResult& r, const SetupTimes& setup,
                    const DriveTotals& t, const Device& d,
                    const std::vector<double>& busy_cycles,
                    double hostif_s, std::int64_t read_ns,
                    std::uint64_t reads) {
  const chdl::Simulator& sim = *d.fpga->sim();
  set_metric(r.e2e, "setup_s", median(setup.total_s), "s");
  set_metric(r.e2e, "sim_cycles_per_s", median(t.cycle_rates), "cycles/s");
  set_metric(r.e2e, "jobs_per_host_s", median(t.unit_rates), "jobs/s");
  set_metric(r.e2e, "peak_rss_mb", peak_rss_mb(), "MB");
  std::vector<double> busy_ms;
  double busy_total = 0.0;
  for (const double c : busy_cycles) {
    busy_ms.push_back(c / kBoardClockHz * 1e3);
    busy_total += c;
  }
  set_metric(r.e2e, "modelled_p50_ms", quantile(busy_ms, 0.50), "ms");
  set_metric(r.e2e, "modelled_p99_ms", quantile(busy_ms, 0.99), "ms");
  set_metric(r.e2e, "modelled_jobs_per_s",
             static_cast<double>(busy_cycles.size()) /
                 (busy_total / kBoardClockHz),
             "jobs/s");
  r.units_per_host_s = static_cast<double>(t.units) / t.host_s;

  const double cycles = static_cast<double>(t.cycles);
  const double evals = static_cast<double>(sim.activity().comp_evals);
  const double tape = static_cast<double>(sim.tape_ops());
  set_metric(r.layer, "modelled_samples",
             static_cast<double>(busy_cycles.size()), "count");
  set_metric(r.layer, "error_share",
             static_cast<double>(r.failed) / static_cast<double>(r.attempted),
             "ratio");
  set_metric(r.layer, "chdl.elaborate_s", median(setup.elaborate_s), "s");
  set_metric(r.layer, "chdl.configure_s", median(setup.configure_s), "s");
  set_metric(r.layer, "chdl.ns_per_cycle",
             (hostif_s * 1e9 - static_cast<double>(read_ns)) / cycles, "ns");
  set_metric(r.layer, "chdl.read_ns",
             reads == 0 ? 0.0
                        : static_cast<double>(read_ns) /
                              static_cast<double>(reads),
             "ns");
  set_metric(r.layer, "chdl.evals_per_cycle", evals / cycles, "count");
  set_metric(r.layer, "chdl.tape_ops", tape, "count");
  set_metric(r.layer, "chdl.active_share", evals / cycles / tape, "ratio");
  set_metric(r.layer, "chdl.engine", engine_code(sim.eval_mode()), "code");
}

/// Host-interface time of the pass, from the traced spans (0 untraced).
double hostif_seconds() {
  Tracer* t = Tracer::active();
  if (t == nullptr) return 0.0;
  double s = 0.0;
  for (const auto& [name, tot] : t->totals()) {
    if (name.rfind("hostif.", 0) == 0) s += tot.total_s;
  }
  return s;
}

std::string fingerprint(const std::vector<double>& busy_cycles,
                        std::uint64_t mismatches) {
  std::vector<std::uint64_t> v(busy_cycles.begin(), busy_cycles.end());
  return std::to_string(serve::digest(v)) + "/" + std::to_string(mismatches);
}

// --- trt_netlist ----------------------------------------------------------

class TrtNetlist : public Workload {
 public:
  TrtNetlist(const Spec& spec, std::uint64_t seed) {
    const std::string w = "trt_netlist";
    geo_.layers = spec.integer(w, "layers");
    geo_.straws_per_layer = spec.integer(w, "straws_per_layer");
    patterns_ = spec.integer(w, "patterns");
    slot_cycles_ = spec.integer(w, "slot_cycles");
    const int events = spec.integer(w, "events");
    const int min_tracks = spec.integer(w, "min_tracks");
    const int max_tracks = spec.integer(w, "max_tracks");
    const double noise = spec.num(w, "noise_occupancy");
    // Inputs and their references: generated here, outside every timer.
    const trt::PatternBank bank(geo_, patterns_);
    util::Rng rng(seed);
    for (int i = 0; i < events; ++i) {
      trt::EventParams p;
      p.tracks = min_tracks + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(
                                      max_tracks - min_tracks + 1)));
      p.noise_occupancy = noise;
      trt::EventGenerator gen(bank, p, rng.next_u64());
      events_.push_back(gen.generate());
      expected_.push_back(
          trt::histogram_reference(bank, events_.back()).histogram.counts);
    }
  }

  PassResult pass(double seconds, int /*pool_threads*/) override {
    PassResult r;
    r.layer = layer_template();
    SetupTimes setup;
    const auto build = [this](chdl::Design& design) {
      trt::build_trt_core(design, trt::PatternBank(geo_, patterns_));
    };
    const Device d = set_up("trt_core", build, setup);
    chdl::Simulator& sim = d.sim();
    chdl::HostInterface host(sim);
    sim.reset_activity();

    std::vector<double> busy(events_.size(), -1.0);
    std::vector<std::uint16_t> got(static_cast<std::size_t>(patterns_));
    std::int64_t read_ns = 0;
    std::uint64_t reads = 0;
    std::uint64_t mismatches = 0;
    const auto unit = [&](std::size_t i) -> std::uint64_t {
      Span event("trt.event", i + 1);
      const std::uint64_t c0 = sim.cycles();
      {
        Span s("hostif.write");
        host.write(0x00, 0);  // clear
        for (const std::int32_t straw : events_[i].hits) {
          host.write(0x01, static_cast<std::uint64_t>(straw));
        }
        host.idle(2);          // drain the LUT/increment pipeline
        host.write(0x05, 0);   // start the readout scan
      }
      {
        Span s("hostif.scan");
        for (int p = 0; p < patterns_; ++p) {
          {
            Stopwatch w(read_ns);
            got[static_cast<std::size_t>(p)] =
                static_cast<std::uint16_t>(host.read(0x06));
          }
          host.idle(1);
        }
        reads += static_cast<std::uint64_t>(patterns_);
      }
      const std::uint64_t used = sim.cycles() - c0;
      if (used < static_cast<std::uint64_t>(slot_cycles_)) {
        Span s("hostif.idle");
        host.idle(slot_cycles_ - static_cast<int>(used));
      }
      ++r.attempted;
      if (got != expected_[i]) ++mismatches;
      if (busy[i] < 0) {
        busy[i] = static_cast<double>(used);
      } else if (busy[i] != static_cast<double>(used)) {
        ++mismatches;  // the same event must always take the same cycles
      }
      return sim.cycles() - c0;
    };
    const DriveTotals t = drive(events_.size(), seconds, unit, [&] {
      set_up_slice("trt_core", build, setup);
    });
    r.failed = mismatches;
    if (mismatches > 0) {
      r.problems.push_back(std::to_string(mismatches) +
                           " TRT events differ from trt::histogram_reference");
    }
    report_netlist(r, setup, t, d, busy, hostif_seconds(), read_ns, reads);
    r.fingerprint = fingerprint(busy, mismatches);
    return r;
  }

 private:
  trt::DetectorGeometry geo_;
  int patterns_ = 0;
  int slot_cycles_ = 0;
  std::vector<trt::Event> events_;
  std::vector<std::vector<std::uint16_t>> expected_;
};

// --- conv_netlist ---------------------------------------------------------

class ConvNetlist : public Workload {
 public:
  ConvNetlist(const Spec& spec, std::uint64_t seed) {
    const std::string w = "conv_netlist";
    row_ = spec.integer(w, "row_width");
    const int tiles = spec.integer(w, "tiles");
    const int min_w = spec.integer(w, "min_tile_width");
    const int max_w = std::min(spec.integer(w, "max_tile_width"), row_ - 2);
    const int min_h = spec.integer(w, "min_tile_height");
    const int max_h = spec.integer(w, "max_tile_height");
    util::Rng rng(seed);
    const auto draw = [&rng](int lo, int hi) {
      return lo + static_cast<int>(rng.next_below(
                      static_cast<std::uint64_t>(hi - lo + 1)));
    };
    for (int i = 0; i < tiles; ++i) {
      imgproc::Gray8 img(draw(min_w, max_w), draw(min_h, max_h));
      for (auto& px : img.data()) {
        px = static_cast<std::uint8_t>(rng.next_below(256));
      }
      // Edge-replicated into whole rows of the core's line width.
      Tile t;
      t.width = img.width();
      t.height = img.height();
      for (int y = 0; y < img.height() + 2; ++y) {
        for (int x = 0; x < row_; ++x) {
          t.stream.push_back(img.clamped(x - 1, y - 1));
        }
      }
      t.expected = imgproc::convolve3x3(img, kernel_).data();
      tiles_.push_back(std::move(t));
    }
  }

  PassResult pass(double seconds, int /*pool_threads*/) override {
    PassResult r;
    r.layer = layer_template();
    SetupTimes setup;
    const auto build = [this](chdl::Design& design) {
      imgproc::build_conv_core(design, row_, kernel_);
    };
    const Device d = set_up("conv_core", build, setup);
    chdl::Simulator& sim = d.sim();
    chdl::HostInterface host(sim);
    if (offset_ < 0) calibrate(host);
    sim.reset_activity();

    std::vector<double> busy(tiles_.size(), -1.0);
    std::vector<std::uint8_t> out;
    std::int64_t read_ns = 0;
    std::uint64_t reads = 0;
    std::uint64_t mismatches = 0;
    const auto unit = [&](std::size_t i) -> std::uint64_t {
      const Tile& tile = tiles_[i];
      Span span("conv.tile", i + 1);
      const std::uint64_t c0 = sim.cycles();
      // Stream only up to the output of the last interior pixel.
      const std::size_t pushes = static_cast<std::size_t>(
          tile.height * row_ + tile.width + offset_ + 1);
      out.resize(pushes);
      {
        Span s("hostif.stream");
        host.write(0x00, 0);  // reset stream state
        for (std::size_t k = 0; k < pushes; ++k) {
          // A tile as wide as the row needs one flush pixel past its
          // last padded row before the last output appears.
          host.write(0x01, k < tile.stream.size() ? tile.stream[k] : 0);
          Stopwatch w(read_ns);
          out[k] = static_cast<std::uint8_t>(host.read(0x02));
        }
        reads += pushes;
      }
      const std::uint64_t used = sim.cycles() - c0;
      bool ok = true;
      for (int y = 0; y < tile.height && ok; ++y) {
        for (int x = 0; x < tile.width && ok; ++x) {
          ok = out[output_index(x, y)] ==
               tile.expected[static_cast<std::size_t>(y * tile.width + x)];
        }
      }
      ++r.attempted;
      if (!ok) ++mismatches;
      if (busy[i] < 0) {
        busy[i] = static_cast<double>(used);
      } else if (busy[i] != static_cast<double>(used)) {
        ++mismatches;
      }
      return used;
    };
    const DriveTotals t = drive(tiles_.size(), seconds, unit, [&] {
      set_up_slice("conv_core", build, setup);
    });
    r.failed = mismatches;
    if (mismatches > 0) {
      r.problems.push_back(std::to_string(mismatches) +
                           " conv tiles differ from imgproc::convolve3x3");
    }
    report_netlist(r, setup, t, d, busy, hostif_seconds(), read_ns, reads);
    r.fingerprint = fingerprint(busy, mismatches);
    return r;
  }

 private:
  struct Tile {
    int width = 0;
    int height = 0;
    std::vector<std::uint8_t> stream;    // padded rows, row_ pixels each
    std::vector<std::uint8_t> expected;  // convolve3x3 of the interior
  };

  /// Where the output for interior pixel (x, y) appears in the stream.
  std::size_t output_index(int x, int y) const {
    return static_cast<std::size_t>((y + 1) * row_ + (x + 1) + offset_);
  }

  /// Finds the core's pipeline latency once, as the conv-core tests do:
  /// the one offset at which the first tile's outputs match the
  /// reference. Not timed; every later tile re-checks it.
  void calibrate(chdl::HostInterface& host) {
    const Tile& tile = tiles_.front();
    std::vector<std::uint8_t> out;
    host.write(0x00, 0);
    for (const std::uint8_t px : tile.stream) {
      host.write(0x01, px);
      out.push_back(static_cast<std::uint8_t>(host.read(0x02)));
    }
    for (int i = 0; i < 2 * row_; ++i) {
      host.write(0x01, 0);
      out.push_back(static_cast<std::uint8_t>(host.read(0x02)));
    }
    for (offset_ = 0; offset_ < 2 * row_; ++offset_) {
      bool ok = true;
      for (int y = 0; y < tile.height && ok; ++y) {
        for (int x = 0; x < tile.width && ok; ++x) {
          ok = out[output_index(x, y)] ==
               tile.expected[static_cast<std::size_t>(y * tile.width + x)];
        }
      }
      if (ok) return;
    }
    ATLANTIS_CHECK(false, "no pipeline latency reproduces convolve3x3");
  }

  int row_ = 0;
  imgproc::Kernel3x3 kernel_ = imgproc::Kernel3x3::gaussian();
  std::vector<Tile> tiles_;
  int offset_ = -1;
};

}  // namespace

std::unique_ptr<Workload> make_trt_netlist(const Spec& spec,
                                           std::uint64_t seed) {
  return std::make_unique<TrtNetlist>(spec, seed);
}

std::unique_ptr<Workload> make_conv_netlist(const Spec& spec,
                                            std::uint64_t seed) {
  return std::make_unique<ConvNetlist>(spec, seed);
}

}  // namespace perfbench
