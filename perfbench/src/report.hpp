// Shared plumbing of the benchmark: run arguments, the workload spec,
// the metric sets a run reports, and the small statistics helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// The board clock every modelled cycle count is converted at (the TRT
/// and image designs run at 40 MHz; 40 MHz / 100 kHz = 400 cycles per
/// L2 event slot).
inline constexpr double kBoardClockHz = 40e6;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spec_path = "perfbench/spec.json";
  std::string out_dir = ".perfbench_out";
};

/// The workload parameters recorded in perfbench/spec.json.
class Spec {
 public:
  explicit Spec(const std::string& path);
  const atlantis::util::JsonValue& workload(const std::string& name) const;
  /// A recorded seed: "default" or "held_out".
  std::uint64_t seed(const std::string& which) const;
  double num(const std::string& workload, const std::string& key) const;
  int integer(const std::string& workload, const std::string& key) const;
  std::vector<double> nums(const std::string& workload,
                           const std::string& key) const;
  /// The reference kernel's time on the host the spec was measured on.
  double reference_nominal_s() const;

 private:
  atlantis::util::JsonValue doc_;
};

/// Named metrics in a fixed order, each with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

void set_metric(Metrics& m, const std::string& name, double value,
                const std::string& unit);
double get_metric(const Metrics& m, const std::string& name);

/// What one measured pass of a workload produced.
struct PassResult {
  Metrics e2e;    // end-to-end metrics (host and modelled)
  Metrics layer;  // per-layer metrics (from the traced pass)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed jobs plus reference mismatches
  std::vector<std::string> problems;  // why `correct` is false
  std::vector<std::string> notes;     // extra lines for the run's output
  /// Host throughput of the pass, the base of trace_overhead_share.
  double units_per_host_s = 0.0;
  /// Deterministic fingerprint of the modelled outcome: digests and
  /// modelled metrics; equal across pool sizes and repeats of a seed.
  std::string fingerprint;
};

/// One workload: generates its inputs from the seed once (outside every
/// timer), then runs measured passes of `seconds` host seconds each.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual PassResult pass(double seconds, int pool_threads) = 0;
};

std::unique_ptr<Workload> make_trt_netlist(const Spec& spec,
                                           std::uint64_t seed);
std::unique_ptr<Workload> make_conv_netlist(const Spec& spec,
                                            std::uint64_t seed);
std::unique_ptr<Workload> make_trigger_farm(const Spec& spec,
                                            std::uint64_t seed);
std::unique_ptr<Workload> make_render_farm(const Spec& spec,
                                           std::uint64_t seed);

/// Every per-layer metric, zero-valued with its unit, in report order.
/// A workload overwrites the ones its layers produce; the rest stay 0
/// because that layer does no work on that workload.
Metrics layer_template();

double median(std::vector<double> v);
/// Nearest-rank quantile (q in [0, 1]) of the samples.
double quantile(std::vector<double> v, double q);
/// The shared host's speed drifts: over minutes, a fixed kernel's time
/// moves by +-20% and every host throughput with it, which no median
/// within one run removes. Each pass calls probe_host_speed() between
/// its throughput samples (outside every timer); it times a fixed,
/// allocation- and pointer-heavy reference kernel compiled with the
/// benchmark. host_slowdown() is the median of those times over the
/// nominal, > 1 when the host ran slower than the one the nominal was
/// measured on. The host-time end-to-end metrics are reported divided
/// by it (rates multiplied), so they read in that host's seconds.
void probe_host_speed();
double host_slowdown(double nominal_s);
/// Median reference-kernel time of this process's probes (0 if none).
double host_reference_s();

/// Peak resident set of this process so far.
double peak_rss_mb();
/// Worker count of the farms' pool: min(nproc, 4).
int default_pool_threads();

}  // namespace perfbench
