// perfbench: the repository's one benchmark command.
//
//   perfbench --workload <trt_netlist|conv_netlist|trigger_farm|render_farm>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spec perfbench/spec.json] [--out-dir .perfbench_out]
//   perfbench --selftest [--spec ...] [--out-dir ...]
//
// A run generates its inputs from the seed, measures for --seconds and
// checks every output against a software reference. It prints each
// end-to-end metric by name with its unit, then, as the last line, one
// JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end set (host and modelled clocks side by
// side); with --trace 1 the run measures half its time untraced and half
// traced, reports the per-layer set from the traced half plus
// trace_overhead_share, prints a per-layer self-time table and writes a
// Chrome trace under --out-dir. The exit status is 0 only when every
// check passed.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "chdl/design.hpp"
#include "hw/fpga.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "trt/patterns.hpp"
#include "trt/trt_core.hpp"
#include "util/status.hpp"

namespace perfbench {
namespace {

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Spec& spec,
                                        std::uint64_t seed) {
  if (name == "trt_netlist") return make_trt_netlist(spec, seed);
  if (name == "conv_netlist") return make_conv_netlist(spec, seed);
  if (name == "trigger_farm") return make_trigger_farm(spec, seed);
  if (name == "render_farm") return make_render_farm(spec, seed);
  throw atlantis::util::Error("unknown workload: " + name);
}

void print_metrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const Metric& x : m) {
    std::printf("  %-28s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
}

std::string json_line(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", m[i].value);
    out += (i > 0 ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

/// Per-layer self time of the traced pass, layer = span-name prefix.
void print_self_times(const Tracer& tracer) {
  std::map<std::string, SpanTotals> layers;
  const auto totals = tracer.totals();
  std::printf("traced spans: self time by span (layer = name prefix)\n");
  std::printf("  %-20s %10s %12s %12s\n", "span", "count", "total_s",
              "self_s");
  for (const auto& [name, t] : totals) {
    std::printf("  %-20s %10llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s,
                t.self_s);
    SpanTotals& l = layers[name.substr(0, name.find('.'))];
    l.count += t.count;
    l.total_s += t.total_s;
    l.self_s += t.self_s;
  }
  std::printf("  %-20s %10s %12s %12s\n", "layer", "spans", "total_s",
              "self_s");
  for (const auto& [name, t] : layers) {
    std::printf("  %-20s %10llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s,
                t.self_s);
  }
}

int run(const RunArgs& args) {
  const Spec spec(args.spec_path);
  const int pool = default_pool_threads();
  std::unique_ptr<Workload> w = make_workload(args.workload, spec, args.seed);

  PassResult result;
  std::vector<std::string> problems;
  if (!args.trace) {
    result = w->pass(args.seconds, pool);
  } else {
    const PassResult plain = w->pass(args.seconds / 2, pool);
    Tracer tracer;
    Tracer::set_active(&tracer);
    result = w->pass(args.seconds / 2, pool);
    Tracer::set_active(nullptr);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.problems.insert(result.problems.end(), plain.problems.begin(),
                           plain.problems.end());
    if (plain.fingerprint != result.fingerprint) {
      problems.push_back("tracing changed a modelled result");
    }
    set_metric(result.layer, "trace_overhead_share",
               plain.units_per_host_s / result.units_per_host_s - 1.0,
               "ratio");
    mkdir(args.out_dir.c_str(), 0755);
    const std::string path = args.out_dir + "/trace_" + args.workload + "_" +
                             std::to_string(args.seed) + ".json";
    const std::size_t events = tracer.write_chrome_trace(path);
    std::printf("chrome trace: %s (%zu spans, parsed back with "
                "util::json_parse)\n",
                path.c_str(), events);
    print_self_times(tracer);
  }
  // Host-time end-to-end metrics in the nominal host's seconds.
  const double slowdown = host_slowdown(spec.reference_nominal_s());
  const double raw_setup_s = get_metric(result.e2e, "setup_s");
  const double raw_jobs = get_metric(result.e2e, "jobs_per_host_s");
  const double raw_cycles = get_metric(result.e2e, "sim_cycles_per_s");
  set_metric(result.e2e, "setup_s", raw_setup_s / slowdown, "s");
  set_metric(result.e2e, "jobs_per_host_s", raw_jobs * slowdown, "jobs/s");
  set_metric(result.e2e, "sim_cycles_per_s", raw_cycles * slowdown,
             "cycles/s");
  char line[240];
  std::snprintf(line, sizeof(line),
                "host reference kernel: median %.4f ms against nominal "
                "%.4f ms (slowdown %.4f); as timed: setup_s %.6g s, "
                "sim_cycles_per_s %.6g, jobs_per_host_s %.6g",
                host_reference_s() * 1e3, spec.reference_nominal_s() * 1e3,
                slowdown, raw_setup_s, raw_cycles, raw_jobs);
  result.notes.push_back(line);
  problems.insert(problems.end(), result.problems.begin(),
                  result.problems.end());
  const Metrics& out = args.trace ? result.layer : result.e2e;
  for (const Metric& m : out) {
    if (!std::isfinite(m.value)) {
      problems.push_back("metric " + m.name + " is not finite");
    }
  }

  std::printf("workload %s, seed %llu, %s run\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  print_metrics("end-to-end metrics:", result.e2e);
  Metrics extra;
  for (const Metric& l : result.layer) {
    if (l.name == "error_share" || l.name == "max_rps_at_slo" ||
        l.name == "modelled_samples") {
      extra.push_back(l);
    }
  }
  print_metrics("workload figures (0 where the workload has none):", extra);
  for (const std::string& n : result.notes) std::printf("%s\n", n.c_str());
  if (args.trace) print_metrics("per-layer metrics:", result.layer);
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  const bool correct = problems.empty();
  std::printf("%s\n", json_line(correct, result.attempted, result.failed, out)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// The benchmark's own tests. Each farm's modelled metrics and digests
/// must be identical at pool 1 and at pool nproc and on a repeat of the
/// same seed; both netlists must repeat exactly; the TRT core's ORCA
/// capacity limit is where it binds; the traced run must produce a
/// trace that parses back.
int selftest(const RunArgs& args) {
  const Spec spec(args.spec_path);
  const std::uint64_t seed = spec.seed("default");
  const int pool = default_pool_threads();
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  for (const char* name :
       {"trt_netlist", "conv_netlist", "trigger_farm", "render_farm"}) {
    // seconds = 0: each pass runs its minimum (every input once for the
    // netlists; the reference episode plus two measured ones for farms).
    const PassResult a = make_workload(name, spec, seed)->pass(0.0, pool);
    const PassResult b = make_workload(name, spec, seed)->pass(0.0, pool);
    expect(a.problems.empty() && b.problems.empty(),
           std::string(name) + ": every reference, ledger and pool-size "
                               "check passes" +
               (a.problems.empty() ? "" : " (" + a.problems.front() + ")"));
    expect(a.fingerprint == b.fingerprint,
           std::string(name) + ": a repeat of the seed reproduces digests "
                               "and modelled metrics");
    for (const char* m :
         {"modelled_p50_ms", "modelled_p99_ms", "modelled_jobs_per_s"}) {
      expect(get_metric(a.e2e, m) == get_metric(b.e2e, m) &&
                 get_metric(a.e2e, m) > 0,
             std::string(name) + ": " + m + " is positive and bit-identical");
    }
  }

  // The ORCA gate budget binds on pattern count (one counter per
  // pattern), not on straws (the LUT is ROM): 256 patterns fit on a
  // 32x128-straw geometry too, 512 patterns fail with CapacityError.
  const auto fits = [](int layers, int straws, int patterns) {
    atlantis::trt::DetectorGeometry geo;
    geo.layers = layers;
    geo.straws_per_layer = straws;
    atlantis::chdl::Design d("trt_capacity");
    atlantis::trt::build_trt_core(d,
                                  atlantis::trt::PatternBank(geo, patterns));
    atlantis::hw::FpgaDevice dev("acb0/fpga0", atlantis::hw::orca_3t125());
    try {
      dev.configure(atlantis::hw::Bitstream::from_design(d));
    } catch (const atlantis::util::CapacityError&) {
      return false;
    }
    return true;
  };
  expect(fits(32, 128, 256), "a 256-pattern TRT core on 32x128 straws fits "
                             "one ORCA 3T125");
  expect(!fits(16, 64, 512), "a 512-pattern TRT core fails configure with "
                             "CapacityError");

  // The traced run's artifact.
  {
    auto w = make_workload("trt_netlist", spec, seed);
    Tracer tracer;
    Tracer::set_active(&tracer);
    const PassResult r = w->pass(0.0, pool);
    Tracer::set_active(nullptr);
    mkdir(args.out_dir.c_str(), 0755);
    const std::size_t events =
        tracer.write_chrome_trace(args.out_dir + "/selftest_trace.json");
    const auto totals = tracer.totals();
    expect(events > 0 && totals.count("trt.event") == 1 &&
               totals.at("trt.event").count == r.attempted,
           "the Chrome trace parses back and holds one trt.event span per "
           "event driven");
    expect(get_metric(r.layer, "chdl.ns_per_cycle") > 0 &&
               get_metric(r.layer, "chdl.read_ns") > 0,
           "traced pass reports chdl.ns_per_cycle and chdl.read_ns");
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool selftest = false;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw atlantis::util::Error(a + " needs a value");
        return argv[++i];
      };
      if (a == "--selftest") {
        selftest = true;
      } else if (a == "--workload") {
        args.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (a == "--spec") {
        args.spec_path = value();
      } else if (a == "--out-dir") {
        args.out_dir = value();
      } else {
        throw atlantis::util::Error("unknown argument: " + a);
      }
    }
    if (selftest) return perfbench::selftest(args);
    if (!have_workload) throw atlantis::util::Error("--workload is required");
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
