#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>

#include "trace.hpp"
#include "util/status.hpp"

namespace perfbench {

using atlantis::util::JsonValue;

Spec::Spec(const std::string& path) {
  std::ifstream in(path);
  ATLANTIS_CHECK(in.good(), "cannot read workload spec " + path);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  doc_ = atlantis::util::json_parse(text);
}

const JsonValue& Spec::workload(const std::string& name) const {
  return doc_.at("workloads").at(name);
}

std::uint64_t Spec::seed(const std::string& which) const {
  return static_cast<std::uint64_t>(doc_.at("seeds").at(which).as_number());
}

double Spec::num(const std::string& workload_name,
                 const std::string& key) const {
  return workload(workload_name).at(key).as_number();
}

int Spec::integer(const std::string& workload_name,
                  const std::string& key) const {
  const double v = num(workload_name, key);
  ATLANTIS_CHECK(v == std::floor(v), key + " must be a whole number");
  return static_cast<int>(v);
}

std::vector<double> Spec::nums(const std::string& workload_name,
                               const std::string& key) const {
  std::vector<double> out;
  for (const JsonValue& v : workload(workload_name).at(key).as_array()) {
    out.push_back(v.as_number());
  }
  return out;
}

double Spec::reference_nominal_s() const {
  return doc_.at("host_reference").at("nominal_s").as_number();
}

namespace {

std::vector<double>& reference_times() {
  static std::vector<double> times;
  return times;
}

/// Fixed work in the farms' style: string keys into a node-based map,
/// then a sort. Its time tracks the host's speed, not the library's.
double reference_kernel_s() {
  const std::int64_t t0 = now_ns();
  std::map<std::string, std::uint64_t> table;
  std::vector<double> values;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[std::to_string(x % 100000)] += x;
    values.push_back(static_cast<double>(x % 1000003));
  }
  std::sort(values.begin(), values.end());
  std::uint64_t sum = static_cast<std::uint64_t>(values[values.size() / 2]);
  for (const auto& [key, v] : table) sum += v + key.size();
  static std::atomic<std::uint64_t> sink{0};
  sink.store(sum, std::memory_order_relaxed);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

void probe_host_speed() {
  reference_times().push_back(median(
      {reference_kernel_s(), reference_kernel_s(), reference_kernel_s()}));
}

double host_reference_s() { return median(reference_times()); }

double host_slowdown(double nominal_s) {
  const double t = host_reference_s();
  return t > 0.0 ? t / nominal_s : 1.0;
}

void set_metric(Metrics& m, const std::string& name, double value,
                const std::string& unit) {
  for (Metric& x : m) {
    if (x.name == name) {
      x.value = value;
      x.unit = unit;
      return;
    }
  }
  m.push_back({name, value, unit});
}

double get_metric(const Metrics& m, const std::string& name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  ATLANTIS_CHECK(false, "metric not reported: " + name);
  return 0.0;
}

Metrics layer_template() {
  Metrics m;
  const auto add = [&m](const char* name, const char* unit) {
    m.push_back({name, 0.0, unit});
  };
  add("trace_overhead_share", "ratio");
  add("error_share", "ratio");
  add("modelled_samples", "count");
  add("max_rps_at_slo", "req/s");
  add("chdl.elaborate_s", "s");
  add("chdl.configure_s", "s");
  add("chdl.ns_per_cycle", "ns");
  add("chdl.read_ns", "ns");
  add("chdl.evals_per_cycle", "count");
  add("chdl.tape_ops", "count");
  add("chdl.active_share", "ratio");
  add("chdl.engine", "code");
  add("app.trt_us", "us");
  add("app.img_us", "us");
  add("app.volren_us", "us");
  add("app.nbody_us", "us");
  add("util.pool_busy_share", "ratio");
  for (int w = 0; w < 4; ++w) {
    m.push_back({"util.pool_busy_share.w" + std::to_string(w), 0.0, "ratio"});
  }
  add("serve.submit_us", "us");
  add("serve.sched_self_s", "s");
  add("serve.batch_mean", "jobs");
  add("serve.queue_wait_p99_ms", "ms");
  add("serve.owner_share", "ratio");
  add("serve.shard_imbalance", "ratio");
  add("serve.rejected_share", "ratio");
  add("serve.shed_share", "ratio");
  add("serve.failed_share", "ratio");
  add("serve.checkpoints", "count");
  add("serve.restores", "count");
  add("serve.job_retries", "count");
  add("serve.breaker_opens", "count");
  add("serve.quarantines", "count");
  add("core.cache_hit_rate", "ratio");
  add("core.cache_lookups", "count");
  add("core.full_reconfigs", "count");
  add("core.partial_reconfigs", "count");
  add("hw.regions_loaded", "count");
  add("core.reconfig_ms", "ms");
  add("hw.pci_busy_ms", "ms");
  add("hw.pci_queue_ms", "ms");
  add("hw.pci_bytes", "bytes");
  add("sim.txns", "count");
  add("sim.faults_injected", "count");
  add("sim.snapshot_save_us", "us");
  add("sim.snapshot_bytes", "bytes");
  return m;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int default_pool_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

}  // namespace perfbench
