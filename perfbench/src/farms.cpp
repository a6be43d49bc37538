// The two serving workloads: serve::Cluster driven with the real
// application job adapters.
//
//   trigger_farm  open loop in modelled time. Tenants submit TRT event
//                 jobs and small image tiles against ~12 region-signed
//                 configurations with Zipf-skewed popularity, at a fixed
//                 ladder of offered rates (exponential arrivals) that
//                 brackets the knee, in waves with Cluster::run between
//                 them. Cheap functors: host time is the scheduling path.
//   render_farm   closed loop in modelled time. A fixed set of clients
//                 (volume viewers, N-body simulations) each submit their
//                 next frame or step when the previous one finishes.
//                 Supervised shards under a low-rate fault plan with
//                 service crashes; an operator saves the cluster state
//                 every few rounds. Host time is the functors on the pool.
//
// Every episode builds a fresh cluster (its set-up is setup_s), so the
// modelled outcome of an episode is a pure function of the seed: it must
// repeat bit for bit across episodes and pool sizes, and its functional
// digest must equal the same stream's functors evaluated off-fleet.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hw/fpga.hpp"
#include "imgproc/filters.hpp"
#include "imgproc/serve_adapter.hpp"
#include "nbody/plummer.hpp"
#include "nbody/serve_adapter.hpp"
#include "report.hpp"
#include "serve/cluster.hpp"
#include "sim/fault.hpp"
#include "sim/snapshot.hpp"
#include "trace.hpp"
#include "trt/events.hpp"
#include "trt/serve_adapter.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/worker_pool.hpp"
#include "volren/serve_adapter.hpp"
#include "volren/transfer.hpp"
#include "volren/volume.hpp"

namespace perfbench {
namespace {

using namespace atlantis;
using util::Picoseconds;

/// Id of the open serve.run span, the parent of functor spans that run
/// on pool threads while it is open.
std::atomic<std::uint64_t> g_run_span{0};

/// Wraps a job's work functor in an app.* span when tracing is on.
void trace_work(serve::JobSpec& spec, const char* span_name,
                std::uint64_t job) {
  if (Tracer::active() == nullptr) return;
  spec.work = [inner = std::move(spec.work), span_name, job]() {
    Span s(span_name, job, g_run_span.load(std::memory_order_relaxed));
    return inner();
  };
}

/// Per-job digest exactly as serve::Cluster::functional_digest sums it.
std::uint64_t functional_term(const std::string& tenant,
                              const std::string& config,
                              std::uint64_t checksum) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const char c : tenant) mix(static_cast<unsigned char>(c));
  for (const char c : config) mix(static_cast<unsigned char>(c));
  mix(checksum);
  return h;
}

/// Region-signed configurations sharing one base: each stamps its own
/// 9-region window, so a switch between two of them is a differential
/// load of about that many frames.
std::vector<hw::Bitstream> make_configs(
    const std::vector<std::string>& names) {
  constexpr int window = 9;
  const int regions = hw::orca_3t125().config_regions;
  const auto base = hw::make_region_signatures("perfbench_base", regions);
  std::vector<hw::Bitstream> out;
  for (std::size_t c = 0; c < names.size(); ++c) {
    hw::Bitstream bs;
    bs.name = names[c];
    bs.region_sigs = base;
    const int from = static_cast<int>(c * 7) % (regions - window);
    hw::stamp_regions(bs.region_sigs, names[c], from, from + window);
    out.push_back(bs);
  }
  return out;
}

/// `n` draws from 0..k-1 in which every value appears equally often (to
/// within one), in an order shuffled by `rng`. Input properties that set
/// a job's host cost are drawn this way, so every seed has the same cost
/// mix and only the order and the detail of the inputs vary.
std::vector<int> balanced_draws(int n, int k, util::Rng& rng) {
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = i % k;
  for (int i = n - 1; i > 0; --i) {
    std::swap(out[static_cast<std::size_t>(i)],
              out[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  return out;
}

/// Counters of one episode, read from the cluster after it drained.
struct FarmCounters {
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t pending = 0;
  std::uint64_t owner = 0;  // admitted on the ring owner
  std::uint64_t admitted = 0;
  std::vector<double> shard_admitted;
  std::vector<double> queue_wait_ms;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t full_reconfigs = 0;
  std::uint64_t partial_reconfigs = 0;
  std::uint64_t regions_loaded = 0;
  Picoseconds reconfig_time = 0;
  std::uint64_t batches = 0;  // unsupervised shards only
  Picoseconds pci_busy = 0;
  Picoseconds pci_queue = 0;
  std::uint64_t pci_bytes = 0;
  std::uint64_t txns = 0;
  std::uint64_t faults = 0;
  std::uint64_t snapshot_bytes = 0;  // last operator save
  serve::SupervisorReport sup;
  std::uint64_t functional_digest = 0;
  std::uint64_t schedule_digest = 0;

  void add_run(const serve::ClusterReport& rep) {
    cache_hits += rep.cache_hits;
    cache_misses += rep.cache_misses;
    full_reconfigs += rep.full_reconfigs;
    partial_reconfigs += rep.partial_reconfigs;
  }

  /// Ledger, timeline and supervisor state of a drained cluster.
  void add_cluster(serve::Cluster& cluster) {
    for (const serve::ClusterRecord& rec : cluster.jobs()) {
      const serve::JobRecord& jr = cluster.shard_record(rec.id);
      ++admitted;
      if (rec.attempts == 0) ++owner;
      if (jr.error != util::ErrorCode::kOk) {
        ++failed;
      } else if (jr.finish > 0) {
        ++served;
        queue_wait_ms.push_back(util::ps_to_ms(jr.queue_wait));
      }
      if (static_cast<std::size_t>(rec.shard) >= shard_admitted.size()) {
        shard_admitted.resize(static_cast<std::size_t>(rec.shard) + 1, 0.0);
      }
      shard_admitted[static_cast<std::size_t>(rec.shard)] += 1.0;
    }
    for (const util::ErrorCode code : cluster.refusals()) {
      if (code == util::ErrorCode::kShardOverload) {
        ++shed;
      } else {
        ++rejected;
      }
    }
    submitted += cluster.jobs().size() + cluster.refusals().size();
    pending += cluster.pending();
    for (int s = 0; s < cluster.shard_count(); ++s) {
      const core::AtlantisSystem& sys = cluster.system(s);
      for (const sim::ResourceStats& rs : sys.timeline().all_stats()) {
        if (rs.name.find("pci") == std::string::npos) continue;
        pci_busy += rs.busy;
        pci_queue += rs.queue_delay;
        pci_bytes += rs.bytes;
      }
      txns += sys.timeline().transactions().size();
      if (sys.fault_injector() != nullptr) {
        faults += sys.fault_injector()->injected_total();
      }
      serve::JobService& svc = cluster.service(s);
      for (int b = 0; b < svc.board_count(); ++b) {
        regions_loaded += svc.switcher(b).regions_loaded();
        reconfig_time += svc.switcher(b).total_switch_time();
      }
      if (const serve::Supervisor* sv = cluster.supervisor(s)) {
        const serve::SupervisorReport& r = sv->report();
        sup.checkpoints += r.checkpoints;
        sup.restores += r.restores;
        sup.job_retries += r.job_retries;
        sup.breaker_opens += r.breaker_opens;
        sup.quarantines += r.quarantines;
      }
    }
    functional_digest += cluster.functional_digest();
    schedule_digest = schedule_digest * 1099511628211ull ^
                      cluster.schedule_digest();
  }
};

/// Modelled sojourn (arrival to result-DMA complete) of every served job.
std::vector<double> sojourns_ms(serve::Cluster& cluster) {
  std::vector<double> out;
  for (const serve::ClusterRecord& rec : cluster.jobs()) {
    const serve::JobRecord& jr = cluster.shard_record(rec.id);
    if (jr.error == util::ErrorCode::kOk && jr.finish > 0) {
      // Floored at the service time as in ClusterReport: the scheduler
      // may reach a job before its modelled arrival.
      out.push_back(util::ps_to_ms(
          std::max(jr.finish - jr.arrival, jr.finish - jr.start)));
    }
  }
  return out;
}

/// Latest result-DMA completion across the fleet.
Picoseconds makespan(serve::Cluster& cluster) {
  Picoseconds m = 0;
  for (const serve::ClusterRecord& rec : cluster.jobs()) {
    m = std::max(m, cluster.shard_record(rec.id).finish);
  }
  return m;
}

/// Modelled 40 MHz board cycles of job service (input DMA, compute,
/// result DMA) the fleet simulated. A sum over every job, so it follows
/// the work submitted, not the slowest shard or the reconfiguration
/// count (core.reconfig_ms reports that).
double service_board_cycles(serve::Cluster& cluster) {
  Picoseconds busy = 0;
  for (const serve::ClusterRecord& rec : cluster.jobs()) {
    const serve::JobRecord& jr = cluster.shard_record(rec.id);
    if (jr.finish > 0) busy += jr.finish - jr.start;
  }
  return static_cast<double>(busy) * 1e-12 * kBoardClockHz;
}

/// Host-side accounting of one episode. Every episode drives the same
/// inputs, so each is one throughput sample; the pass reports their
/// medians.
struct EpisodeHost {
  std::vector<double> setup_s;
  double drive_s = 0.0;  // submits + runs + saves
  double run_s = 0.0;    // inside Cluster::run
  std::uint64_t served = 0;
  double modelled_cycles = 0.0;  // service_board_cycles of the episode
};

/// What every episode of a farm must reproduce exactly.
struct EpisodeModel {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double jobs_per_s = 0.0;
  double samples = 0.0;
  double max_rps_at_slo = 0.0;
  FarmCounters counters;
  std::vector<std::string> notes;  // per-rung latency table
  std::uint64_t offfleet_digest = 0;
  bool offfleet_checked = false;
  std::vector<std::string> problems;

  std::string fingerprint() const {
    std::ostringstream os;
    os.precision(17);
    os << p50_ms << '/' << p99_ms << '/' << jobs_per_s << '/' << samples
       << '/' << max_rps_at_slo << '/' << counters.schedule_digest << '/'
       << counters.functional_digest << '/' << counters.served << '/'
       << counters.failed << '/' << counters.rejected << '/'
       << counters.shed;
    return os.str();
  }
};

/// Runs episodes until `seconds` pass (at least two). Where the farm
/// controls its pool, the first episode runs on `pool_threads` workers
/// and the measured ones on one: on a shared 4-vCPU host a 4-thread
/// pool's per-batch barrier made trigger_farm's host throughput swing 3x
/// from run to run (24k-88k jobs/s) against 60k-70k on one thread.
/// Every episode must reproduce the first's model, so the pool-size
/// determinism check runs in every pass.
template <typename Episode>
PassResult run_farm(double seconds, int pool_threads, bool pool_controlled,
                    const Episode& episode) {
  PassResult r;
  r.layer = layer_template();
  util::WorkerPool one(1);
  util::WorkerPool many(pool_threads);
  util::WorkerPool& measured =
      pool_controlled ? one : util::WorkerPool::shared();

  // Episode 0: the determinism reference and the off-fleet functional
  // check.
  EpisodeHost host0;
  EpisodeModel model0 =
      episode(pool_controlled ? many : measured, true, host0);
  const std::string reference = model0.fingerprint();

  measured.reset_worker_stats();
  std::vector<EpisodeHost> hosts;
  std::vector<double> setups = host0.setup_s;
  std::uint64_t divergent = 0;
  const std::int64_t start = now_ns();
  while (hosts.size() < 2 ||
         static_cast<double>(now_ns() - start) * 1e-9 < seconds) {
    EpisodeHost h;
    const EpisodeModel m = episode(measured, false, h);
    probe_host_speed();
    if (m.fingerprint() != reference) ++divergent;
    setups.insert(setups.end(), h.setup_s.begin(), h.setup_s.end());
    hosts.push_back(h);
  }
  const std::vector<util::WorkerPool::WorkerStats> pool_stats =
      measured.worker_stats();

  const FarmCounters& c = model0.counters;
  const std::uint64_t episodes = hosts.size() + 1;
  r.attempted = c.submitted * episodes;
  r.failed = c.failed * episodes;
  r.problems = model0.problems;
  r.notes = model0.notes;
  if (divergent > 0) {
    r.problems.push_back(std::to_string(divergent) +
                         " episodes diverged from the first (pool size or "
                         "repeat changed a modelled result or digest)");
  }
  if (c.failed > 0) {
    r.problems.push_back(std::to_string(c.failed) + " jobs failed");
  }
  if (c.submitted != c.served + c.failed + c.rejected + c.shed ||
      c.pending != 0) {
    r.problems.push_back("ledger imbalance: submitted " +
                         std::to_string(c.submitted) + " != served + failed "
                         "+ refused, or jobs left pending");
  }
  if (!model0.offfleet_checked ||
      model0.offfleet_digest != c.functional_digest) {
    r.problems.push_back(
        "functional_digest differs from the functors evaluated off-fleet");
  }

  std::vector<double> jobs_rate;
  std::vector<double> cycle_rate;
  double run_s = 0.0;
  double drive_s = 0.0;
  std::uint64_t served = 0;
  for (const EpisodeHost& h : hosts) {
    jobs_rate.push_back(static_cast<double>(h.served) / h.drive_s);
    cycle_rate.push_back(h.modelled_cycles / h.drive_s);
    run_s += h.run_s;
    drive_s += h.drive_s;
    served += h.served;
  }
  set_metric(r.e2e, "setup_s", median(setups), "s");
  set_metric(r.e2e, "sim_cycles_per_s", median(cycle_rate), "cycles/s");
  set_metric(r.e2e, "jobs_per_host_s", median(jobs_rate), "jobs/s");
  set_metric(r.e2e, "peak_rss_mb", peak_rss_mb(), "MB");
  set_metric(r.e2e, "modelled_p50_ms", model0.p50_ms, "ms");
  set_metric(r.e2e, "modelled_p99_ms", model0.p99_ms, "ms");
  set_metric(r.e2e, "modelled_jobs_per_s", model0.jobs_per_s, "jobs/s");
  r.units_per_host_s = static_cast<double>(served) / drive_s;
  r.fingerprint = reference;

  Metrics& L = r.layer;
  const double submitted = static_cast<double>(c.submitted);
  set_metric(L, "error_share",
             static_cast<double>(c.failed + c.rejected + c.shed) / submitted,
             "ratio");
  set_metric(L, "modelled_samples", model0.samples, "count");
  set_metric(L, "max_rps_at_slo", model0.max_rps_at_slo, "req/s");
  double busy_sum = 0.0;
  for (std::size_t w = 0; w < pool_stats.size(); ++w) {
    const double share = static_cast<double>(pool_stats[w].busy_ns) * 1e-9 /
                         run_s;
    busy_sum += share;
    if (w < 4) set_metric(L, "util.pool_busy_share.w" + std::to_string(w),
                          share, "ratio");
  }
  set_metric(L, "util.pool_busy_share",
             busy_sum / static_cast<double>(pool_stats.size()), "ratio");
  if (Tracer* t = Tracer::active()) {
    const auto totals = t->totals();
    const auto mean_us = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_s * 1e6 /
                       static_cast<double>(it->second.count);
    };
    set_metric(L, "app.trt_us", mean_us("app.trt"), "us");
    set_metric(L, "app.img_us", mean_us("app.img"), "us");
    set_metric(L, "app.volren_us", mean_us("app.volren"), "us");
    set_metric(L, "app.nbody_us", mean_us("app.nbody"), "us");
    set_metric(L, "serve.submit_us", mean_us("serve.submit"), "us");
    set_metric(L, "sim.snapshot_save_us", mean_us("sim.snapshot_save"), "us");
    const auto run = totals.find("serve.run");
    if (run != totals.end()) {
      set_metric(L, "serve.sched_self_s",
                 run->second.self_s / static_cast<double>(episodes), "s");
    }
  }
  const double admitted = static_cast<double>(c.admitted);
  set_metric(L, "serve.batch_mean",
             c.batches == 0 ? 0.0
                            : static_cast<double>(c.served) /
                                  static_cast<double>(c.batches),
             "jobs");
  set_metric(L, "serve.queue_wait_p99_ms", quantile(c.queue_wait_ms, 0.99),
             "ms");
  set_metric(L, "serve.owner_share", static_cast<double>(c.owner) / admitted,
             "ratio");
  const double mean_shard =
      admitted / static_cast<double>(c.shard_admitted.size());
  set_metric(L, "serve.shard_imbalance",
             *std::max_element(c.shard_admitted.begin(),
                               c.shard_admitted.end()) /
                 mean_shard,
             "ratio");
  set_metric(L, "serve.rejected_share",
             static_cast<double>(c.rejected) / submitted, "ratio");
  set_metric(L, "serve.shed_share", static_cast<double>(c.shed) / submitted,
             "ratio");
  set_metric(L, "serve.failed_share", static_cast<double>(c.failed) / submitted,
             "ratio");
  set_metric(L, "serve.checkpoints", static_cast<double>(c.sup.checkpoints),
             "count");
  set_metric(L, "serve.restores", static_cast<double>(c.sup.restores),
             "count");
  set_metric(L, "serve.job_retries", static_cast<double>(c.sup.job_retries),
             "count");
  set_metric(L, "serve.breaker_opens",
             static_cast<double>(c.sup.breaker_opens), "count");
  set_metric(L, "serve.quarantines", static_cast<double>(c.sup.quarantines),
             "count");
  const double lookups = static_cast<double>(c.cache_hits + c.cache_misses);
  set_metric(L, "core.cache_hit_rate",
             lookups == 0 ? 0.0 : static_cast<double>(c.cache_hits) / lookups,
             "ratio");
  set_metric(L, "core.cache_lookups", lookups, "count");
  set_metric(L, "core.full_reconfigs", static_cast<double>(c.full_reconfigs),
             "count");
  set_metric(L, "core.partial_reconfigs",
             static_cast<double>(c.partial_reconfigs), "count");
  set_metric(L, "hw.regions_loaded", static_cast<double>(c.regions_loaded),
             "count");
  set_metric(L, "core.reconfig_ms", util::ps_to_ms(c.reconfig_time), "ms");
  set_metric(L, "hw.pci_busy_ms", util::ps_to_ms(c.pci_busy), "ms");
  set_metric(L, "hw.pci_queue_ms", util::ps_to_ms(c.pci_queue), "ms");
  set_metric(L, "hw.pci_bytes", static_cast<double>(c.pci_bytes), "bytes");
  set_metric(L, "sim.txns", static_cast<double>(c.txns), "count");
  set_metric(L, "sim.faults_injected", static_cast<double>(c.faults),
             "count");
  set_metric(L, "sim.snapshot_bytes", static_cast<double>(c.snapshot_bytes),
             "bytes");
  return r;
}

// --- trigger_farm -----------------------------------------------------------

class TriggerFarm : public Workload {
 public:
  TriggerFarm(const Spec& spec, std::uint64_t seed) {
    const std::string w = "trigger_farm";
    shards_ = spec.integer(w, "shards");
    boards_ = spec.integer(w, "boards_per_shard");
    ladder_ = spec.nums(w, "ladder_rps");
    nominal_ = spec.num(w, "nominal_rps");
    p99_limit_ms_ = spec.num(w, "p99_limit_ms");
    wave_ = spec.integer(w, "wave_jobs");
    max_pending_ = spec.integer(w, "max_pending_per_shard");
    deadline_ms_ = spec.num(w, "trt_deadline_ms");
    geo_.layers = spec.integer(w, "trt_layers");
    geo_.straws_per_layer = spec.integer(w, "trt_straws_per_layer");
    patterns_ = spec.integer(w, "trt_patterns");
    const int trt_configs = spec.integer(w, "trt_configs");
    const int img_configs = spec.integer(w, "img_configs");
    const int jobs = spec.integer(w, "jobs_per_rung");
    const double zipf_s = spec.num(w, "zipf_s");
    const int min_tile = spec.integer(w, "min_tile_size");
    const int max_tile = spec.integer(w, "max_tile_size");
    const int payloads = spec.integer(w, "payloads");
    ATLANTIS_CHECK(std::find(ladder_.begin(), ladder_.end(), nominal_) !=
                       ladder_.end(),
                   "nominal_rps must be one of ladder_rps");

    for (int i = 0; i < trt_configs; ++i) {
      names_.push_back("trt_menu" + std::to_string(i));
    }
    for (int i = 0; i < img_configs; ++i) {
      names_.push_back("img_filter" + std::to_string(i));
    }
    // Popularity follows Zipf weights 1/rank^s in a fixed interleaved
    // order (trt_menu0, img_filter0, trt_menu1, ...), so every seed loads
    // the same configurations equally hot; the seed varies arrivals,
    // tenants and payloads.
    util::Rng rng(seed);
    std::vector<int> order;
    for (int i = 0; i < std::max(trt_configs, img_configs); ++i) {
      if (i < trt_configs) order.push_back(i);
      if (i < img_configs) order.push_back(trt_configs + i);
    }
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), zipf_s);
      cdf.push_back(total);
    }

    const trt::PatternBank bank(geo_, patterns_);
    const std::vector<int> tracks = balanced_draws(payloads, 7, rng);
    for (int i = 0; i < payloads; ++i) {
      trt::EventParams ep;
      ep.tracks = 2 + tracks[static_cast<std::size_t>(i)];
      trt::EventGenerator gen(bank, ep, rng.next_u64());
      events_.push_back(gen.generate());
    }
    const int sides = max_tile - min_tile + 1;
    const std::vector<int> widths = balanced_draws(payloads, sides, rng);
    const std::vector<int> heights = balanced_draws(payloads, sides, rng);
    for (int i = 0; i < payloads; ++i) {
      imgproc::Gray8 img(min_tile + widths[static_cast<std::size_t>(i)],
                         min_tile + heights[static_cast<std::size_t>(i)]);
      for (auto& px : img.data()) {
        px = static_cast<std::uint8_t>(rng.next_below(256));
      }
      tiles_.push_back(std::move(img));
    }

    for (const double rate : ladder_) {
      std::vector<Request> stream;
      const double mean_gap_ps = 1e12 / rate;
      double clock = 0.0;
      for (int i = 0; i < jobs; ++i) {
        Request q;
        const double u = rng.uniform(0.0, total);
        const std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        q.config = order[std::min(rank, order.size() - 1)];
        q.tenant = static_cast<int>(rng.next_below(2));
        q.payload = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(payloads)));
        clock += -mean_gap_ps * std::log(rng.uniform(1e-12, 1.0));
        q.arrival = static_cast<Picoseconds>(clock);
        stream.push_back(q);
      }
      streams_.push_back(std::move(stream));
    }
    trt_configs_ = trt_configs;
  }

  PassResult pass(double seconds, int pool_threads) override {
    return run_farm(seconds, pool_threads, true,
                    [this](util::WorkerPool& pool, bool check,
                           EpisodeHost& host) {
                      return episode(pool, check, host);
                    });
  }

 private:
  struct Request {
    int config = 0;
    int tenant = 0;
    int payload = 0;
    Picoseconds arrival = 0;
  };

  bool is_trt(int config) const { return config < trt_configs_; }

  serve::JobSpec make_job(const Request& q, const trt::PatternBank& bank,
                          std::uint64_t job) const {
    const std::string& config = names_[static_cast<std::size_t>(q.config)];
    serve::JobSpec spec;
    if (is_trt(q.config)) {
      // Hit-list mode: only hit straws are pushed, so a job's modelled
      // compute time follows its event's occupancy.
      trt::TrtHwConfig cfg;
      cfg.stream_all_straws = false;
      spec = trt::make_histogram_job(
          bank, events_[static_cast<std::size_t>(q.payload)], cfg,
          "l2_trigger" + std::to_string(q.tenant), config,
          q.arrival);
      spec.deadline =
          q.arrival + static_cast<Picoseconds>(deadline_ms_ * 1e9);
      trace_work(spec, "app.trt", job);
    } else {
      const imgproc::Kernel3x3 kernels[] = {
          imgproc::Kernel3x3::gaussian(), imgproc::Kernel3x3::box_blur(),
          imgproc::Kernel3x3::sharpen(), imgproc::Kernel3x3::sobel_x()};
      spec = imgproc::make_filter_job(
          tiles_[static_cast<std::size_t>(q.payload)],
          kernels[static_cast<std::size_t>(q.config) % 4],
          imgproc::ImgHwConfig{}, "vision" + std::to_string(q.tenant),
          config, q.arrival);
      trace_work(spec, "app.img", job);
    }
    return spec;
  }

  /// One pass over the whole ladder, each rung on a fresh cluster.
  EpisodeModel episode(util::WorkerPool& pool, bool check,
                       EpisodeHost& host) const {
    EpisodeModel m;
    m.offfleet_checked = check;
    struct Rung {
      double rate;
      double p99_ms;  // refusals and failures count as misses
      bool backlog;
    };
    std::vector<Rung> rungs;
    double ladder_served = 0.0;
    double ladder_span_s = 0.0;
    for (std::size_t k = 0; k < ladder_.size(); ++k) {
      const std::int64_t t0 = now_ns();
      serve::ClusterOptions options;
      options.boards_per_shard = boards_;
      options.max_pending_per_shard = static_cast<std::size_t>(max_pending_);
      options.max_placement_attempts = 2;
      auto cluster = std::make_unique<serve::Cluster>(options);
      std::unique_ptr<trt::PatternBank> bank;
      {
        Span s("serve.setup");
        for (int i = 0; i < shards_; ++i) cluster->add_shard();
        for (const hw::Bitstream& bs : make_configs(names_)) {
          cluster->register_config(bs);
        }
        bank = std::make_unique<trt::PatternBank>(geo_, patterns_);
      }
      host.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

      const std::vector<Request>& stream = streams_[k];
      FarmCounters& c = m.counters;
      std::vector<serve::JobSpec> kept;  // admitted specs, off-fleet check
      const std::int64_t d0 = now_ns();
      serve::RunOptions run;
      run.pool = &pool;
      for (std::size_t lo = 0; lo < stream.size(); lo += wave_) {
        const std::size_t hi =
            std::min(stream.size(), lo + static_cast<std::size_t>(wave_));
        for (std::size_t i = lo; i < hi; ++i) {
          serve::JobSpec spec = make_job(stream[i], *bank, i + 1);
          serve::JobSpec copy;
          if (check) copy = spec;
          util::Result<serve::JobId> id = [&] {
            Span s("serve.submit", i + 1);
            return cluster->submit(std::move(spec));
          }();
          if (check && id.ok()) kept.push_back(std::move(copy));
        }
        const std::int64_t r0 = now_ns();
        {
          Span s("serve.run");
          g_run_span.store(s.id(), std::memory_order_relaxed);
          c.add_run(cluster->run(run));
          g_run_span.store(0, std::memory_order_relaxed);
        }
        host.run_s += static_cast<double>(now_ns() - r0) * 1e-9;
        for (int s = 0; s < cluster->shard_count(); ++s) {
          c.batches += cluster->service(s).report().batches;
        }
      }
      host.drive_s += static_cast<double>(now_ns() - d0) * 1e-9;
      const std::uint64_t served_before = c.served;
      const std::uint64_t refused_before = c.rejected + c.shed + c.failed;
      const std::uint64_t digest_before = c.functional_digest;
      c.add_cluster(*cluster);
      host.served += c.served - served_before;
      const Picoseconds span_ps = makespan(*cluster);
      host.modelled_cycles += service_board_cycles(*cluster);

      if (check) {
        std::uint64_t off = 0;
        for (std::size_t j = 0; j < kept.size(); ++j) {
          const serve::JobRecord& jr = cluster->shard_record(j);
          if (jr.error != util::ErrorCode::kOk || jr.finish == 0) continue;
          off += functional_term(kept[j].tenant, kept[j].config,
                                 kept[j].work().checksum);
        }
        m.offfleet_digest += off;
        if (c.functional_digest - digest_before != off) {
          m.problems.push_back("rung " + std::to_string(ladder_[k]) +
                               ": functional digest mismatch");
        }
      }

      // Latency per rung; a refused or failed job misses any limit.
      std::vector<double> lat = sojourns_ms(*cluster);
      ladder_served += static_cast<double>(lat.size());
      ladder_span_s += static_cast<double>(span_ps) * 1e-12;
      const std::uint64_t misses =
          c.rejected + c.shed + c.failed - refused_before;
      for (std::uint64_t i = 0; i < misses; ++i) {
        lat.push_back(std::numeric_limits<double>::infinity());
      }
      Picoseconds last_arrival = stream.back().arrival;
      const bool backlog =
          util::ps_to_ms(span_ps - std::min(span_ps, last_arrival)) >
          p99_limit_ms_;
      rungs.push_back({ladder_[k], quantile(lat, 0.99), backlog});
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  ladder %8.0f req/s: served %5zu refused %5llu "
                    "p50 %8.3f ms p99 %9.3f ms (misses count) backlog %s",
                    ladder_[k], lat.size() - misses,
                    static_cast<unsigned long long>(misses),
                    quantile(lat, 0.5), rungs.back().p99_ms,
                    backlog ? "growing" : "drained");
      m.notes.push_back(line);
      if (ladder_[k] == nominal_) {
        const std::vector<double> served_lat = sojourns_ms(*cluster);
        m.p50_ms = quantile(served_lat, 0.50);
        m.p99_ms = quantile(served_lat, 0.99);
        m.samples = static_cast<double>(served_lat.size());
      }
    }
    // Served per modelled second of makespan over the whole ladder, as
    // ServiceReport's jobs_per_second defines it for one run.
    m.jobs_per_s = ladder_served / ladder_span_s;
    // Highest rung meeting the limit without a growing backlog,
    // interpolated toward the first rung that misses.
    for (std::size_t k = 0; k < rungs.size(); ++k) {
      const bool ok = rungs[k].p99_ms <= p99_limit_ms_ && !rungs[k].backlog;
      if (!ok) {
        if (k > 0 && std::isfinite(rungs[k].p99_ms) && !rungs[k].backlog) {
          const Rung& a = rungs[k - 1];
          const Rung& b = rungs[k];
          m.max_rps_at_slo = a.rate + (p99_limit_ms_ - a.p99_ms) /
                                          (b.p99_ms - a.p99_ms) *
                                          (b.rate - a.rate);
        }
        break;
      }
      m.max_rps_at_slo = rungs[k].rate;
    }
    return m;
  }

  int shards_ = 0;
  int boards_ = 0;
  std::vector<double> ladder_;
  double nominal_ = 0.0;
  double p99_limit_ms_ = 0.0;
  int wave_ = 0;
  int max_pending_ = 0;
  double deadline_ms_ = 0.0;
  trt::DetectorGeometry geo_;
  int patterns_ = 0;
  int trt_configs_ = 0;
  std::vector<std::string> names_;
  std::vector<trt::Event> events_;
  std::vector<imgproc::Gray8> tiles_;
  std::vector<std::vector<Request>> streams_;  // one per ladder rung
};

// --- render_farm ------------------------------------------------------------

class RenderFarm : public Workload {
 public:
  RenderFarm(const Spec& spec, std::uint64_t seed) : seed_(seed) {
    const std::string w = "render_farm";
    shards_ = spec.integer(w, "shards");
    boards_ = spec.integer(w, "boards_per_shard");
    viewers_ = spec.integer(w, "viewers");
    sims_ = spec.integer(w, "nbody_clients");
    rounds_ = spec.integer(w, "rounds");
    save_every_ = spec.integer(w, "save_every_rounds");
    const int min_particles = spec.integer(w, "min_particles");
    const int max_particles = spec.integer(w, "max_particles");
    const double min_zoom = spec.num(w, "min_zoom");
    const double max_zoom = spec.num(w, "max_zoom");
    steps_ = spec.integer(w, "nbody_steps");
    fault_rate_ = spec.num(w, "fault_rate");
    crash_rate_ = spec.num(w, "crash_rate");
    const std::vector<double> dims = spec.nums(w, "phantom_dims");
    ATLANTIS_CHECK(dims.size() == 3, "phantom_dims takes three sizes");
    image_w_ = spec.integer(w, "image_width");
    image_h_ = spec.integer(w, "image_height");
    // One fixed phantom, as a viewer service loads one scan: its dense
    // inclusions, placed by the phantom's seed, set how early rays
    // terminate and so the cost of every frame.
    volume_ = std::make_unique<volren::Volume>(volren::make_ct_phantom(
        static_cast<int>(dims[0]), static_cast<int>(dims[1]),
        static_cast<int>(dims[2]),
        static_cast<std::uint64_t>(spec.integer(w, "phantom_seed"))));
    util::Rng rng(seed ^ 0x5EEDull);
    for (int c = 0; c < viewers_ + sims_; ++c) {
      names_.push_back(c < viewers_ ? "volren_view" + std::to_string(c)
                                    : "nbody_pipe" +
                                          std::to_string(c - viewers_));
    }
    // Nine view x transfer-function pairs and the particle counts are
    // balanced draws: they set a frame's or a step's cost.
    const std::vector<int> looks = balanced_draws(rounds_ * viewers_, 9, rng);
    const std::vector<int> sizes = balanced_draws(
        rounds_ * sims_, max_particles - min_particles + 1, rng);
    for (int round = 0; round < rounds_; ++round) {
      for (int c = 0; c < viewers_; ++c) {
        const int look = looks[views_.size()];
        views_.push_back(look / 3);
        tfs_.push_back(look % 3);
        zooms_.push_back(rng.uniform(min_zoom, max_zoom));
      }
      for (int c = 0; c < sims_; ++c) {
        const int n = min_particles + sizes[sets_.size()];
        sets_.push_back(nbody::make_plummer(n, rng.next_u64()));
      }
    }
  }

  PassResult pass(double seconds, int pool_threads) override {
    // Supervised shards drain through Supervisor::run, which evaluates
    // functors on util::WorkerPool::shared() whatever RunOptions::pool
    // says, so this farm measures (and passes) the shared pool.
    return run_farm(seconds, pool_threads, false,
                    [this](util::WorkerPool& pool, bool check,
                           EpisodeHost& host) {
                      return episode(pool, check, host);
                    });
  }

 private:
  serve::JobSpec make_job(int round, int client, Picoseconds arrival,
                          std::uint64_t job) const {
    const std::string& config = names_[static_cast<std::size_t>(client)];
    serve::JobSpec spec;
    if (client < viewers_) {
      const std::size_t k =
          static_cast<std::size_t>(round * viewers_ + client);
      const volren::TransferFunction tfs[] = {volren::tf_opaque(),
                                              volren::tf_semi_low(),
                                              volren::tf_semi_high()};
      const volren::ViewDirection views[] = {volren::ViewDirection::kFrontal,
                                             volren::ViewDirection::kLateral,
                                             volren::ViewDirection::kOblique};
      volren::FpgaRendererConfig cfg;
      cfg.image_width = image_w_;
      cfg.image_height = image_h_;
      cfg.camera_zoom = zooms_[k];
      spec = volren::make_frame_job(
          *volume_, cfg, tfs[tfs_[k]], views[views_[k]],
          "viewer" + std::to_string(client), config, arrival);
      trace_work(spec, "app.volren", job);
    } else {
      const int sim = client - viewers_;
      spec = nbody::make_integrate_job(
          sets_[static_cast<std::size_t>(round * sims_ + sim)], 0.01, steps_,
          nbody::ForcePipelineConfig{}, "nbody" + std::to_string(sim), config,
          arrival);
      trace_work(spec, "app.nbody", job);
    }
    return spec;
  }

  EpisodeModel episode(util::WorkerPool& pool, bool check,
                       EpisodeHost& host) const {
    EpisodeModel m;
    m.offfleet_checked = check;
    const std::int64_t t0 = now_ns();
    serve::ClusterOptions options;
    options.boards_per_shard = boards_;
    options.supervised = true;
    options.fair_admission = false;
    options.slo_admission = false;
    options.supervisor.max_job_retries = 1000;
    // A checkpoint on every tick: with a longer cadence, a crash early in
    // a run restores a checkpoint taken before the jobs submitted since
    // the previous run, and JobService::load_state refuses it (the
    // snapshot's ledger is shorter than the live one).
    options.supervisor.checkpoint_every = 1;
    auto cluster = std::make_unique<serve::Cluster>(options);
    std::vector<std::unique_ptr<sim::FaultInjector>> injectors;
    {
      Span s("serve.setup");
      for (int i = 0; i < shards_; ++i) {
        const int shard = cluster->add_shard();
        sim::FaultPlan plan;
        plan.seed = seed_ * 31 + static_cast<std::uint64_t>(shard);
        plan.with_rate(sim::FaultKind::kDmaStall, fault_rate_)
            .with_rate(sim::FaultKind::kSeuConfig, fault_rate_)
            .with_rate(sim::FaultKind::kConfigCrc, fault_rate_)
            .with_rate(sim::FaultKind::kServiceCrash, crash_rate_);
        injectors.push_back(std::make_unique<sim::FaultInjector>(plan));
        cluster->system(shard).set_fault_injector(injectors.back().get());
      }
      for (const hw::Bitstream& bs : make_configs(names_)) {
        cluster->register_config(bs);
      }
    }
    host.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    FarmCounters& c = m.counters;
    std::vector<serve::JobSpec> kept;
    const int clients = viewers_ + sims_;
    // Round 0 arrivals are staggered by 100 us per client.
    std::vector<Picoseconds> ready(static_cast<std::size_t>(clients));
    for (int i = 0; i < clients; ++i) {
      ready[static_cast<std::size_t>(i)] = i * 100 * util::kMicrosecond;
    }
    serve::RunOptions run;
    run.pool = &pool;
    for (int round = 0; round < rounds_; ++round) {
      const std::int64_t d0 = now_ns();
      std::vector<serve::JobId> ids;
      for (int client = 0; client < clients; ++client) {
        const std::uint64_t job =
            static_cast<std::uint64_t>(round * clients + client) + 1;
        serve::JobSpec spec = make_job(
            round, client, ready[static_cast<std::size_t>(client)], job);
        serve::JobSpec copy;
        if (check) copy = spec;
        util::Result<serve::JobId> id = [&] {
          Span s("serve.submit", job);
          return cluster->submit(std::move(spec));
        }();
        if (!id.ok()) {
          m.problems.push_back("render job refused: " + id.message());
          ids.push_back(~serve::JobId{0});
          continue;
        }
        ids.push_back(id.value());
        if (check) kept.push_back(std::move(copy));
      }
      const std::int64_t r0 = now_ns();
      {
        Span s("serve.run");
        g_run_span.store(s.id(), std::memory_order_relaxed);
        c.add_run(cluster->run(run));
        g_run_span.store(0, std::memory_order_relaxed);
      }
      host.run_s += static_cast<double>(now_ns() - r0) * 1e-9;
      // Closed loop: each client's next request arrives when its
      // previous result is back.
      for (int client = 0; client < clients; ++client) {
        const serve::JobId id = ids[static_cast<std::size_t>(client)];
        if (id == ~serve::JobId{0}) continue;
        const serve::JobRecord& jr = cluster->shard_record(id);
        ready[static_cast<std::size_t>(client)] =
            std::max(ready[static_cast<std::size_t>(client)], jr.finish);
      }
      if ((round + 1) % save_every_ == 0) {
        sim::SnapshotWriter w;
        {
          Span s("sim.snapshot_save");
          cluster->save_state(w);
        }
        c.snapshot_bytes = w.size();
      }
      host.drive_s += static_cast<double>(now_ns() - d0) * 1e-9;
    }
    c.add_cluster(*cluster);
    host.served += c.served;
    const Picoseconds span_ps = makespan(*cluster);
    host.modelled_cycles = service_board_cycles(*cluster);

    const std::vector<double> lat = sojourns_ms(*cluster);
    m.p50_ms = quantile(lat, 0.50);
    m.p99_ms = quantile(lat, 0.99);
    m.samples = static_cast<double>(lat.size());
    m.jobs_per_s = static_cast<double>(lat.size()) /
                   (static_cast<double>(span_ps) * 1e-12);
    if (check) {
      for (std::size_t j = 0; j < kept.size(); ++j) {
        const serve::JobRecord& jr = cluster->shard_record(j);
        if (jr.error != util::ErrorCode::kOk || jr.finish == 0) continue;
        m.offfleet_digest += functional_term(kept[j].tenant, kept[j].config,
                                             kept[j].work().checksum);
      }
    }
    for (int s = 0; s < cluster->shard_count(); ++s) {
      cluster->system(s).set_fault_injector(nullptr);
    }
    return m;
  }

  std::uint64_t seed_ = 0;
  int shards_ = 0;
  int boards_ = 0;
  int viewers_ = 0;
  int sims_ = 0;
  int rounds_ = 0;
  int save_every_ = 1;
  int steps_ = 0;
  double fault_rate_ = 0.0;
  double crash_rate_ = 0.0;
  int image_w_ = 0;
  int image_h_ = 0;
  std::unique_ptr<volren::Volume> volume_;
  std::vector<std::string> names_;
  std::vector<int> views_;
  std::vector<int> tfs_;
  std::vector<double> zooms_;
  std::vector<nbody::ParticleSet> sets_;
};

}  // namespace

std::unique_ptr<Workload> make_trigger_farm(const Spec& spec,
                                            std::uint64_t seed) {
  return std::make_unique<TriggerFarm>(spec, seed);
}

std::unique_ptr<Workload> make_render_farm(const Spec& spec,
                                           std::uint64_t seed) {
  return std::make_unique<RenderFarm>(spec, seed);
}

}  // namespace perfbench
