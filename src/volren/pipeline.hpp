// Multi-threaded ray-pipeline stall simulator.
//
// §3.2: the algorithmic optimizations introduce data and branch hazards —
// whether a ray continues depends on the compositing result of its
// previous sample, which emerges at the end of the deep rendering
// pipeline. "To overcome the resulting data and branch hazards ...
// multi-threading is introduced. Each ray is considered as a single
// thread, and after each sample point the context is switched to the
// next ray." The paper's claim: stalls drop from >90 % of rendering time
// to <10 %.
//
// The simulator issues at most one sample per cycle. A ray may issue its
// next sample only `depth` cycles after its previous one (the hazard);
// with C resident ray contexts the scheduler round-robins across ready
// rays, hiding the latency once C approaches the pipeline depth.
#pragma once

#include <cstdint>
#include <vector>

namespace atlantis::volren {

struct PipelineParams {
  int depth = 24;     // rendering pipeline stages (interp/classify/composite)
  int contexts = 32;  // resident ray threads
};

struct PipelineResult {
  std::uint64_t cycles = 0;
  std::uint64_t issued = 0;   // samples issued
  std::uint64_t stalls = 0;   // cycles with no ready context
  double efficiency() const {
    return cycles ? static_cast<double>(issued) / static_cast<double>(cycles)
                  : 0.0;
  }
  double stall_fraction() const {
    return cycles ? static_cast<double>(stalls) / static_cast<double>(cycles)
                  : 0.0;
  }
};

/// Runs the schedule for the given per-ray sample counts (from
/// RenderStats::samples_per_ray). Host cost: O(1) amortized per issued
/// sample when contexts >= depth, O(contexts) per stall.
PipelineResult simulate_pipeline(const std::vector<std::uint32_t>& samples_per_ray,
                                 const PipelineParams& params);

}  // namespace atlantis::volren
