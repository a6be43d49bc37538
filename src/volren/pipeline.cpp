#include "volren/pipeline.hpp"

#include <algorithm>
#include <limits>

#include "util/status.hpp"

namespace atlantis::volren {

PipelineResult simulate_pipeline(
    const std::vector<std::uint32_t>& samples_per_ray,
    const PipelineParams& params) {
  ATLANTIS_CHECK(params.depth >= 1, "pipeline depth must be >= 1");
  ATLANTIS_CHECK(params.contexts >= 1, "need at least one ray context");

  struct Context {
    std::uint32_t remaining = 0;
    std::uint64_t ready = 0;
  };
  std::vector<Context> ctx(static_cast<std::size_t>(params.contexts));
  const std::size_t n = ctx.size();

  std::size_t next_ray = 0;
  auto load_next = [&](Context& c, std::uint64_t cycle) {
    while (next_ray < samples_per_ray.size() &&
           samples_per_ray[next_ray] == 0) {
      ++next_ray;  // rays that miss the volume never enter the pipeline
    }
    if (next_ray < samples_per_ray.size()) {
      c.remaining = samples_per_ray[next_ray++];
      c.ready = cycle;  // a fresh ray can issue immediately
    } else {
      c.remaining = 0;
    }
  };
  std::size_t active = 0;  // contexts holding a ray
  for (auto& c : ctx) {
    load_next(c, 0);
    if (c.remaining != 0) ++active;
  }

  PipelineResult r;
  std::uint64_t cycle = 0;
  std::size_t rr = 0;  // round-robin scan start
  while (active != 0) {
    // Scan from rr for the first ready context. With at least `depth`
    // contexts holding rays that is usually the first one looked at, so
    // an issued sample costs O(1).
    std::size_t i = rr;
    std::size_t k = 0;
    while (k < n && (ctx[i].remaining == 0 || ctx[i].ready > cycle)) {
      i = i + 1 == n ? 0 : i + 1;
      ++k;
    }
    if (k < n) {
      // Issue one sample for this ray; the hazard blocks its next
      // sample for a full pipeline depth.
      Context& c = ctx[i];
      --c.remaining;
      c.ready = cycle + static_cast<std::uint64_t>(params.depth);
      if (c.remaining == 0) {
        load_next(c, cycle + 1);
        if (c.remaining == 0) --active;
      }
      ++r.issued;
      rr = i + 1 == n ? 0 : i + 1;
      ++cycle;
      continue;
    }
    // No context ready: fast-forward to the next completion and count
    // the dead issue slots as stalls.
    std::uint64_t min_ready = std::numeric_limits<std::uint64_t>::max();
    for (const Context& c : ctx) {
      if (c.remaining != 0) min_ready = std::min(min_ready, c.ready);
    }
    r.stalls += min_ready - cycle;
    cycle = min_ready;
  }
  r.cycles = cycle;
  return r;
}

}  // namespace atlantis::volren
