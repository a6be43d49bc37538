#include "volren/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace atlantis::volren {
namespace {

// The scheduler as first written: every cycle scans all contexts, with a
// `%` per step, and folds min_ready whether or not a sample issues. Kept
// verbatim as the oracle for the early-exit scheduler.
PipelineResult reference_pipeline(
    const std::vector<std::uint32_t>& samples_per_ray,
    const PipelineParams& params) {
  struct Context {
    std::uint32_t remaining = 0;
    std::uint64_t ready = 0;
  };
  std::vector<Context> ctx(static_cast<std::size_t>(params.contexts));

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
  for (auto& c : ctx) load_next(c, 0);

  PipelineResult r;
  std::uint64_t cycle = 0;
  std::size_t rr = 0;  // round-robin scan start
  for (;;) {
    bool any_active = false;
    bool issued = false;
    std::uint64_t min_ready = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t k = 0; k < ctx.size(); ++k) {
      Context& c = ctx[(rr + k) % ctx.size()];
      if (c.remaining == 0) continue;
      any_active = true;
      if (!issued && c.ready <= cycle) {
        // Issue one sample for this ray; the hazard blocks its next
        // sample for a full pipeline depth.
        --c.remaining;
        c.ready = cycle + static_cast<std::uint64_t>(params.depth);
        if (c.remaining == 0) load_next(c, cycle + 1);
        ++r.issued;
        issued = true;
        rr = (rr + k + 1) % ctx.size();
      }
      min_ready = std::min(min_ready, c.ready);
    }
    if (!any_active) break;
    if (issued) {
      ++cycle;
    } else {
      // No context ready: fast-forward to the next completion and count
      // the dead issue slots as stalls.
      r.stalls += min_ready - cycle;
      cycle = min_ready;
    }
  }
  r.cycles = cycle;
  return r;
}

void expect_matches_reference(const std::vector<std::uint32_t>& rays,
                              int depth, int contexts) {
  PipelineParams p;
  p.depth = depth;
  p.contexts = contexts;
  SCOPED_TRACE(::testing::Message() << rays.size() << " rays, depth "
                                    << depth << ", " << contexts
                                    << " contexts");
  const PipelineResult got = simulate_pipeline(rays, p);
  const PipelineResult want = reference_pipeline(rays, p);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.issued, want.issued);
  EXPECT_EQ(got.stalls, want.stalls);
}

std::vector<std::uint32_t> uniform_rays(int rays, std::uint32_t samples) {
  return std::vector<std::uint32_t>(static_cast<std::size_t>(rays), samples);
}

TEST(Pipeline, SingleContextStallsMoreThan90Percent) {
  // The paper's "more than 90% of rendering time" without
  // multi-threading: one ray issues a sample every `depth` cycles.
  PipelineParams p;
  p.depth = 24;
  p.contexts = 1;
  const PipelineResult r = simulate_pipeline(uniform_rays(100, 50), p);
  EXPECT_GT(r.stall_fraction(), 0.9);
  EXPECT_LT(r.efficiency(), 0.1);
}

TEST(Pipeline, EnoughContextsPushStallsBelow10Percent) {
  // "...to less than 10%" with ray multi-threading.
  PipelineParams p;
  p.depth = 24;
  p.contexts = 32;
  const PipelineResult r = simulate_pipeline(uniform_rays(1000, 50), p);
  EXPECT_LT(r.stall_fraction(), 0.1);
  EXPECT_GT(r.efficiency(), 0.9);
}

TEST(Pipeline, AllSamplesAreIssuedExactlyOnce) {
  util::Rng rng(13);
  std::vector<std::uint32_t> rays;
  std::uint64_t total = 0;
  for (int i = 0; i < 500; ++i) {
    const auto n = static_cast<std::uint32_t>(rng.next_below(40));
    rays.push_back(n);
    total += n;
  }
  for (const int contexts : {1, 4, 16, 64}) {
    PipelineParams p;
    p.depth = 16;
    p.contexts = contexts;
    const PipelineResult r = simulate_pipeline(rays, p);
    EXPECT_EQ(r.issued, total) << contexts << " contexts";
    EXPECT_GE(r.cycles, total);  // at most one issue per cycle
  }
}

TEST(Pipeline, EfficiencyMonotoneInContexts) {
  const auto rays = uniform_rays(400, 30);
  double prev = 0.0;
  for (const int contexts : {1, 2, 4, 8, 16, 32}) {
    PipelineParams p;
    p.depth = 24;
    p.contexts = contexts;
    const double eff = simulate_pipeline(rays, p).efficiency();
    EXPECT_GE(eff, prev) << contexts;
    prev = eff;
  }
}

TEST(Pipeline, SingleContextEfficiencyIsOneOverDepth) {
  PipelineParams p;
  p.depth = 10;
  p.contexts = 1;
  const PipelineResult r = simulate_pipeline(uniform_rays(10, 100), p);
  EXPECT_NEAR(r.efficiency(), 0.1, 0.005);
}

TEST(Pipeline, DepthOneNeverStalls) {
  PipelineParams p;
  p.depth = 1;
  p.contexts = 1;
  const PipelineResult r = simulate_pipeline(uniform_rays(10, 100), p);
  EXPECT_EQ(r.stalls, 0u);
  EXPECT_DOUBLE_EQ(r.efficiency(), 1.0);
}

TEST(Pipeline, ZeroSampleRaysAreSkipped) {
  std::vector<std::uint32_t> rays = {0, 0, 5, 0, 3, 0};
  PipelineParams p;
  p.depth = 4;
  p.contexts = 2;
  const PipelineResult r = simulate_pipeline(rays, p);
  EXPECT_EQ(r.issued, 8u);
}

TEST(Pipeline, EmptyWorkloadIsZeroCycles) {
  const PipelineResult r = simulate_pipeline({}, PipelineParams{});
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.issued, 0u);
}

TEST(Pipeline, ParamValidation) {
  PipelineParams p;
  p.depth = 0;
  EXPECT_THROW(simulate_pipeline({1}, p), util::Error);
  p.depth = 4;
  p.contexts = 0;
  EXPECT_THROW(simulate_pipeline({1}, p), util::Error);
}

TEST(Pipeline, ScheduleMatchesFullScanReference) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    const int depth = 1 + static_cast<int>(rng.next_below(40));
    const int contexts = 1 + static_cast<int>(rng.next_below(64));
    const std::size_t n = static_cast<std::size_t>(rng.next_below(120));
    // Four ray-list shapes: empty, all zero (every ray misses the
    // volume), zeros interleaved with short rays, and plain random.
    std::vector<std::uint32_t> rays(trial % 4 == 0 ? 0 : n, 0);
    if (trial % 4 == 2) {
      for (auto& r : rays) {
        if (rng.next_below(2) != 0) {
          r = static_cast<std::uint32_t>(1 + rng.next_below(6));
        }
      }
    } else if (trial % 4 == 3) {
      for (auto& r : rays) r = static_cast<std::uint32_t>(rng.next_below(50));
    }
    expect_matches_reference(rays, depth, contexts);
  }
}

TEST(Pipeline, ScheduleMatchesReferenceAtContextExtremes) {
  util::Rng rng(7);
  std::vector<std::uint32_t> rays(40);
  for (auto& r : rays) r = static_cast<std::uint32_t>(rng.next_below(30));
  rays[3] = 0;
  rays[4] = 0;
  for (const int depth : {1, 2, 7, 24, 40}) {
    // contexts < depth (stall-bound), == depth, > depth, and more
    // contexts than rays (some never load).
    for (const int contexts : {1, 3, depth, depth + 1, 39, 40, 41, 64}) {
      expect_matches_reference(rays, depth, contexts);
    }
  }
  expect_matches_reference({}, 24, 32);
  expect_matches_reference({0, 0, 0}, 24, 1);
  expect_matches_reference({1}, 40, 64);
}

// Parameterized: stall fraction approximates 1 - min(1, C/D).
class ContextSweep : public ::testing::TestWithParam<int> {};

TEST_P(ContextSweep, MatchesAnalyticOccupancy) {
  const int contexts = GetParam();
  PipelineParams p;
  p.depth = 20;
  p.contexts = contexts;
  const PipelineResult r = simulate_pipeline(uniform_rays(2000, 25), p);
  const double expected =
      1.0 - std::min(1.0, static_cast<double>(contexts) / p.depth);
  EXPECT_NEAR(r.stall_fraction(), expected, 0.06) << contexts;
}

INSTANTIATE_TEST_SUITE_P(Contexts, ContextSweep,
                         ::testing::Values(1, 2, 5, 10, 15, 20, 40));

}  // namespace
}  // namespace atlantis::volren
