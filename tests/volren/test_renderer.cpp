#include "volren/renderer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/timeline.hpp"

namespace atlantis::volren {
namespace {

// One shared small phantom: frame rendering is the expensive part.
const Volume& test_volume() {
  static const Volume v = make_ct_phantom(64, 64, 32);
  return v;
}

FpgaRendererConfig small_config() {
  FpgaRendererConfig cfg;
  cfg.image_width = 64;
  cfg.image_height = 32;
  return cfg;
}

TEST(Renderer, ReportIsInternallyConsistent) {
  FpgaVolumeRenderer r(test_volume(), small_config());
  const FrameReport rep = r.render_frame(tf_opaque(), ViewDirection::kFrontal);
  EXPECT_EQ(rep.view, "frontal");
  EXPECT_EQ(rep.transfer, "opaque");
  EXPECT_EQ(rep.stats.rays, 64u * 32u);
  EXPECT_EQ(rep.pipeline.issued, rep.stats.samples);
  EXPECT_GT(rep.memory_cycles, 0u);
  EXPECT_GT(rep.fps_tech, 0.0);
  EXPECT_NEAR(rep.sample_fraction,
              rep.stats.sample_fraction(test_volume().voxel_count()), 1e-12);
}

TEST(Renderer, BoundFramesChainOnTheTimeline) {
  // Each frame posts a logic and an SDRAM transaction at the previous
  // frame's end; the next frame starts when the slower one finishes.
  sim::Timeline tl;
  FpgaVolumeRenderer r(test_volume(), small_config());
  r.bind(tl);
  util::Picoseconds frame_start = 0;
  for (int frame = 0; frame < 3; ++frame) {
    r.render_frame(tf_opaque(), ViewDirection::kFrontal);
    const std::vector<sim::Transaction>& txns = tl.transactions();
    ASSERT_EQ(txns.size(), static_cast<std::size_t>(2 * frame + 2));
    const sim::Transaction& logic = txns[txns.size() - 2];
    const sim::Transaction& memory = txns.back();
    EXPECT_EQ(logic.start, frame_start);
    EXPECT_EQ(memory.start, frame_start);
    frame_start = std::max(logic.end, memory.end);
  }
  EXPECT_EQ(tl.horizon(), frame_start);
}

TEST(Renderer, PipelineEfficiencyInPaperRange) {
  // "On average one achieves efficiencies of between 90% and 97%."
  FpgaVolumeRenderer r(test_volume(), small_config());
  const FrameReport rep =
      r.render_frame(tf_semi_high(), ViewDirection::kFrontal);
  EXPECT_GT(rep.efficiency, 0.85);
  EXPECT_LE(rep.efficiency, 1.0);
}

TEST(Renderer, OpaqueRendersFasterThanSemiTransparent) {
  // The 138 Hz (opaque) vs 20 Hz (semi-transparent) ordering.
  FpgaVolumeRenderer r(test_volume(), small_config());
  const FrameReport opaque =
      r.render_frame(tf_opaque(), ViewDirection::kFrontal);
  const FrameReport semi =
      r.render_frame(tf_semi_high(), ViewDirection::kFrontal);
  EXPECT_GT(opaque.fps_tech, 2.0 * semi.fps_tech);
}

TEST(Renderer, PerspectiveRoughlyHalvesFrameRate) {
  // "Perspective views reduce the rendering speed by a factor of about 2."
  FpgaVolumeRenderer r(test_volume(), small_config());
  const FrameReport par =
      r.render_frame(tf_semi_low(), ViewDirection::kOblique, false);
  const FrameReport persp =
      r.render_frame(tf_semi_low(), ViewDirection::kOblique, true);
  const double factor = par.fps_tech / persp.fps_tech;
  EXPECT_GT(factor, 1.2);
  EXPECT_LT(factor, 4.0);
}

TEST(Renderer, FpgaClockSlowsFramesProportionally) {
  // ">25 MHz ... reduces the frame rate accordingly" vs the 100 MHz
  // technology simulations.
  FpgaVolumeRenderer r(test_volume(), small_config());
  const FrameReport rep = r.render_frame(tf_opaque(), ViewDirection::kLateral);
  EXPECT_LE(rep.fps_fpga, rep.fps_tech);
  // When logic limits, the ratio approaches 4 (100/25).
  EXPECT_GT(rep.fps_tech / rep.fps_fpga, 1.5);
}

TEST(Renderer, VolumeProBaselineMatchesKnownFigure) {
  // The real board: 256^3 at 30 Hz => 500 Mvoxel/s.
  EXPECT_NEAR(FpgaVolumeRenderer::volumepro_fps(256ll * 256 * 256), 29.8,
              0.5);
  EXPECT_THROW(FpgaVolumeRenderer::volumepro_fps(0), util::Error);
}

TEST(Renderer, BeatsVolumeProOnSparseData) {
  // E4's mechanism: the brute-force engine touches every voxel; the
  // optimized renderer touches the sample fraction only.
  FpgaVolumeRenderer r(test_volume(), small_config());
  const FrameReport rep = r.render_frame(tf_opaque(), ViewDirection::kFrontal);
  const double vp = FpgaVolumeRenderer::volumepro_fps(
      test_volume().voxel_count());
  EXPECT_GT(rep.fps_tech, vp);
}

TEST(Renderer, ImageIsNotBlack) {
  FpgaVolumeRenderer r(test_volume(), small_config());
  const FrameReport rep = r.render_frame(tf_opaque(), ViewDirection::kFrontal);
  std::int64_t lit = 0;
  for (const std::uint8_t px : rep.image.data()) {
    if (px > 16) ++lit;
  }
  EXPECT_GT(lit, static_cast<std::int64_t>(rep.image.size() / 10));
}

TEST(Renderer, ConfigValidation) {
  FpgaRendererConfig cfg;
  cfg.logic_clock_mhz = 0.0;
  EXPECT_THROW(FpgaVolumeRenderer(test_volume(), cfg), util::Error);
}

}  // namespace
}  // namespace atlantis::volren
