#include "volren/volume.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace atlantis::volren {
namespace {

TEST(Volume, ConstructionAndAccess) {
  Volume v(8, 4, 2);
  EXPECT_EQ(v.voxel_count(), 64);
  v.set(7, 3, 1, 200);
  EXPECT_EQ(v.at(7, 3, 1), 200);
  EXPECT_THROW(v.at(8, 0, 0), util::Error);
  EXPECT_THROW(Volume(0, 1, 1), util::Error);
}

TEST(Volume, ClampedReadsNearestVoxel) {
  Volume v(2, 2, 2);
  v.set(0, 0, 0, 10);
  v.set(1, 1, 1, 99);
  EXPECT_EQ(v.clamped(-3, -3, -3), 10);
  EXPECT_EQ(v.clamped(5, 5, 5), 99);
}

TEST(Volume, TrilinearIsExactAtVoxelCenters) {
  Volume v(4, 4, 4);
  util::Rng rng(3);
  for (int z = 0; z < 4; ++z) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        v.set(x, y, z, static_cast<std::uint8_t>(rng.next_below(256)));
      }
    }
  }
  for (int z = 0; z < 4; ++z) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        EXPECT_DOUBLE_EQ(v.sample(x, y, z), v.at(x, y, z));
      }
    }
  }
}

TEST(Volume, TrilinearIsLinearAlongAxes) {
  Volume v(3, 3, 3);
  v.set(0, 1, 1, 0);
  v.set(1, 1, 1, 100);
  EXPECT_DOUBLE_EQ(v.sample(0.5, 1, 1), 50.0);
  EXPECT_DOUBLE_EQ(v.sample(0.25, 1, 1), 25.0);
}

TEST(Volume, TrilinearMidpointAveragesCube) {
  Volume v(2, 2, 2);
  int sum = 0;
  int val = 0;
  for (int z = 0; z < 2; ++z) {
    for (int y = 0; y < 2; ++y) {
      for (int x = 0; x < 2; ++x) {
        val += 30;
        v.set(x, y, z, static_cast<std::uint8_t>(val));
        sum += val;
      }
    }
  }
  EXPECT_DOUBLE_EQ(v.sample(0.5, 0.5, 0.5), sum / 8.0);
}

TEST(Volume, GradientPointsUphill) {
  Volume v(5, 5, 5);
  // Ramp along x: value = 40x.
  for (int z = 0; z < 5; ++z) {
    for (int y = 0; y < 5; ++y) {
      for (int x = 0; x < 5; ++x) {
        v.set(x, y, z, static_cast<std::uint8_t>(40 * x));
      }
    }
  }
  const Vec3 g = v.gradient(2, 2, 2);
  EXPECT_NEAR(g.x, 40.0, 1e-9);
  EXPECT_NEAR(g.y, 0.0, 1e-9);
  EXPECT_NEAR(g.z, 0.0, 1e-9);
}

// Trilinear sampling as eight clamped() fetches and today's arithmetic:
// the oracle for Volume::sample's interior fast path.
double reference_sample(const Volume& v, double x, double y, double z) {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const int z0 = static_cast<int>(std::floor(z));
  const double fx = x - x0;
  const double fy = y - y0;
  const double fz = z - z0;
  const double c000 = v.clamped(x0, y0, z0);
  const double c100 = v.clamped(x0 + 1, y0, z0);
  const double c010 = v.clamped(x0, y0 + 1, z0);
  const double c110 = v.clamped(x0 + 1, y0 + 1, z0);
  const double c001 = v.clamped(x0, y0, z0 + 1);
  const double c101 = v.clamped(x0 + 1, y0, z0 + 1);
  const double c011 = v.clamped(x0, y0 + 1, z0 + 1);
  const double c111 = v.clamped(x0 + 1, y0 + 1, z0 + 1);
  const double c00 = c000 + (c100 - c000) * fx;
  const double c10 = c010 + (c110 - c010) * fx;
  const double c01 = c001 + (c101 - c001) * fx;
  const double c11 = c011 + (c111 - c011) * fx;
  const double c0 = c00 + (c10 - c00) * fy;
  const double c1 = c01 + (c11 - c01) * fy;
  return c0 + (c1 - c0) * fz;
}

Volume random_volume(int nx, int ny, int nz, std::uint64_t seed) {
  Volume v(nx, ny, nz);
  util::Rng rng(seed);
  for (auto& b : v.data()) b = static_cast<std::uint8_t>(rng.next_below(256));
  return v;
}

// Exact equality on doubles, for sample() and all three gradient terms.
void expect_bit_identical(const Volume& v, double x, double y, double z) {
  EXPECT_EQ(v.sample(x, y, z), reference_sample(v, x, y, z))
      << "(" << x << ", " << y << ", " << z << ") in " << v.nx() << "x"
      << v.ny() << "x" << v.nz();
  const Vec3 g = v.gradient(x, y, z);
  EXPECT_EQ(g.x, (reference_sample(v, x + 1, y, z) -
                  reference_sample(v, x - 1, y, z)) *
                     0.5);
  EXPECT_EQ(g.y, (reference_sample(v, x, y + 1, z) -
                  reference_sample(v, x, y - 1, z)) *
                     0.5);
  EXPECT_EQ(g.z, (reference_sample(v, x, y, z + 1) -
                  reference_sample(v, x, y, z - 1)) *
                     0.5);
}

TEST(Volume, InteriorFetchMatchesClampedFormAtRandomPoints) {
  const Volume v = random_volume(9, 7, 5, 21);
  util::Rng rng(22);
  for (int i = 0; i < 2000; ++i) {
    expect_bit_identical(v, rng.uniform(0.0, 8.0), rng.uniform(0.0, 6.0),
                         rng.uniform(0.0, 4.0));
  }
}

TEST(Volume, BoundaryFetchMatchesClampedFormOnFacesEdgesAndCorners) {
  // Per axis: outside below, on 0, interior, the last full cell, on
  // n-1, just past n-1, and outside above. Every combination puts the
  // point on a face, an edge, a corner or inside.
  const auto coords = [](int n) {
    const double hi = n - 1.0;
    return std::vector<double>{-2.5, -1e-9, 0.0, 0.5, hi - 0.5, hi,
                               hi + 1e-9, hi + 0.5, hi + 3.0};
  };
  for (const auto& dims : std::vector<std::array<int, 3>>{
           {6, 5, 4}, {2, 2, 2}, {1, 8, 8}, {8, 1, 8}, {8, 8, 1}, {1, 1, 1},
           {1, 1, 5}}) {
    const Volume v = random_volume(dims[0], dims[1], dims[2], 31);
    for (const double x : coords(dims[0])) {
      for (const double y : coords(dims[1])) {
        for (const double z : coords(dims[2])) {
          expect_bit_identical(v, x, y, z);
        }
      }
    }
  }
}

TEST(Vec3, BasicOps) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((a + b).x, 5.0);
  EXPECT_DOUBLE_EQ((b - a).z, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).y, 4.0);
  EXPECT_NEAR((Vec3{3, 4, 0}).norm(), 5.0, 1e-12);
  EXPECT_NEAR((Vec3{10, 0, 0}).normalized().x, 1.0, 1e-12);
  const Vec3 c = Vec3{1, 0, 0}.cross(Vec3{0, 1, 0});
  EXPECT_DOUBLE_EQ(c.z, 1.0);
  EXPECT_DOUBLE_EQ(Vec3{}.normalized().norm(), 0.0);
}

TEST(Phantom, HasThePaperMaterialMix) {
  // CT-like: air, soft tissue, and a hard (bone) shell must all be
  // present in the proportions that make space-skipping worthwhile.
  const Volume v = make_ct_phantom(64, 64, 32);
  std::int64_t air = 0, tissue = 0, bone = 0;
  for (const std::uint8_t val : v.data()) {
    if (val < 20) {
      ++air;
    } else if (val >= 180) {
      ++bone;
    } else {
      ++tissue;
    }
  }
  const auto total = static_cast<double>(v.voxel_count());
  EXPECT_GT(air / total, 0.3);     // mostly empty space around the head
  EXPECT_GT(tissue / total, 0.2);  // brain
  EXPECT_GT(bone / total, 0.01);   // skull shell
  EXPECT_LT(bone / total, 0.2);
}

TEST(Phantom, DeterministicFromSeed) {
  EXPECT_EQ(make_ct_phantom(32, 32, 16, 5).data(),
            make_ct_phantom(32, 32, 16, 5).data());
  EXPECT_NE(make_ct_phantom(32, 32, 16, 5).data(),
            make_ct_phantom(32, 32, 16, 6).data());
}

TEST(Phantom, CenterIsTissueCornerIsAir) {
  const Volume v = make_ct_phantom(64, 64, 64);
  EXPECT_EQ(v.at(0, 0, 0), 0);
  const std::uint8_t center = v.at(32, 32, 32);
  EXPECT_GT(center, 20);
  EXPECT_LT(center, 180);
}

}  // namespace
}  // namespace atlantis::volren
