#include "volren/memsim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace atlantis::volren {
namespace {

TEST(VoxelMemory, FirstAccessMissesThenStreams) {
  const Volume v(64, 64, 64);
  VoxelMemory mem(v);
  const std::uint64_t first = mem.sample_access(10.5, 10.5, 10.5);
  EXPECT_GT(first, 1u);  // eight cold banks
  const std::uint64_t second = mem.sample_access(11.5, 10.5, 10.5);
  EXPECT_EQ(second, 1u);  // same rows in all banks
  EXPECT_EQ(mem.total_samples(), 2u);
}

TEST(VoxelMemory, AxisAlignedMarchIsRowFriendly) {
  const Volume v(128, 128, 64);
  VoxelMemory mem(v);
  for (int x = 1; x < 126; ++x) {
    mem.sample_access(x + 0.5, 64.2, 32.2);
  }
  EXPECT_GT(mem.hit_rate(), 0.95);
  EXPECT_LT(mem.mean_cycles_per_sample(), 1.2);
}

TEST(VoxelMemory, RandomAccessThrashesRows) {
  const Volume v(128, 128, 64);
  VoxelMemory aligned(v);
  VoxelMemory random(v);
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    aligned.sample_access(1.0 + i % 120, 64.0, 32.0);
    random.sample_access(rng.uniform(1, 126), rng.uniform(1, 126),
                         rng.uniform(1, 62));
  }
  EXPECT_GT(random.mean_cycles_per_sample(),
            2.0 * aligned.mean_cycles_per_sample());
  EXPECT_LT(random.hit_rate(), aligned.hit_rate());
}

TEST(VoxelMemory, ObliqueCostsMoreThanAxisAligned) {
  // This is the mechanism behind the paper's "perspective views reduce
  // the rendering speed by a factor of about 2".
  const Volume v(128, 128, 128);
  VoxelMemory axis(v);
  VoxelMemory oblique(v);
  for (int i = 1; i < 120; ++i) {
    axis.sample_access(i, 64.0, 64.0);
    oblique.sample_access(i, 10.0 + 0.9 * i, 20.0 + 0.8 * i);
  }
  EXPECT_GT(oblique.total_cycles(), axis.total_cycles());
}

TEST(VoxelMemory, ResetClearsStateAndCounters) {
  const Volume v(32, 32, 32);
  VoxelMemory mem(v);
  mem.sample_access(5, 5, 5);
  mem.sample_access(6, 5, 5);
  mem.reset();
  EXPECT_EQ(mem.total_cycles(), 0u);
  EXPECT_EQ(mem.total_samples(), 0u);
  EXPECT_GT(mem.sample_access(5, 5, 5), 1u);  // banks closed again
}

TEST(VoxelMemory, CostBoundedByWorstBankPenalty) {
  const Volume v(64, 64, 64);
  hw::SdramConfig cfg;
  VoxelMemory mem(v, cfg);
  util::Rng rng(9);
  const std::uint64_t worst =
      static_cast<std::uint64_t>(cfg.t_rp + cfg.t_rcd + cfg.t_cas) + 1;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t c = mem.sample_access(
        rng.uniform(1, 62), rng.uniform(1, 62), rng.uniform(1, 62));
    EXPECT_GE(c, 1u);
    EXPECT_LE(c, worst);
  }
}

// The SDRAM model written out plainly, with a division per corner and
// per-axis clamps: the oracle for VoxelMemory's row shift.
class ReferenceVoxelMemory {
 public:
  ReferenceVoxelMemory(const Volume& v, hw::SdramConfig cfg)
      : cfg_(cfg), n_{v.nx(), v.ny(), v.nz()} {}

  std::uint64_t sample_access(double x, double y, double z) {
    const double p[3] = {x, y, z};
    int base[3];
    for (int a = 0; a < 3; ++a) {
      base[a] = std::clamp(static_cast<int>(std::floor(p[a])), 0,
                           std::max(n_[a] - 2, 0));
    }
    std::uint64_t worst = 1;
    for (int corner = 0; corner < 8; ++corner) {
      int c[3];
      for (int a = 0; a < 3; ++a) {
        c[a] = std::min(base[a] + ((corner >> a) & 1), n_[a] - 1);
      }
      const int bank = (c[0] & 1) | ((c[1] & 1) << 1) | ((c[2] & 1) << 2);
      const std::int64_t addr =
          (static_cast<std::int64_t>(c[2] / 2) * ((n_[1] + 1) / 2) +
           c[1] / 2) *
              ((n_[0] + 1) / 2) +
          c[0] / 2;
      const std::int64_t row = addr / cfg_.row_bytes;
      if (open_row_[bank] == row) {
        ++hits_;
      } else {
        worst = std::max<std::uint64_t>(
            worst, static_cast<std::uint64_t>(
                       (open_row_[bank] >= 0 ? cfg_.t_rp : 0) + cfg_.t_rcd +
                       cfg_.t_cas + 1));
        open_row_[bank] = row;
      }
    }
    cycles_ += worst;
    return worst;
  }

  std::uint64_t cycles_ = 0;
  std::uint64_t hits_ = 0;

 private:
  hw::SdramConfig cfg_;
  int n_[3];
  std::int64_t open_row_[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
};

TEST(VoxelMemory, AccountingMatchesPerCornerDivision) {
  for (const std::int64_t row_bytes : {2048, 64, 8, 1}) {
    for (const auto& dims : std::vector<std::array<int, 3>>{
             {64, 48, 40}, {33, 17, 9}, {1, 8, 8}, {9, 1, 1}}) {
      const Volume v(dims[0], dims[1], dims[2]);
      hw::SdramConfig cfg;
      cfg.row_bytes = row_bytes;
      VoxelMemory mem(v, cfg);
      ReferenceVoxelMemory ref(v, cfg);
      util::Rng rng(static_cast<std::uint64_t>(row_bytes) + dims[0]);
      for (int i = 0; i < 3000; ++i) {
        const double x = rng.uniform(-2.0, dims[0] + 1.0);
        const double y = rng.uniform(-2.0, dims[1] + 1.0);
        const double z = rng.uniform(-2.0, dims[2] + 1.0);
        ASSERT_EQ(mem.sample_access(x, y, z), ref.sample_access(x, y, z))
            << "row " << row_bytes << ", sample " << i;
      }
      EXPECT_EQ(mem.total_cycles(), ref.cycles_);
      EXPECT_EQ(mem.hit_rate(), static_cast<double>(ref.hits_) / (3000 * 8));
    }
  }
}

TEST(VoxelMemory, RowSizeMustBeAPowerOfTwo) {
  const Volume v(8, 8, 8);
  for (const std::int64_t row_bytes : {1000, 96, 0, -2048}) {
    hw::SdramConfig cfg;
    cfg.row_bytes = row_bytes;
    EXPECT_THROW(VoxelMemory(v, cfg), util::Error) << row_bytes;
  }
}

TEST(VoxelMemory, OneVoxelThickVolume) {
  // A one-voxel-thick axis clamps both corners to voxel 0, as
  // Volume::clamped does: each +1 corner reads the bank and row its base
  // corner just opened, so half the first sample's accesses hit.
  hw::SdramConfig cfg;
  const std::uint64_t cold =
      static_cast<std::uint64_t>(cfg.t_rcd + cfg.t_cas) + 1;
  const Volume slab(1, 8, 8);
  VoxelMemory mem(slab, cfg);
  EXPECT_EQ(mem.sample_access(0, 3.5, 3.5), cold);
  EXPECT_DOUBLE_EQ(mem.hit_rate(), 0.5);
  EXPECT_EQ(mem.sample_access(0.7, 3.5, 3.5), 1u);  // rows stay open
  EXPECT_EQ(mem.total_samples(), 2u);

  const Volume voxel(1, 1, 1);
  VoxelMemory one(voxel, cfg);
  EXPECT_EQ(one.sample_access(-2.0, 0.5, 9.0), cold);
  EXPECT_DOUBLE_EQ(one.hit_rate(), 7.0 / 8.0);
}

}  // namespace
}  // namespace atlantis::volren
