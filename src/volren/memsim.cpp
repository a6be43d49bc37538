#include "volren/memsim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/status.hpp"

namespace atlantis::volren {

VoxelMemory::VoxelMemory(const Volume& vol, hw::SdramConfig cfg)
    : cfg_(cfg), nx_(vol.nx()), ny_(vol.ny()), nz_(vol.nz()) {
  half_nx_ = (nx_ + 1) / 2;
  half_ny_ = (ny_ + 1) / 2;
  // One byte per voxel. A row is a power of two in size (its column
  // address bits), so a corner's row is a shift of its address.
  ATLANTIS_CHECK(cfg_.row_bytes > 0 &&
                     std::has_single_bit(
                         static_cast<std::uint64_t>(cfg_.row_bytes)),
                 "SDRAM row size must be a power of two");
  row_shift_ = std::countr_zero(static_cast<std::uint64_t>(cfg_.row_bytes));
  reset();
}

void VoxelMemory::reset() {
  for (auto& r : open_row_) r = -1;
  cycles_ = 0;
  samples_ = 0;
  hits_ = 0;
}

std::uint64_t VoxelMemory::sample_access(double x, double y, double z) {
  // As in Volume::clamped: a one-voxel-thick axis reads voxel 0 for
  // both corners.
  const int x0 =
      std::clamp(static_cast<int>(std::floor(x)), 0, std::max(nx_ - 2, 0));
  const int y0 =
      std::clamp(static_cast<int>(std::floor(y)), 0, std::max(ny_ - 2, 0));
  const int z0 =
      std::clamp(static_cast<int>(std::floor(z)), 0, std::max(nz_ - 2, 0));
  std::uint64_t worst = 1;
  for (int corner = 0; corner < 8; ++corner) {
    const int cx = std::min(x0 + (corner & 1), nx_ - 1);
    const int cy = std::min(y0 + ((corner >> 1) & 1), ny_ - 1);
    const int cz = std::min(z0 + ((corner >> 2) & 1), nz_ - 1);
    // Parity interleave: the 8 neighbourhood corners map to the 8
    // distinct banks (on a one-voxel-thick axis, corner pairs share one).
    const int bank = (cx & 1) | ((cy & 1) << 1) | ((cz & 1) << 2);
    const std::int64_t addr =
        (static_cast<std::int64_t>(cz >> 1) * half_ny_ + (cy >> 1)) *
            half_nx_ +
        (cx >> 1);
    const std::int64_t row = addr >> row_shift_;
    if (open_row_[bank] == row) {
      ++hits_;
    } else {
      const bool was_open = open_row_[bank] >= 0;
      open_row_[bank] = row;
      const std::uint64_t penalty =
          static_cast<std::uint64_t>((was_open ? cfg_.t_rp : 0) + cfg_.t_rcd +
                                     cfg_.t_cas) +
          1;
      worst = std::max(worst, penalty);
    }
  }
  ++samples_;
  cycles_ += worst;
  return worst;
}

}  // namespace atlantis::volren
