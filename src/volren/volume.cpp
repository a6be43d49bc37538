#include "volren/volume.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace atlantis::volren {

double Vec3::norm() const { return std::sqrt(dot(*this)); }

Vec3 Vec3::normalized() const {
  const double n = norm();
  if (n == 0.0) return {};
  return {x / n, y / n, z / n};
}

Volume::Volume(int nx, int ny, int nz, std::uint8_t fill)
    : nx_(nx), ny_(ny), nz_(nz),
      data_(static_cast<std::size_t>(nx) * ny * nz, fill) {
  ATLANTIS_CHECK(nx > 0 && ny > 0 && nz > 0, "volume dims must be positive");
}

std::uint8_t Volume::clamped(int x, int y, int z) const {
  x = std::clamp(x, 0, nx_ - 1);
  y = std::clamp(y, 0, ny_ - 1);
  z = std::clamp(z, 0, nz_ - 1);
  return data_[(static_cast<std::size_t>(z) * ny_ + y) * nx_ + x];
}

double Volume::sample(double x, double y, double z) const {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const int z0 = static_cast<int>(std::floor(z));
  const double fx = x - x0;
  const double fy = y - y0;
  const double fz = z - z0;
  // The eight corner fetches — exactly the 8-bank parallel read of the
  // SDRAM module. Inside the grid they are one base pointer plus
  // strides; only a neighbourhood that crosses a face clamps.
  // Corner index bit 0 is +x, bit 1 +y, bit 2 +z.
  const std::array<std::uint8_t, 8> c = [&]() -> std::array<std::uint8_t, 8> {
    if (x0 >= 0 && x0 < nx_ - 1 && y0 >= 0 && y0 < ny_ - 1 && z0 >= 0 &&
        z0 < nz_ - 1) {
      const std::size_t sy = static_cast<std::size_t>(nx_);
      const std::size_t sz = sy * static_cast<std::size_t>(ny_);
      const std::uint8_t* p =
          data_.data() + static_cast<std::size_t>(z0) * sz +
          static_cast<std::size_t>(y0) * sy + static_cast<std::size_t>(x0);
      return {p[0],  p[1],      p[sy],      p[sy + 1],
              p[sz], p[sz + 1], p[sz + sy], p[sz + sy + 1]};
    }
    return {clamped(x0, y0, z0),         clamped(x0 + 1, y0, z0),
            clamped(x0, y0 + 1, z0),     clamped(x0 + 1, y0 + 1, z0),
            clamped(x0, y0, z0 + 1),     clamped(x0 + 1, y0, z0 + 1),
            clamped(x0, y0 + 1, z0 + 1), clamped(x0 + 1, y0 + 1, z0 + 1)};
  }();
  const double c000 = c[0], c100 = c[1], c010 = c[2], c110 = c[3];
  const double c001 = c[4], c101 = c[5], c011 = c[6], c111 = c[7];
  const double c00 = c000 + (c100 - c000) * fx;
  const double c10 = c010 + (c110 - c010) * fx;
  const double c01 = c001 + (c101 - c001) * fx;
  const double c11 = c011 + (c111 - c011) * fx;
  const double c0 = c00 + (c10 - c00) * fy;
  const double c1 = c01 + (c11 - c01) * fy;
  return c0 + (c1 - c0) * fz;
}

Vec3 Volume::gradient(double x, double y, double z) const {
  return {
      (sample(x + 1, y, z) - sample(x - 1, y, z)) * 0.5,
      (sample(x, y + 1, z) - sample(x, y - 1, z)) * 0.5,
      (sample(x, y, z + 1) - sample(x, y, z - 1)) * 0.5,
  };
}

Volume make_ct_phantom(int nx, int ny, int nz, std::uint64_t seed) {
  Volume v(nx, ny, nz);
  util::Rng rng(seed);
  const double cx = nx / 2.0;
  const double cy = ny / 2.0;
  const double cz = nz / 2.0;
  // Head axes: fill ~70% of the grid.
  const double ax = 0.38 * nx;
  const double ay = 0.42 * ny;
  const double az = 0.40 * nz;

  // A couple of dense inclusions (calcifications) inside the brain.
  struct Inclusion {
    double x, y, z, r;
  };
  std::vector<Inclusion> inclusions;
  for (int i = 0; i < 3; ++i) {
    inclusions.push_back({cx + rng.uniform(-0.2, 0.2) * nx,
                          cy + rng.uniform(-0.2, 0.2) * ny,
                          cz + rng.uniform(-0.2, 0.2) * nz,
                          rng.uniform(2.0, 5.0)});
  }

  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const double ex = (x - cx) / ax;
        const double ey = (y - cy) / ay;
        const double ez = (z - cz) / az;
        const double r = std::sqrt(ex * ex + ey * ey + ez * ez);
        std::uint8_t value = 0;  // air
        if (r < 1.0) {
          if (r > 0.92) {
            value = 220;  // skull shell (hard surface)
          } else {
            // Soft tissue with mild texture.
            value = static_cast<std::uint8_t>(
                std::clamp(90.0 + 8.0 * rng.normal(), 60.0, 120.0));
            // Ventricles: two small off-center ellipsoids of CSF.
            for (const double side : {-1.0, 1.0}) {
              const double vx2 = (x - (cx + side * 0.08 * nx)) / (0.06 * nx);
              const double vy2 = (y - cy) / (0.14 * ny);
              const double vz2 = (z - cz) / (0.10 * nz);
              if (vx2 * vx2 + vy2 * vy2 + vz2 * vz2 < 1.0) value = 40;
            }
            for (const auto& inc : inclusions) {
              const double dx = x - inc.x;
              const double dy = y - inc.y;
              const double dz = z - inc.z;
              if (dx * dx + dy * dy + dz * dz < inc.r * inc.r) value = 250;
            }
          }
        }
        v.set(x, y, z, value);
      }
    }
  }
  return v;
}

}  // namespace atlantis::volren
