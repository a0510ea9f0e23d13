// Morton (Z-order) encoding and octree locational codes.
//
// Every octree implementation in this repository (the PM-octree core, the
// Gerris-style in-core baseline, and the Etree-style out-of-core baseline)
// identifies octants by a locational code: the anchor coordinates of the
// octant interleaved into a Morton key, plus a refinement level. Keys are
// totally ordered; sorting leaves by key yields the space-filling-curve
// order used for domain partitioning (the paper's Partition routine) and
// for the Etree B+-tree index (Z-values).
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/assert.hpp"

namespace pmo {

/// Maximum refinement depth. 3 bits per level * 20 levels = 60 bits of
/// Morton key, leaving headroom in a 64-bit word. Gerris production runs
/// (and the paper's droplet workload) stay well below this.
inline constexpr int kMaxLevel = 20;
inline constexpr int kDimensions = 3;
inline constexpr int kChildrenPerNode = 8;  // the paper's "Fanout"
/// Face + edge + corner neighbors of a cube: 6 + 12 + 8.
inline constexpr int kNeighborCount = 26;

/// Interleave the low 21 bits of x into every 3rd bit of the result.
constexpr std::uint64_t morton_split3(std::uint32_t x) noexcept {
  std::uint64_t v = x & 0x1fffff;  // 21 bits
  v = (v | v << 32) & 0x1f00000000ffffull;
  v = (v | v << 16) & 0x1f0000ff0000ffull;
  v = (v | v << 8) & 0x100f00f00f00f00full;
  v = (v | v << 4) & 0x10c30c30c30c30c3ull;
  v = (v | v << 2) & 0x1249249249249249ull;
  return v;
}

/// Inverse of morton_split3.
constexpr std::uint32_t morton_compact3(std::uint64_t v) noexcept {
  v &= 0x1249249249249249ull;
  v = (v ^ (v >> 2)) & 0x10c30c30c30c30c3ull;
  v = (v ^ (v >> 4)) & 0x100f00f00f00f00full;
  v = (v ^ (v >> 8)) & 0x1f0000ff0000ffull;
  v = (v ^ (v >> 16)) & 0x1f00000000ffffull;
  v = (v ^ (v >> 32)) & 0x1fffff;
  return static_cast<std::uint32_t>(v);
}

/// 3D Morton encode: bit k of x lands at bit 3k, y at 3k+1, z at 3k+2.
constexpr std::uint64_t morton_encode3(std::uint32_t x, std::uint32_t y,
                                       std::uint32_t z) noexcept {
  return morton_split3(x) | (morton_split3(y) << 1) |
         (morton_split3(z) << 2);
}

constexpr std::array<std::uint32_t, 3> morton_decode3(
    std::uint64_t code) noexcept {
  return {morton_compact3(code), morton_compact3(code >> 1),
          morton_compact3(code >> 2)};
}

/// Fast-path 3D Morton encode/decode. On builds targeting BMI2
/// (x86 `-mbmi2` / `-march=haswell` or newer) these dispatch to single
/// PDEP/PEXT instructions per axis; elsewhere they fall back to the
/// portable magic-bits routines above. Bit-identical to
/// morton_encode3/morton_decode3 by definition — the differential test
/// in morton_test.cpp holds both paths to that.
std::uint64_t morton_encode3_fast(std::uint32_t x, std::uint32_t y,
                                  std::uint32_t z) noexcept;
std::array<std::uint32_t, 3> morton_decode3_fast(std::uint64_t code) noexcept;
/// True when the BMI2 path is compiled in (for test/bench reporting).
bool morton_bmi2_enabled() noexcept;

/// Batched Morton kernels over parallel coordinate arrays. Same BMI2 /
/// portable seam as the scalar fast paths, written as straight-line loops
/// over SoA inputs so the compiler can keep the PDEP/PEXT (or magic-bits)
/// pipelines full — the face-neighbor index build feeds these.
/// Bit-identical to calling the scalar routines per element (held to that
/// by morton_test.cpp).
void morton_encode3_batch(const std::uint32_t* x, const std::uint32_t* y,
                          const std::uint32_t* z, std::uint64_t* out,
                          std::size_t n) noexcept;
void morton_decode3_batch(const std::uint64_t* codes, std::uint32_t* x,
                          std::uint32_t* y, std::uint32_t* z,
                          std::size_t n) noexcept;

/// Anchor coordinates of an octant on the level-`kMaxLevel` integer grid.
struct Anchor {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;

  friend constexpr bool operator==(const Anchor&, const Anchor&) = default;
};

/// Locational code of an octant: level + Morton key of its anchor
/// expressed on the finest grid. The pair (key, level) uniquely identifies
/// an octant; ordering by (key, level) is the depth-first SFC order.
class LocCode {
 public:
  constexpr LocCode() noexcept = default;

  static constexpr LocCode root() noexcept { return LocCode(0, 0); }

  /// Construct from anchor coordinates expressed on the level-`level` grid
  /// (i.e. coordinates in [0, 2^level)).
  static LocCode from_grid(int level, std::uint32_t x, std::uint32_t y,
                           std::uint32_t z) {
    PMO_CHECK_MSG(level >= 0 && level <= kMaxLevel,
                  "level out of range: " << level);
    const std::uint32_t side = std::uint32_t{1} << level;
    PMO_CHECK_MSG(x < side && y < side && z < side,
                  "grid coordinate out of range at level " << level);
    const int shift = kMaxLevel - level;
    return LocCode(morton_encode3_fast(x << shift, y << shift, z << shift),
                   level);
  }

  constexpr int level() const noexcept { return level_; }
  constexpr std::uint64_t key() const noexcept { return key_; }

  /// Anchor on the finest (level kMaxLevel) grid.
  Anchor anchor() const noexcept {
    const auto c = morton_decode3_fast(key_);
    return {c[0], c[1], c[2]};
  }

  /// Anchor on this octant's own level grid.
  Anchor grid_anchor() const noexcept {
    const auto a = anchor();
    const int shift = kMaxLevel - level_;
    return {a.x >> shift, a.y >> shift, a.z >> shift};
  }

  /// Side length measured in finest-grid units.
  constexpr std::uint32_t extent() const noexcept {
    return std::uint32_t{1} << (kMaxLevel - level_);
  }

  constexpr bool is_root() const noexcept { return level_ == 0; }

  /// Index (0..7) of this octant within its parent.
  int child_index() const noexcept {
    PMO_DCHECK(level_ > 0);
    const int shift = 3 * (kMaxLevel - level_);
    return static_cast<int>((key_ >> shift) & 0x7);
  }

  LocCode parent() const {
    PMO_CHECK_MSG(level_ > 0, "root has no parent");
    const int shift = 3 * (kMaxLevel - level_ + 1);
    const std::uint64_t mask = ~((std::uint64_t{1} << shift) - 1);
    return LocCode(key_ & mask, level_ - 1);
  }

  LocCode child(int index) const {
    PMO_CHECK_MSG(level_ < kMaxLevel, "cannot refine beyond kMaxLevel");
    PMO_CHECK_MSG(index >= 0 && index < kChildrenPerNode,
                  "child index out of range: " << index);
    const int shift = 3 * (kMaxLevel - level_ - 1);
    return LocCode(key_ | (static_cast<std::uint64_t>(index) << shift),
                   level_ + 1);
  }

  /// Ancestor at the given coarser (or equal) level.
  LocCode ancestor_at(int level) const {
    PMO_CHECK_MSG(level >= 0 && level <= level_,
                  "ancestor level must be <= own level");
    const int shift = 3 * (kMaxLevel - level);
    const std::uint64_t mask =
        shift >= 64 ? 0 : ~((std::uint64_t{1} << shift) - 1);
    return LocCode(key_ & mask, level);
  }

  /// True when `other` lies inside this octant's volume (or equals it).
  bool contains(const LocCode& other) const noexcept {
    if (other.level_ < level_) return false;
    return other.ancestor_at(level_).key_ == key_;
  }

  /// Neighbor of the same size in direction (dx, dy, dz), components in
  /// {-1, 0, 1}. Returns false when the neighbor would fall outside the
  /// root domain.
  bool neighbor(int dx, int dy, int dz, LocCode& out) const noexcept {
    const auto a = grid_anchor();
    const std::int64_t side = std::int64_t{1} << level_;
    const std::int64_t nx = static_cast<std::int64_t>(a.x) + dx;
    const std::int64_t ny = static_cast<std::int64_t>(a.y) + dy;
    const std::int64_t nz = static_cast<std::int64_t>(a.z) + dz;
    if (nx < 0 || ny < 0 || nz < 0 || nx >= side || ny >= side || nz >= side)
      return false;
    out = from_grid(level_, static_cast<std::uint32_t>(nx),
                    static_cast<std::uint32_t>(ny),
                    static_cast<std::uint32_t>(nz));
    return true;
  }

  /// All 26 same-size neighbor directions of a cube.
  static const std::array<std::array<int, 3>, kNeighborCount>&
  neighbor_directions() noexcept;

  /// Normalized cell center in [0,1)^3 of the unit root domain.
  std::array<double, 3> center_unit() const noexcept {
    const auto a = anchor();
    const double inv = 1.0 / static_cast<double>(std::uint32_t{1}
                                                 << kMaxLevel);
    const double half = 0.5 * static_cast<double>(extent()) * inv;
    return {a.x * inv + half, a.y * inv + half, a.z * inv + half};
  }

  /// Normalized cell size in the unit root domain.
  double size_unit() const noexcept {
    return static_cast<double>(extent()) /
           static_cast<double>(std::uint32_t{1} << kMaxLevel);
  }

  std::string to_string() const;

  friend constexpr bool operator==(const LocCode&,
                                   const LocCode&) noexcept = default;
  /// SFC order: by Morton key, ancestors before descendants at equal key.
  friend constexpr std::strong_ordering operator<=>(
      const LocCode& a, const LocCode& b) noexcept {
    if (a.key_ != b.key_) return a.key_ <=> b.key_;
    return a.level_ <=> b.level_;
  }

 private:
  constexpr LocCode(std::uint64_t key, int level) noexcept
      : key_(key), level_(static_cast<std::uint8_t>(level)) {}

  std::uint64_t key_ = 0;
  std::uint8_t level_ = 0;
};

/// Hash functor so LocCode can key unordered containers.
struct LocCodeHash {
  std::size_t operator()(const LocCode& c) const noexcept {
    // Full avalanche over the key before mixing in the level: a plain xor
    // of level into the key's high bits aliases ancestors of deep codes.
    std::uint64_t h = c.key();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h += static_cast<std::uint64_t>(c.level()) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace pmo
