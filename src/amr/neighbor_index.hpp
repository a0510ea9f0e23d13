// Per-sweep face-neighbor index of the droplet solve (§5.1's Jacobi
// relaxation): one batched pass over the Morton-sorted SoA leaf snapshot
// resolves, for every leaf, the snapshot slot of the covering leaf behind
// each of its 6 faces into an int32 table. The solve's gather kernel then
// reads neighbors by slot — no per-face binary search per sweep.
//
// Lifetime: the table depends only on the leaf SET (keys + levels), never
// on cell data, so it stays valid across all `solver_sweeps` Jacobi
// iterations of a step (the inter-sweep tracer write-back is data-only)
// and across steps in which refine/coarsen/balance changed nothing. It is
// invalidated by MeshBackend::structure_version() — the leaf-set stamp —
// plus a leaf-count cross-check.
//
// The build is the one place the solve still searches, and it never
// searches point-wise: it computes all 6n same-size neighbor keys with
// the batched BMI2 Morton kernels (morton_decode3_batch /
// morton_encode3_batch, 8 leaves at a time), sorts the resolution
// requests by neighbor key, and answers every one of them with a single
// forward merge sweep over the sorted leaf keys — O(1) amortized
// candidate inspections per face, versus O(log n) for each per-face
// binary search in the legacy arm. perf_smoke holds the build's total
// probe count to <= 25% of that baseline's per-sweep find probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "amr/mesh_backend.hpp"

namespace pmo::amr {

class FaceNeighborIndex {
 public:
  /// Resolves all 6 neighbor slots per leaf over the Morton-sorted
  /// (keys, levels) arrays. Slot -1 = no covering leaf (the neighbor
  /// falls outside the root domain). Containment semantics are exactly
  /// LeafChunk::find's: a coarser covering leaf, or — when the neighbor
  /// region is refined finer — its first descendant corner leaf.
  void build(const std::uint64_t* keys, const std::uint8_t* levels,
             std::size_t n);
  void build(const SoaLeaves& soa) {
    build(soa.keys.data(), soa.levels.data(), soa.size());
  }

  /// True when the table was built for this exact leaf-set stamp.
  bool valid_for(std::uint64_t version,
                 std::size_t leaves) const noexcept {
    return valid_ && version == version_ && leaves == leaves_;
  }
  /// Records the leaf-set stamp the current table belongs to.
  void stamp(std::uint64_t version, std::size_t leaves) noexcept {
    version_ = version;
    leaves_ = leaves;
    valid_ = true;
  }
  void invalidate() noexcept { valid_ = false; }

  /// 6 slots per leaf, leaf-major: slots()[6*i + f] for face f of leaf i
  /// (face order simd::kFaces).
  const std::int32_t* slots() const noexcept { return slots_.data(); }
  std::size_t leaves() const noexcept { return leaves_; }

  /// Candidate-key inspections of the most recent build() — the modeled
  /// neighbor-lookup work counter the perf gate compares against the
  /// per-face-find baseline. Deterministic: the build is a fixed
  /// sequential pass.
  std::uint64_t last_build_probes() const noexcept {
    return last_build_probes_;
  }

 private:
  std::vector<std::int32_t> slots_;
  std::uint64_t version_ = 0;
  std::size_t leaves_ = 0;
  bool valid_ = false;
  std::uint64_t last_build_probes_ = 0;
};

}  // namespace pmo::amr
