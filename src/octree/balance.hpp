// Seeded ripple 2:1 balance over a Morton-sorted leaf array.
//
// The one Balance kernel of the pointer backends (Octree, PmOctree). The
// tree is seen only through its leaf codes: a leaf at level l covers the
// key range [key, key + 8^(kMaxLevel-l)), so the leaf covering any code is
// its Morton predecessor in the sorted array (Cornerstone's representation,
// arXiv 2307.06345). Instead of re-checking every leaf until a full pass
// splits nothing, the kernel runs p4est-style seeded ripple rounds (Isaac
// et al., arXiv 1406.0089): round 0 checks the seeds, round r+1 only the
// children split in round r plus the fine leaves whose probe forced those
// splits. Each round's split set equals the one a full pass over the same
// tree would find, so callers see the same splits in the same order.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/morton.hpp"

namespace pmo::octree {

/// Refines one leaf of the caller's tree.
using SplitFn = std::function<void(const LocCode&)>;

/// Restores 2:1 balance around the seeds and returns the number of leaves
/// split. `leaves` is the tree's complete leaf set in Morton order and is
/// kept in step with the splits. The seeds must cover every change since
/// the tree was last balanced:
///  * `fine`: every child a refine created. Passing all leaves instead
///    checks the whole tree.
///  * `coarsened`: every octant coarsened since, whether or not it is
///    still a leaf.
/// Stale seeds (no longer leaves) are harmless. Within a round `split` is
/// called in ascending LocCode order; rounds run in order.
std::size_t ripple_balance(std::vector<LocCode>& leaves,
                           std::vector<LocCode> fine,
                           const std::vector<LocCode>& coarsened,
                           const SplitFn& split);

}  // namespace pmo::octree
