// Test-side reachability oracle for the NVBM heap: which heap objects a
// PM-octree version can reach, and which objects the heap holds
// allocated. Reclamation is correct when, after a persist, the two sets
// agree (nothing leaked, nothing freed early).
#pragma once

#include <algorithm>
#include <cstring>
#include <iterator>
#include <set>
#include <vector>

#include "nvbm/heap.hpp"
#include "pmoctree/node.hpp"

namespace pmo::pmoctree {

using OffSet = std::set<std::uint64_t>;

/// Heap objects reachable from `root`: pointer-tier nodes by offset, a
/// linear chain as its one heap object (also recorded in `chains`). Reads
/// raw device bytes, so the walk charges nothing and leaves every cache
/// untouched.
inline void reach(nvbm::Device& dev, NodeRef root, OffSet& out,
                  OffSet& chains) {
  std::vector<NodeRef> stack{root};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    if (ref.null()) continue;
    if (ref.in_linear()) {
      out.insert(ref.linear_chain());
      chains.insert(ref.linear_chain());
      continue;
    }
    PNode node;
    if (ref.in_dram()) {
      node = *ref.dram_ptr();
    } else {
      if (!out.insert(ref.nvbm_offset()).second) continue;
      std::memcpy(&node, dev.raw(ref.nvbm_offset(), sizeof(PNode)),
                  sizeof(PNode));
    }
    for (int i = 0; i < kChildrenPerNode; ++i)
      stack.push_back(node.child_ref(i));
  }
}

inline OffSet allocated(nvbm::Heap& heap) {
  OffSet out;
  heap.for_each_object([&](std::uint64_t off, std::uint32_t, bool alloc) {
    if (alloc) out.insert(off);
  });
  return out;
}

inline OffSet minus(const OffSet& a, const OffSet& b) {
  OffSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::inserter(out, out.end()));
  return out;
}

}  // namespace pmo::pmoctree
