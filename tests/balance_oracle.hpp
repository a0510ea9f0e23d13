// Test-only reference for 2:1 balance: the full-pass fixpoint. Every pass
// probes all 26 same-size neighbours of every leaf against the Morton-
// sorted leaf array, splits every leaf found more than one level coarser
// (in ascending LocCode order), and repeats until a pass splits nothing.
// The 2:1 closure of a leaf set is unique, so the seeded ripple kernel
// must reach the same leaves with the same split count, and round by
// round the same splits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/morton.hpp"

namespace pmo::test {

struct OracleBalance {
  std::vector<LocCode> leaves;  ///< balanced leaf set, Morton order
  std::vector<LocCode> splits;  ///< every split, in the order made
};

inline const LocCode& oracle_cover(const std::vector<LocCode>& leaves,
                                   const LocCode& probe) {
  const auto it = std::upper_bound(
      leaves.begin(), leaves.end(), probe,
      [](const LocCode& a, const LocCode& b) { return a.key() < b.key(); });
  return *(it - 1);
}

inline OracleBalance full_pass_balance(std::vector<LocCode> leaves) {
  std::sort(leaves.begin(), leaves.end());
  OracleBalance out;
  for (;;) {
    std::vector<LocCode> to_split;
    for (const auto& leaf : leaves) {
      for (const auto& d : LocCode::neighbor_directions()) {
        LocCode n;
        if (!leaf.neighbor(d[0], d[1], d[2], n)) continue;
        const LocCode& adj = oracle_cover(leaves, n);
        if (adj.level() < leaf.level() - 1) to_split.push_back(adj);
      }
    }
    std::sort(to_split.begin(), to_split.end());
    to_split.erase(std::unique(to_split.begin(), to_split.end()),
                   to_split.end());
    if (to_split.empty()) break;
    std::vector<LocCode> next;
    auto s = to_split.begin();
    for (const auto& leaf : leaves) {
      if (s != to_split.end() && *s == leaf) {
        for (int i = 0; i < kChildrenPerNode; ++i)
          next.push_back(leaf.child(i));
        ++s;
      } else {
        next.push_back(leaf);
      }
    }
    leaves.swap(next);
    out.splits.insert(out.splits.end(), to_split.begin(), to_split.end());
  }
  out.leaves = std::move(leaves);
  return out;
}

}  // namespace pmo::test
