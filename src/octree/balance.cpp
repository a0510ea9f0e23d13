#include "octree/balance.hpp"

#include <algorithm>

namespace pmo::octree {
namespace {

using Leaves = std::vector<LocCode>;

/// Cover queries over a Morton-sorted leaf array. A leaf at level l covers
/// the key range [key, key + 8^(kMaxLevel-l)), so the leaf covering a key
/// is its predecessor. A bucket table over the top key bits (one to eight
/// leaves per bucket on average) narrows each search to a few entries.
class CoverIndex {
 public:
  explicit CoverIndex(const Leaves& leaves) : leaves_(leaves) { rebuild(); }

  /// Re-indexes after the leaf array changed.
  void rebuild() {
    int level = 1;
    while (level < 7 && std::size_t{8} << (3 * level) <= leaves_.size())
      ++level;
    shift_ = 3 * (kMaxLevel - level);
    const std::size_t buckets = std::size_t{1} << (3 * level);
    first_.resize(buckets + 1);
    std::size_t i = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      while (i < leaves_.size() && (leaves_[i].key() >> shift_) < b) ++i;
      first_[b] = static_cast<std::uint32_t>(i);
    }
    first_[buckets] = static_cast<std::uint32_t>(leaves_.size());
  }

  /// Index of the leaf covering `key`.
  std::size_t cover(std::uint64_t key) const {
    const std::size_t b = key >> shift_;
    const auto it = std::upper_bound(
        leaves_.begin() + first_[b], leaves_.begin() + first_[b + 1], key,
        [](std::uint64_t k, const LocCode& leaf) { return k < leaf.key(); });
    PMO_DCHECK(it != leaves_.begin());
    return static_cast<std::size_t>(it - leaves_.begin()) - 1;
  }
  const LocCode& leaf_covering(std::uint64_t key) const {
    return leaves_[cover(key)];
  }
  bool is_leaf(const LocCode& code) const {
    return leaf_covering(code.key()) == code;
  }
  const Leaves& leaves() const { return leaves_; }

 private:
  const Leaves& leaves_;
  int shift_ = 0;
  std::vector<std::uint32_t> first_;  ///< first leaf index per bucket
};

/// Key of the level-`level` octant at grid coordinates `n`; false when it
/// lies outside the root domain.
bool octant_key(int level, const std::int64_t (&n)[3], std::uint64_t& key) {
  const std::int64_t side = std::int64_t{1} << level;
  for (const std::int64_t c : n)
    if (c < 0 || c >= side) return false;
  const int shift = kMaxLevel - level;
  key = morton_encode3_fast(static_cast<std::uint32_t>(n[0] << shift),
                            static_cast<std::uint32_t>(n[1] << shift),
                            static_cast<std::uint32_t>(n[2] << shift));
  return true;
}

/// Fine-side check of leaf `b` at level l. Its 19 same-size neighbours
/// outside its parent lie in the 7 level-(l-1) octants that touch b's
/// corner of the parent; the siblings inside are covered by leaves of
/// level >= l. So b is too fine exactly for the leaves covering those 7
/// octants' anchors whose level is below l-1. Appends them to `out`;
/// true when any was found.
bool probe(const CoverIndex& index, const LocCode& b, Leaves& out) {
  const int pl = b.level() - 1;
  if (pl < 1) return false;
  const Anchor g = b.grid_anchor();
  // The parent's grid position, and the direction of b's corner in it.
  const std::int64_t p[3] = {g.x >> 1, g.y >> 1, g.z >> 1};
  const std::int64_t d[3] = {(g.x & 1) != 0 ? 1 : -1, (g.y & 1) != 0 ? 1 : -1,
                             (g.z & 1) != 0 ? 1 : -1};
  bool forced = false;
  for (int e = 1; e < 8; ++e) {
    const std::int64_t n[3] = {p[0] + ((e & 1) != 0 ? d[0] : 0),
                               p[1] + ((e & 2) != 0 ? d[1] : 0),
                               p[2] + ((e & 4) != 0 ? d[2] : 0)};
    std::uint64_t key;
    if (!octant_key(pl, n, key)) continue;
    const LocCode& a = index.leaf_covering(key);
    if (a.level() < pl) {
      out.push_back(a);
      forced = true;
    }
  }
  return forced;
}

/// True when the closed boxes of `a` and `b` intersect.
bool touches(const LocCode& a, const LocCode& b) {
  const Anchor pa = a.anchor();
  const Anchor pb = b.anchor();
  const std::uint32_t ea = a.extent();
  const std::uint32_t eb = b.extent();
  return pb.x <= pa.x + ea && pa.x <= pb.x + eb && pb.y <= pa.y + ea &&
         pa.y <= pb.y + eb && pb.z <= pa.z + ea && pa.z <= pb.z + eb;
}

/// Coarse-side seeds. A coarsened octant q (and whatever leaves now tile
/// it) can only be too coarse for leaves of level >= level(q)+2 that touch
/// q from outside. Each lies in one of the level-(level(q)+1) octants
/// around q that is subdivided; appends those octants' leaves that touch q
/// to the fine-side candidates.
void add_fine_neighbours(const CoverIndex& index, const LocCode& q,
                         Leaves& out) {
  const Leaves& leaves = index.leaves();
  const int p = q.level();
  if (p + 2 > kMaxLevel) return;
  const Anchor g = q.grid_anchor();
  const int child_shift = 3 * (kMaxLevel - p - 1);
  const std::uint64_t span = std::uint64_t{1} << child_shift;
  for (const auto& dir : LocCode::neighbor_directions()) {
    const std::int64_t n[3] = {g.x + dir[0], g.y + dir[1], g.z + dir[2]};
    std::uint64_t nkey;
    if (!octant_key(p, n, nkey)) continue;
    if (index.leaf_covering(nkey).level() <= p) continue;  // one leaf
    for (int c = 0; c < kChildrenPerNode; ++c) {
      // Child bit `axis` of the neighbour faces q when it points back
      // along dir.
      bool facing = true;
      for (int axis = 0; axis < 3; ++axis)
        if (dir[axis] != 0) facing &= ((c >> axis) & 1) == (dir[axis] < 0);
      if (!facing) continue;
      const std::uint64_t skey =
          nkey | (static_cast<std::uint64_t>(c) << child_shift);
      std::size_t i = index.cover(skey);
      if (leaves[i].level() <= p + 1) continue;  // the child is a leaf
      for (; i < leaves.size() && leaves[i].key() < skey + span; ++i)
        if (touches(q, leaves[i])) out.push_back(leaves[i]);
    }
  }
}

void sort_unique(Leaves& codes) {
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
}

/// Replaces each (sorted) split leaf by its 8 children.
void splice(Leaves& leaves, const Leaves& split) {
  Leaves out;
  out.reserve(leaves.size() + split.size() * (kChildrenPerNode - 1));
  auto s = split.begin();
  for (const auto& leaf : leaves) {
    if (s != split.end() && *s == leaf) {
      for (int i = 0; i < kChildrenPerNode; ++i) out.push_back(leaf.child(i));
      ++s;
    } else {
      out.push_back(leaf);
    }
  }
  PMO_DCHECK(s == split.end());
  leaves.swap(out);
}

}  // namespace

std::size_t ripple_balance(Leaves& leaves, Leaves fine,
                           const Leaves& coarsened, const SplitFn& split) {
  CoverIndex index(leaves);
  Leaves check = std::move(fine);
  check.insert(check.end(), coarsened.begin(), coarsened.end());
  for (const auto& q : coarsened) add_fine_neighbours(index, q, check);
  std::size_t total = 0;
  Leaves to_split;
  Leaves next;
  while (!check.empty()) {
    sort_unique(check);
    to_split.clear();
    next.clear();
    for (const auto& b : check) {
      // A leaf whose probe forces a split is rechecked next round: it may
      // still be too fine for the split octant's children.
      if (index.is_leaf(b) && probe(index, b, to_split)) next.push_back(b);
    }
    if (to_split.empty()) break;
    sort_unique(to_split);
    for (const auto& a : to_split) split(a);
    total += to_split.size();
    splice(leaves, to_split);
    index.rebuild();
    for (const auto& a : to_split)
      for (int i = 0; i < kChildrenPerNode; ++i) next.push_back(a.child(i));
    check.swap(next);
  }
  return total;
}

}  // namespace pmo::octree
