// Core in-memory (DRAM) pointer-based octree.
//
// This is the "multi-threaded octree" of the paper's terminology: every
// octant stores parent and child pointers so general flow solvers (Gerris)
// can traverse up, down and sideways in O(1)-ish steps — unlike linear
// octrees (Etree/Sundar) that keep only a sorted key array. It provides
// the five classic meshing routines: Construct, Refine & Coarsen, Balance
// (2:1), Partition support (Morton-order leaf ranges) and Extract
// (serialization / flat mesh views).
//
// The PM-octree (src/pmoctree) reuses the same locational-code machinery
// but stores its nodes in DRAM+NVBM with copy-on-write versioning; the
// in-core baseline (src/baseline) wraps this class directly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/morton.hpp"
#include "octree/cell_data.hpp"

namespace pmo::octree {

class Octree;

/// One octant. Owned by its Octree; links are raw non-owning pointers
/// inside the owning tree (Core Guidelines R.3: they represent structure,
/// not ownership).
struct Node {
  LocCode code;
  Node* parent = nullptr;
  Node* children[kChildrenPerNode] = {};
  CellData data;

  bool is_leaf() const noexcept {
    for (const auto* c : children)
      if (c != nullptr) return false;
    return true;
  }
};

/// Statistics snapshot of a tree.
struct TreeStats {
  std::size_t nodes = 0;
  std::size_t leaves = 0;
  int depth = 0;
  std::size_t bytes = 0;  ///< approximate resident bytes
};

class Octree {
 public:
  /// Creates a tree holding only the root octant (Construct).
  Octree();
  ~Octree();

  /// Bottom-up construction from a Morton-sorted set of leaf codes
  /// (Sundar et al. [41,42], cited in the paper's §2: less time to build
  /// than top-down insertion because each internal node is created exactly
  /// once). The codes must form a valid linear octree: sorted, and no code
  /// contains another. Data defaults to zero.
  static Octree from_leaves(const std::vector<LocCode>& sorted_leaves);

  Octree(const Octree&) = delete;
  Octree& operator=(const Octree&) = delete;
  Octree(Octree&& other) noexcept;
  Octree& operator=(Octree&& other) noexcept;

  Node* root() noexcept { return root_; }
  const Node* root() const noexcept { return root_; }

  /// Exact-match lookup of an octant by locational code (internal or leaf).
  Node* find(const LocCode& code) noexcept;
  const Node* find(const LocCode& code) const noexcept;

  /// The leaf whose volume contains `code` (code may be deeper than the
  /// leaf). Never null for in-domain codes.
  Node* find_leaf_containing(const LocCode& code) noexcept;

  /// Splits a leaf into 8 children; children inherit the parent's data
  /// unless `init` is provided. Returns the first child.
  Node* refine(Node* leaf,
               const std::function<void(Node&)>& init = nullptr);

  /// Ensures an octant with this code exists (refining ancestors on the
  /// way); returns it.
  Node* insert(const LocCode& code);

  /// Collapses all children of `parent` back into it (they must all be
  /// leaves). Parent data is set by `merge` or left untouched.
  void coarsen(Node* parent,
               const std::function<void(Node&)>& merge = nullptr);

  /// Refines every leaf satisfying `pred` once. Returns how many leaves
  /// were split. `init` initializes each new child.
  std::size_t refine_where(
      const std::function<bool(const Node&)>& pred,
      const std::function<void(Node&)>& init = nullptr);

  /// Coarsens every sibling group whose eight leaves all satisfy `pred`.
  /// Returns how many groups were merged.
  std::size_t coarsen_where(const std::function<bool(const Node&)>& pred);

  /// Enforces the 2:1 constraint: any two face/edge/corner-adjacent leaves
  /// differ by at most one level, via ripple_balance() seeded with every
  /// leaf. Returns the number of leaves refined to restore balance.
  std::size_t balance();

  /// True when the 2:1 constraint holds everywhere (test oracle).
  bool is_balanced() const;

  /// Same-or-coarser neighbor leaf of `leaf` in direction d (components in
  /// {-1,0,1}); nullptr at domain boundary.
  Node* neighbor(Node* leaf, int dx, int dy, int dz) noexcept;

  /// Depth-first (Morton-order) visit of all leaves.
  void for_each_leaf(const std::function<void(Node&)>& fn);
  void for_each_leaf(const std::function<void(const Node&)>& fn) const;
  /// Pre-order visit of every node (internal + leaf).
  void for_each_node(const std::function<void(Node&)>& fn);
  void for_each_node(const std::function<void(const Node&)>& fn) const;

  /// Leaves in Morton order (the Partition routine's SFC ordering).
  std::vector<Node*> leaves_in_morton_order();

  std::size_t node_count() const noexcept { return node_count_; }
  std::size_t leaf_count() const;
  TreeStats stats() const;
  int depth() const;

  /// Serializes the whole tree (structure + cell data) into a flat buffer;
  /// this is the snapshot payload of the in-core baseline.
  std::vector<std::byte> serialize() const;
  /// Rebuilds a tree from serialize() output.
  static Octree deserialize(const std::byte* data, std::size_t len);

  /// Structural + payload equality (test oracle).
  friend bool tree_equal(const Octree& a, const Octree& b);

 private:
  Node* allocate(const LocCode& code, Node* parent);
  void deallocate(Node* node) noexcept;
  void destroy_subtree(Node* node) noexcept;

  Node* root_ = nullptr;
  std::size_t node_count_ = 0;
};

bool tree_equal(const Octree& a, const Octree& b);

}  // namespace pmo::octree
