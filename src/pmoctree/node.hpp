// PM-octree node representation.
//
// A PM-octree is a single logical octree whose octants live in two tiers:
// DRAM (the hot C0 subtrees) and NVBM (the C1 tree plus the whole previous
// version V_{i-1}). Links between octants therefore must address both
// tiers: NodeRef packs either a DRAM pointer or an NVBM heap offset into
// one tagged 64-bit word. This is the "special pointers linking persistent
// octants in NVBM and volatile octants in DRAM" the paper's library manages
// for the application (§1, challenge 3).
#pragma once

#include <cstdint>

#include "common/morton.hpp"
#include "octree/cell_data.hpp"

namespace pmo::pmoctree {

struct PNode;

/// Tagged reference to a PM-octree node.
///
/// Encoding: 0 is null; otherwise bit 0 = 1 marks an NVBM heap offset
/// (shifted left by one) and bit 0 = 0 a DRAM pointer (PNode* are 8-byte
/// aligned, so the low bits of a real pointer are 0).
class NodeRef {
 public:
  constexpr NodeRef() noexcept = default;

  static NodeRef dram(PNode* node) noexcept {
    return NodeRef(reinterpret_cast<std::uint64_t>(node));
  }
  static constexpr NodeRef nvbm(std::uint64_t offset) noexcept {
    return NodeRef((offset << 1) | 1u);
  }

  constexpr bool null() const noexcept { return bits_ == 0; }
  explicit constexpr operator bool() const noexcept { return bits_ != 0; }
  constexpr bool in_nvbm() const noexcept { return (bits_ & 1u) != 0; }
  constexpr bool in_dram() const noexcept {
    return bits_ != 0 && (bits_ & 1u) == 0;
  }

  PNode* dram_ptr() const noexcept {
    PMO_DCHECK(in_dram());
    return reinterpret_cast<PNode*>(bits_);
  }
  constexpr std::uint64_t nvbm_offset() const noexcept {
    PMO_DCHECK(in_nvbm());
    return bits_ >> 1;
  }

  /// Raw tagged bits — this exact word is what gets stored inside
  /// persistent parent/child slots.
  constexpr std::uint64_t bits() const noexcept { return bits_; }
  static constexpr NodeRef from_bits(std::uint64_t bits) noexcept {
    return NodeRef(bits);
  }

  friend constexpr bool operator==(const NodeRef&, const NodeRef&) = default;

 private:
  explicit constexpr NodeRef(std::uint64_t bits) noexcept : bits_(bits) {}
  std::uint64_t bits_ = 0;
};

struct NodeRefHash {
  std::size_t operator()(const NodeRef& r) const noexcept {
    std::uint64_t h = r.bits();
    h ^= h >> 33;
    h *= 0xc2b2ae3d27d4eb4full;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
  }
};

/// Node flags.
enum NodeFlags : std::uint32_t {
  kNodeDeleted = 1u << 0,  ///< tombstoned shared-subtree root (§3.2)
  /// Dirty-subtree summary bit (DRAM-resident nodes only): some octant in
  /// this node's subtree mutated since the last persist, so the merge
  /// must recurse here. A clean DRAM node (bit unset, epoch < current,
  /// durable twin recorded) is skipped in O(1). The bit never reaches
  /// NVBM bytes — every node store to the device strips it, keeping the
  /// persisted image independent of mutation history.
  kNodeSubtreeDirty = 1u << 1,
  /// Child-presence bitmask: bit (8 + i) is set iff child[i] is non-null.
  /// Maintained by set_child, so is_leaf() and child iteration test one
  /// word instead of scanning all 8 NodeRef slots. Any store that writes
  /// a child slot back to the device must also write the flags word to
  /// keep the durable mask coherent.
  kNodeChildMaskShift = 8,
  kNodeChildMask = 0xffu << kNodeChildMaskShift,
};

/// The octant record, identical layout in DRAM and NVBM so merging is a
/// copy plus link fix-up. Trivially copyable by construction.
struct PNode {
  LocCode code;
  std::uint64_t parent = 0;                     ///< NodeRef bits
  std::uint64_t child[kChildrenPerNode] = {};   ///< NodeRef bits
  CellData data;
  std::uint32_t flags = 0;
  /// Epoch (persist generation) in which this physical node was created.
  /// A node with epoch < the tree's current epoch is (potentially) shared
  /// with V_{i-1} and must be updated via copy-on-write; a node created in
  /// the current epoch is private to V_i and may be updated in place
  /// (paper §3.2).
  std::uint32_t epoch = 0;

  NodeRef child_ref(int i) const noexcept {
    return NodeRef::from_bits(child[i]);
  }
  void set_child(int i, NodeRef r) noexcept {
    child[i] = r.bits();
    const std::uint32_t bit = 1u << (kNodeChildMaskShift + i);
    if (r.null())
      flags &= ~bit;
    else
      flags |= bit;
  }
  NodeRef parent_ref() const noexcept { return NodeRef::from_bits(parent); }
  void set_parent(NodeRef r) noexcept { parent = r.bits(); }

  std::uint8_t child_mask() const noexcept {
    return static_cast<std::uint8_t>(flags >> kNodeChildMaskShift);
  }
  bool has_child(int i) const noexcept {
    return (flags & (1u << (kNodeChildMaskShift + i))) != 0;
  }
  bool is_leaf() const noexcept { return (flags & kNodeChildMask) == 0; }
  bool deleted() const noexcept { return (flags & kNodeDeleted) != 0; }
};

static_assert(std::is_trivially_copyable_v<PNode>);

}  // namespace pmo::pmoctree
