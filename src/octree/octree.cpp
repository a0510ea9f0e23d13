#include "octree/octree.hpp"

#include <algorithm>
#include <cstring>
#include <deque>

#include "octree/balance.hpp"

namespace pmo::octree {

Octree::Octree() { root_ = allocate(LocCode::root(), nullptr); }

Octree::~Octree() {
  if (root_ != nullptr) destroy_subtree(root_);
}

Octree::Octree(Octree&& other) noexcept
    : root_(other.root_), node_count_(other.node_count_) {
  other.root_ = nullptr;
  other.node_count_ = 0;
}

Octree& Octree::operator=(Octree&& other) noexcept {
  if (this != &other) {
    if (root_ != nullptr) destroy_subtree(root_);
    root_ = other.root_;
    node_count_ = other.node_count_;
    other.root_ = nullptr;
    other.node_count_ = 0;
  }
  return *this;
}

Octree Octree::from_leaves(const std::vector<LocCode>& sorted_leaves) {
  PMO_CHECK_MSG(!sorted_leaves.empty(), "cannot build from zero leaves");
  Octree tree;
  if (sorted_leaves.size() == 1) {
    PMO_CHECK_MSG(sorted_leaves[0] == LocCode::root(),
                  "single leaf must be the root octant");
    return tree;
  }
  const auto key_less = [](const LocCode& a, std::uint64_t key) {
    return a.key() < key;
  };
  // Recursive bottom-up assembly: each internal node is created exactly
  // once; its children's leaf ranges are located by binary search over
  // the Morton-sorted array (leaves of one octant form a contiguous key
  // interval).
  std::function<void(Node*, std::size_t, std::size_t)> build =
      [&](Node* parent, std::size_t lo, std::size_t hi) {
        for (int i = 0; i < kChildrenPerNode; ++i) {
          const LocCode cc = parent->code.child(i);
          const std::uint64_t key_begin = cc.key();
          const std::uint64_t span =
              std::uint64_t{1} << (3 * (kMaxLevel - cc.level()));
          const auto first = std::lower_bound(
              sorted_leaves.begin() + static_cast<std::ptrdiff_t>(lo),
              sorted_leaves.begin() + static_cast<std::ptrdiff_t>(hi),
              key_begin, key_less);
          const auto last = std::lower_bound(
              first,
              sorted_leaves.begin() + static_cast<std::ptrdiff_t>(hi),
              key_begin + span, key_less);
          PMO_CHECK_MSG(first != last,
                        "leaf set does not cover octant "
                            << cc.to_string());
          Node* child = tree.allocate(cc, parent);
          child->data = parent->data;
          parent->children[i] = child;
          const auto flo = static_cast<std::size_t>(
              first - sorted_leaves.begin());
          const auto fhi =
              static_cast<std::size_t>(last - sorted_leaves.begin());
          if (fhi - flo == 1 && *first == cc) continue;  // exact leaf
          PMO_CHECK_MSG(!(fhi - flo == 1 && first->level() <= cc.level()),
                        "leaf " << first->to_string()
                                << " straddles octant boundaries");
          build(child, flo, fhi);
        }
      };
  build(tree.root_, 0, sorted_leaves.size());
  PMO_CHECK_MSG(tree.leaf_count() == sorted_leaves.size(),
                "linear octree was not a valid partition");
  return tree;
}

Node* Octree::allocate(const LocCode& code, Node* parent) {
  auto* node = new Node;
  node->code = code;
  node->parent = parent;
  ++node_count_;
  return node;
}

void Octree::deallocate(Node* node) noexcept {
  --node_count_;
  delete node;
}

void Octree::destroy_subtree(Node* node) noexcept {
  for (auto*& child : node->children) {
    if (child != nullptr) destroy_subtree(child);
  }
  deallocate(node);
}

Node* Octree::find(const LocCode& code) noexcept {
  Node* at = root_;
  for (int level = 1; level <= code.level(); ++level) {
    const int idx = code.ancestor_at(level).child_index();
    at = at->children[idx];
    if (at == nullptr) return nullptr;
  }
  return at;
}

const Node* Octree::find(const LocCode& code) const noexcept {
  return const_cast<Octree*>(this)->find(code);
}

Node* Octree::find_leaf_containing(const LocCode& code) noexcept {
  Node* at = root_;
  for (int level = 1; level <= code.level(); ++level) {
    const int idx = code.ancestor_at(level).child_index();
    Node* next = at->children[idx];
    if (next == nullptr) return at;
    at = next;
  }
  return at;
}

Node* Octree::refine(Node* leaf, const std::function<void(Node&)>& init) {
  PMO_CHECK_MSG(leaf != nullptr && leaf->is_leaf(),
                "refine requires a leaf");
  for (int i = 0; i < kChildrenPerNode; ++i) {
    auto* child = allocate(leaf->code.child(i), leaf);
    child->data = leaf->data;  // inherit by default
    if (init) init(*child);
    leaf->children[i] = child;
  }
  return leaf->children[0];
}

Node* Octree::insert(const LocCode& code) {
  Node* at = root_;
  for (int level = 1; level <= code.level(); ++level) {
    if (at->is_leaf()) refine(at);
    const int idx = code.ancestor_at(level).child_index();
    at = at->children[idx];
  }
  return at;
}

void Octree::coarsen(Node* parent, const std::function<void(Node&)>& merge) {
  PMO_CHECK_MSG(parent != nullptr && !parent->is_leaf(),
                "coarsen requires an internal node");
  for (auto*& child : parent->children) {
    PMO_CHECK_MSG(child != nullptr && child->is_leaf(),
                  "coarsen requires all children to be leaves");
    deallocate(child);
    child = nullptr;
  }
  if (merge) merge(*parent);
}

std::size_t Octree::refine_where(
    const std::function<bool(const Node&)>& pred,
    const std::function<void(Node&)>& init) {
  // Collect first: refining while iterating would visit new children.
  std::vector<Node*> to_split;
  for_each_leaf([&](Node& n) {
    if (n.code.level() < kMaxLevel && pred(n)) to_split.push_back(&n);
  });
  for (auto* leaf : to_split) refine(leaf, init);
  return to_split.size();
}

std::size_t Octree::coarsen_where(
    const std::function<bool(const Node&)>& pred) {
  std::vector<Node*> groups;
  for_each_node([&](Node& n) {
    if (n.is_leaf()) return;
    bool all_leaf_children = true;
    for (const auto* c : n.children)
      all_leaf_children &= (c != nullptr && c->is_leaf());
    if (!all_leaf_children) return;
    bool all_agree = true;
    for (const auto* c : n.children) all_agree &= pred(*c);
    if (all_agree) groups.push_back(&n);
  });
  for (auto* g : groups) {
    // Average the children into the parent: the canonical restriction.
    CellData acc;
    for (const auto* c : g->children) {
      acc.vof += c->data.vof / kChildrenPerNode;
      acc.tracer += c->data.tracer / kChildrenPerNode;
      acc.u += c->data.u / kChildrenPerNode;
      acc.v += c->data.v / kChildrenPerNode;
      acc.w += c->data.w / kChildrenPerNode;
      acc.pressure += c->data.pressure / kChildrenPerNode;
    }
    coarsen(g, [&](Node& p) { p.data = acc; });
  }
  return groups.size();
}

Node* Octree::neighbor(Node* leaf, int dx, int dy, int dz) noexcept {
  LocCode ncode;
  if (!leaf->code.neighbor(dx, dy, dz, ncode)) return nullptr;
  // The neighbor octant of equal size may not exist; the containing leaf
  // is the correct same-or-coarser mesh neighbor.
  Node* n = find_leaf_containing(ncode);
  return n == leaf ? nullptr : n;
}

std::size_t Octree::balance() {
  // No change log: every leaf seeds the ripple kernel.
  std::vector<LocCode> leaves;
  for_each_leaf([&](const Node& n) { leaves.push_back(n.code); });
  return ripple_balance(leaves, leaves, {},
                        [&](const LocCode& code) { refine(find(code)); });
}

bool Octree::is_balanced() const {
  bool ok = true;
  auto* self = const_cast<Octree*>(this);
  self->for_each_leaf([&](Node& leaf) {
    if (!ok) return;
    for (const auto& d : LocCode::neighbor_directions()) {
      LocCode ncode;
      if (!leaf.code.neighbor(d[0], d[1], d[2], ncode)) continue;
      const Node* adj = self->find_leaf_containing(ncode);
      if (adj->code.level() < leaf.code.level() - 1) {
        ok = false;
        return;
      }
    }
  });
  return ok;
}

void Octree::for_each_leaf(const std::function<void(Node&)>& fn) {
  for_each_node([&](Node& n) {
    if (n.is_leaf()) fn(n);
  });
}

void Octree::for_each_leaf(
    const std::function<void(const Node&)>& fn) const {
  for_each_node([&](const Node& n) {
    if (n.is_leaf()) fn(n);
  });
}

void Octree::for_each_node(const std::function<void(Node&)>& fn) {
  if (root_ == nullptr) return;
  std::vector<Node*> stack{root_};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    fn(*n);
    // Push children in reverse so Morton order (child 0 first) pops first.
    for (int i = kChildrenPerNode - 1; i >= 0; --i) {
      if (n->children[i] != nullptr) stack.push_back(n->children[i]);
    }
  }
}

void Octree::for_each_node(
    const std::function<void(const Node&)>& fn) const {
  const_cast<Octree*>(this)->for_each_node(
      [&](Node& n) { fn(static_cast<const Node&>(n)); });
}

std::vector<Node*> Octree::leaves_in_morton_order() {
  std::vector<Node*> out;
  out.reserve(node_count_);
  for_each_leaf([&](Node& n) { out.push_back(&n); });
  return out;  // pre-order DFS with child 0..7 IS Morton order
}

std::size_t Octree::leaf_count() const {
  std::size_t n = 0;
  for_each_leaf([&](const Node&) { ++n; });
  return n;
}

int Octree::depth() const {
  int d = 0;
  for_each_node([&](const Node& n) { d = std::max(d, n.code.level()); });
  return d;
}

TreeStats Octree::stats() const {
  TreeStats s;
  s.nodes = node_count_;
  s.leaves = leaf_count();
  s.depth = depth();
  s.bytes = node_count_ * sizeof(Node);
  return s;
}

namespace {
/// Serialized node record: level-order compatible pre-order stream.
struct NodeRecord {
  std::uint64_t key;
  std::uint8_t level;
  std::uint8_t child_mask;  // bit i set => child i present
  CellData data;
};
}  // namespace

std::vector<std::byte> Octree::serialize() const {
  std::vector<std::byte> out;
  out.reserve(node_count_ * sizeof(NodeRecord) + 16);
  const std::uint64_t count = node_count_;
  out.resize(sizeof(count));
  std::memcpy(out.data(), &count, sizeof(count));
  for_each_node([&](const Node& n) {
    NodeRecord rec{};
    rec.key = n.code.key();
    rec.level = static_cast<std::uint8_t>(n.code.level());
    rec.child_mask = 0;
    for (int i = 0; i < kChildrenPerNode; ++i)
      if (n.children[i] != nullptr)
        rec.child_mask = static_cast<std::uint8_t>(rec.child_mask | (1 << i));
    rec.data = n.data;
    const std::size_t at = out.size();
    out.resize(at + sizeof(rec));
    std::memcpy(out.data() + at, &rec, sizeof(rec));
  });
  return out;
}

Octree Octree::deserialize(const std::byte* data, std::size_t len) {
  PMO_CHECK_MSG(len >= sizeof(std::uint64_t), "snapshot truncated");
  std::uint64_t count = 0;
  std::memcpy(&count, data, sizeof(count));
  PMO_CHECK_MSG(len >= sizeof(count) + count * sizeof(NodeRecord),
                "snapshot truncated: " << len << " bytes for " << count
                                       << " nodes");
  Octree tree;
  std::size_t at = sizeof(count);
  // The stream is pre-order; reconstruct with an explicit stack of
  // (node, remaining-children-mask).
  struct Frame {
    Node* node;
    std::uint8_t mask;
    int next = 0;
  };
  std::vector<Frame> stack;
  for (std::uint64_t i = 0; i < count; ++i) {
    NodeRecord rec{};
    std::memcpy(&rec, data + at, sizeof(rec));
    at += sizeof(rec);
    Node* node = nullptr;
    if (i == 0) {
      node = tree.root_;
      PMO_CHECK_MSG(rec.level == 0, "snapshot does not start at root");
    } else {
      // Attach under the top frame's next present child slot.
      PMO_CHECK_MSG(!stack.empty(), "snapshot structure corrupt");
      auto& top = stack.back();
      while ((top.mask & (1 << top.next)) == 0) ++top.next;
      node = tree.allocate(top.node->code.child(top.next), top.node);
      top.node->children[top.next] = node;
      top.mask = static_cast<std::uint8_t>(top.mask & ~(1 << top.next));
      if (top.mask == 0) stack.pop_back();
    }
    node->data = rec.data;
    PMO_CHECK_MSG(node->code.key() == rec.key &&
                      node->code.level() == rec.level,
                  "snapshot node code mismatch");
    if (rec.child_mask != 0) stack.push_back({node, rec.child_mask, 0});
  }
  PMO_CHECK_MSG(stack.empty(), "snapshot ended with open nodes");
  return tree;
}

bool tree_equal(const Octree& a, const Octree& b) {
  if (a.node_count_ != b.node_count_) return false;
  bool equal = true;
  std::vector<std::pair<const Node*, const Node*>> stack{
      {a.root_, b.root_}};
  while (!stack.empty() && equal) {
    const auto [na, nb] = stack.back();
    stack.pop_back();
    if ((na == nullptr) != (nb == nullptr)) {
      equal = false;
      break;
    }
    if (na == nullptr) continue;
    if (na->code != nb->code || !(na->data == nb->data)) {
      equal = false;
      break;
    }
    for (int i = 0; i < kChildrenPerNode; ++i)
      stack.emplace_back(na->children[i], nb->children[i]);
  }
  return equal;
}

}  // namespace pmo::octree
