#include "pmoctree/replica.hpp"

#include "telemetry/trace.hpp"

namespace pmo::pmoctree {

Delta ReplicaManager::extract(PmOctree& tree) {
  Delta delta;
  const NodeRef root = tree.previous_root();
  PMO_CHECK_MSG(!root.null(),
                "replica extraction requires a persisted version");
  delta.root_offset = root.nvbm_offset();

  // Reachable set of the newly persisted version.
  std::unordered_set<std::uint64_t> now;
  std::vector<std::uint64_t> stack{root.nvbm_offset()};
  auto& dev = tree.device();
  while (!stack.empty()) {
    const std::uint64_t off = stack.back();
    stack.pop_back();
    if (!now.insert(off).second) continue;
    const PNode node = dev.load<PNode>(off);
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      if (!c.null()) stack.push_back(c.nvbm_offset());
    }
  }

  // Copy-on-write guarantees any changed octant has a fresh offset, so the
  // peer needs exactly (now - known) upserted and (known - now) dropped.
  for (const auto off : now) {
    if (known_.count(off) == 0)
      delta.upserts.emplace_back(off, dev.load<PNode>(off));
  }
  for (const auto off : known_) {
    if (now.count(off) == 0) delta.removals.push_back(off);
  }
  known_ = std::move(now);
  return delta;
}

std::uint64_t ReplicaManager::ship(PmOctree& tree, ReplicaStore& peer) {
  const Delta delta = extract(tree);
  peer.apply(delta);
  return delta.bytes();
}

void ReplicaStore::apply(const Delta& delta) {
  for (const auto& [off, node] : delta.upserts) mirror_[off] = node;
  for (const auto off : delta.removals) mirror_.erase(off);
  root_offset_ = delta.root_offset;
}

std::size_t ReplicaStore::restore_into(nvbm::Heap& heap) const {
  PMO_CHECK_MSG(!empty(), "replica store holds no version");
  // Allocate every mirrored octant in the fresh heap, then relink child
  // references through the old-offset -> new-offset map.
  std::unordered_map<std::uint64_t, std::uint64_t> relocation;
  relocation.reserve(mirror_.size());
  for (const auto& [old_off, node] : mirror_) {
    relocation[old_off] = heap.alloc(sizeof(PNode));
  }
  auto& dev = heap.device();
  for (const auto& [old_off, node] : mirror_) {
    PNode moved = node;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = moved.child_ref(i);
      if (c.null()) continue;
      const auto it = relocation.find(c.nvbm_offset());
      PMO_CHECK_MSG(it != relocation.end(),
                    "replica mirror misses a referenced octant");
      moved.set_child(i, NodeRef::nvbm(it->second));
    }
    const NodeRef p = moved.parent_ref();
    if (!p.null()) {
      const auto it = relocation.find(p.in_nvbm() ? p.nvbm_offset() : 0);
      moved.set_parent(it != relocation.end() ? NodeRef::nvbm(it->second)
                                              : NodeRef{});
    }
    dev.store<PNode>(relocation[old_off], moved);
    dev.flush(relocation[old_off], sizeof(PNode));
  }
  dev.persist_barrier();
  const auto root_it = relocation.find(root_offset_);
  PMO_CHECK_MSG(root_it != relocation.end(), "replica root missing");
  heap.set_root(PmOctree::kPrevRootSlot, root_it->second);
  heap.set_root(PmOctree::kEpochSlot, 1);
  telemetry::trace::audit(
      "replica.restore_into",
      {{"octants", static_cast<double>(mirror_.size())}});
  return mirror_.size();
}

}  // namespace pmo::pmoctree
