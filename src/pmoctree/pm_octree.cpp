#include "pmoctree/pm_octree.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <functional>

#include "exec/pool.hpp"
#include "octree/balance.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"

namespace pmo::pmoctree {

namespace {
constexpr std::size_t kNodeSize = sizeof(PNode);

std::size_t lines_for(std::size_t bytes, std::size_t line) noexcept {
  return (bytes + line - 1) / line;
}
}  // namespace

// ---------------------------------------------------------------------------
// construction / restore
// ---------------------------------------------------------------------------

PmOctree::PmOctree(nvbm::Heap& heap, PmConfig config)
    : heap_(heap),
      config_(config),
      cache_(config.node_cache_bytes) {
  // PNodes dominate heap traffic; give their size class the O(1)
  // fast-path free list.
  heap_.reserve_class(kNodeSize);
  auto& reg = telemetry::Registry::global();
  tm_.cow_copies = &reg.counter("pmoctree.cow_copies");
  tm_.twin_reuse = &reg.counter("pmoctree.merge.twin_reuse");
  tm_.merged_from_dram = &reg.counter("pmoctree.merge.merged_from_dram");
  tm_.evictions = &reg.counter("pmoctree.merge.evictions");
  tm_.persists = &reg.counter("pmoctree.persists");
  tm_.gc_sweeps = &reg.counter("pmoctree.gc.sweeps");
  tm_.gc_freed = &reg.counter("pmoctree.gc.freed");
  tm_.transform_runs = &reg.counter("pmoctree.transform.runs");
  tm_.transform_moved_to_dram =
      &reg.counter("pmoctree.transform.moved_to_dram");
  tm_.transform_evicted_to_nvbm =
      &reg.counter("pmoctree.transform.evicted_to_nvbm");
  tm_.cache_hits = &reg.counter("pmoctree.cache.hits");
  tm_.cache_misses = &reg.counter("pmoctree.cache.misses");
  tm_.cache_evictions = &reg.counter("pmoctree.cache.evictions");
  tm_.cache_invalidations = &reg.counter("pmoctree.cache.invalidations");
  tm_.cursor_lca_reuse = &reg.counter("pmoctree.cursor.lca_reuse");
  tm_.persist_visits = &reg.counter("pmoctree.persist.visits");
  tm_.persist_pruned = &reg.counter("pmoctree.persist.pruned_subtrees");
  registry_ = std::make_shared<SnapshotRegistry>();
  registry_->set_counters(&reg.counter("pmoctree.snapshot.pins"),
                          &reg.counter("pmoctree.snapshot.unpins"));
}

PmOctree PmOctree::create(nvbm::Heap& heap, PmConfig config) {
  PmOctree tree(heap, config);
  // Clean slate: drop any roots and reclaim every object on the heap.
  heap.set_root(kPrevRootSlot, 0);
  heap.set_root(kEpochSlot, 0);
  heap.set_root(kNodeCountSlot, 0);
  heap.sweep([](std::uint64_t) { return false; });
  PNode root{};
  root.code = LocCode::root();
  root.epoch = tree.epoch_;
  tree.cur_root_ = tree.alloc_node(root, true);
  tree.logical_nodes_ = 1;
  return tree;
}

PmOctree PmOctree::create_from(nvbm::Heap& heap, const octree::Octree& src,
                               PmConfig config) {
  PmOctree tree = create(heap, config);
  // Mirror the volatile tree (the paper's pm_create(octree*) adoption).
  std::function<void(const octree::Node&)> copy =
      [&](const octree::Node& n) {
        tree.insert(n.code, n.data);
        for (const auto* c : n.children)
          if (c != nullptr) copy(*c);
      };
  copy(*src.root());
  return tree;
}

bool PmOctree::can_restore(nvbm::Heap& heap) {
  const bool ok = heap.root(kPrevRootSlot) != 0;
  telemetry::trace::audit("pmoctree.can_restore",
                          {{"ok", ok ? 1.0 : 0.0}});
  return ok;
}

PmOctree PmOctree::restore(nvbm::Heap& heap, PmConfig config) {
  telemetry::Span span("pmoctree.restore");
  telemetry::trace::audit(
      "pmoctree.restore",
      {{"epoch", static_cast<double>(heap.root(kEpochSlot))}});
  PmOctree tree(heap, config);
  const std::uint64_t root_off = heap.root(kPrevRootSlot);
  PMO_CHECK_MSG(root_off != 0, "pm_restore: no persisted version in heap");
  PMO_CHECK_MSG(heap.is_allocated(root_off),
                "pm_restore: persistent root does not address a live object");
  tree.prev_root_ = NodeRef::nvbm(root_off);
  // V_i starts as an alias of V_{i-1}: O(1) recovery — nothing is copied.
  tree.cur_root_ = tree.prev_root_;
  tree.epoch_ =
      static_cast<std::uint32_t>(heap.root(kEpochSlot)) + 1;
  // The persisted version's logical octant count, written just before the
  // root swap — keeps nodes_total available without a traversal.
  tree.logical_nodes_ =
      static_cast<std::size_t>(heap.root(kNodeCountSlot));
  // The restored version is durable by definition: publish it so readers
  // can pin it before the first post-recovery persist.
  tree.registry_->publish(root_off,
                          static_cast<std::uint32_t>(heap.root(kEpochSlot)),
                          tree.logical_nodes_);
  tree.recovery_gc_ = true;  // crash orphans: the first persist's gc()
  // Depth is re-learned lazily; seed it from the persisted root's subtree
  // on first stats() call. Keep 0 here to stay O(1).
  return tree;
}

// ---------------------------------------------------------------------------
// node access layer
// ---------------------------------------------------------------------------

void PmOctree::charge_dram_read(std::uint64_t nodes) {
  dram_.reads += nodes;
  const auto lines = nodes * lines_for(kNodeSize, config_.cache_line);
  dram_.lines_read += lines;
  dram_.modeled_read_ns += lines * config_.dram_read_ns;
}

void PmOctree::charge_dram_write(std::uint64_t nodes) {
  dram_.writes += nodes;
  const auto lines = nodes * lines_for(kNodeSize, config_.cache_line);
  dram_.lines_written += lines;
  dram_.modeled_write_ns += lines * config_.dram_write_ns;
}

void PmOctree::touch_heat(const LocCode& code, double amount) {
  heat_[subtree_id(code)] += amount;
}

PNode PmOctree::read_node(NodeRef ref) {
  PMO_DCHECK(!ref.null());
  if (ref.in_dram()) {
    charge_dram_read();
    const PNode node = *ref.dram_ptr();
    touch_heat(node.code, 1.0);
    return node;
  }
  const PNode node = nv_load(ref.nvbm_offset());
  touch_heat(node.code, 1.0);
  return node;
}

PNode PmOctree::nv_load(std::uint64_t offset) {
  if (cache_.capacity() == 0) return device().load<PNode>(offset);
  if (const PNode* hit = cache_.lookup(offset, epoch_)) {
    tm_.cache_hits->add();
    device().charge_cached_read(kNodeSize);
    return *hit;
  }
  tm_.cache_misses->add();
  const PNode node = device().load<PNode>(offset);
  if (cache_.insert(offset, node, epoch_)) tm_.cache_evictions->add();
  return node;
}

void PmOctree::nv_store(std::uint64_t offset, const PNode& node) {
  ++structure_version_;
  // The dirty-subtree summary bit is DRAM-only bookkeeping: strip it from
  // every byte that reaches the device so the persisted image is a pure
  // function of tree content, independent of mutation history.
  PNode clean = node;
  clean.flags &= ~kNodeSubtreeDirty;
  device().store<PNode>(offset, clean);
  cache_.update(offset, clean, epoch_);
}

void PmOctree::nv_store_partial(std::uint64_t offset, std::size_t field_off,
                                std::size_t len, const PNode& full) {
  ++structure_version_;
  PNode clean = full;
  clean.flags &= ~kNodeSubtreeDirty;
  device().write(offset + field_off,
                 reinterpret_cast<const std::byte*>(&clean) + field_off, len);
  cache_.update(offset, clean, epoch_);
}

void PmOctree::nv_free(std::uint64_t offset) {
  ++structure_version_;
  if (cache_.invalidate(offset)) tm_.cache_invalidations->add();
  if (!born_late_.empty()) born_late_.erase(offset);
  heap_.free(offset);
}

bool PmOctree::store_dram(NodeRef ref, const PNode& node) {
  if (!ref.in_dram()) return false;
  ++structure_version_;
  charge_dram_write();
  *ref.dram_ptr() = node;
  return true;
}

PNode* PmOctree::take_dram_slot() {
  PNode* slot = nullptr;
  if (!dram_free_.empty()) {
    slot = dram_free_.back();
    dram_free_.pop_back();
  } else {
    dram_pool_.emplace_back();
    slot = &dram_pool_.back();
  }
  ++dram_node_count_;
  return slot;
}

void PmOctree::write_node(NodeRef ref, const PNode& node) {
  PMO_DCHECK(!ref.null());
  touch_heat(node.code, 1.0);
  if (store_dram(ref, node)) return;
  nv_store(ref.nvbm_offset(), node);
}

void PmOctree::write_back_data(PathEntry& e) {
  touch_heat(e.node.code, 1.0);
  if (store_dram(e.ref, e.node)) return;
  // Only data/flags/epoch changed; the code/parent/children prefix on the
  // device is already identical (the node was either stored whole at its
  // CoW allocation or was private with the same links).
  nv_store_partial(e.ref.nvbm_offset(), offsetof(PNode, data),
                   sizeof(PNode) - offsetof(PNode, data), e.node);
}

void PmOctree::write_back_child(NodeRef ref, const PNode& node, int ci) {
  touch_heat(node.code, 1.0);
  if (store_dram(ref, node)) return;
  nv_store_partial(ref.nvbm_offset(),
                   offsetof(PNode, child) + static_cast<std::size_t>(ci) * 8,
                   8, node);
  // The child-presence mask lives in the flags word: store it too so the
  // durable mask tracks null<->non-null slot transitions.
  nv_store_partial(ref.nvbm_offset(), offsetof(PNode, flags),
                   sizeof(node.flags), node);
}

void PmOctree::write_back_children(NodeRef ref, const PNode& node) {
  touch_heat(node.code, 1.0);
  if (store_dram(ref, node)) return;
  nv_store_children(ref.nvbm_offset(), node);
}

void PmOctree::nv_store_children(std::uint64_t offset, const PNode& node) {
  nv_store_partial(offset, offsetof(PNode, child), sizeof(node.child), node);
  // Child-slot changes move the presence mask in flags with them.
  nv_store_partial(offset, offsetof(PNode, flags), sizeof(node.flags), node);
}

NodeRef PmOctree::alloc_node(const PNode& proto, bool prefer_dram) {
  note_depth(proto.code.level());
  ++structure_version_;
  // Hard cap at the overflow ceiling; the placement policies already
  // enforce the tighter budget/designation rules.
  const auto ceiling = static_cast<std::size_t>(
      static_cast<double>(config_.dram_budget_bytes) * config_.dram_overflow);
  if (prefer_dram && dram_bytes() < ceiling) {
    PNode* slot = take_dram_slot();
    *slot = proto;
    charge_dram_write();
    c0_set_.insert(subtree_id(proto.code));
    return NodeRef::dram(slot);
  }
  const std::uint64_t off = heap_.alloc(kNodeSize);
  const NodeRef ref = NodeRef::nvbm(off);
  nv_store(off, proto);
  return ref;
}

void PmOctree::free_node(NodeRef ref) {
  PMO_DCHECK(!ref.null());
  ++structure_version_;
  if (ref.in_dram()) {
    if (const auto it = twins_.find(ref.dram_ptr()); it != twins_.end()) {
      retire(it->second.off, it->second.birth);
      twins_.erase(it);
    }
    dram_free_.push_back(ref.dram_ptr());
    --dram_node_count_;
    return;
  }
  nv_free(ref.nvbm_offset());
}

// ---------------------------------------------------------------------------
// placement
// ---------------------------------------------------------------------------

int PmOctree::subtree_level() const noexcept {
  // Paper Eq. 1: L_sub = Depth_octree - floor(log_Fanout(Size_DRAM)).
  const double budget_nodes = std::max<double>(
      1.0, static_cast<double>(config_.dram_budget_bytes) / kNodeSize);
  const int span =
      static_cast<int>(std::floor(std::log(budget_nodes) / std::log(8.0)));
  return std::clamp(depth_ - span, 0, depth_);
}

LocCode PmOctree::subtree_id(const LocCode& code) const {
  const int level = std::min(code.level(), subtree_level());
  return code.ancestor_at(level);
}

bool PmOctree::place_new(const LocCode& code) const {
  if (config_.dram_budget_bytes == 0) return false;
  if (place_cow(code)) return true;
  // First-touch: any octant may claim free DRAM. Without the dynamic
  // transformation this is exactly the "locality-oblivious" behaviour of
  // Fig. 5a — DRAM fills with whatever was touched first and nothing
  // re-lays it out when the access pattern moves.
  return dram_bytes() <
         static_cast<std::size_t>(static_cast<double>(
             config_.dram_budget_bytes) * config_.threshold_dram);
}

bool PmOctree::place_cow(const LocCode& code) const {
  if (config_.dram_budget_bytes == 0) return false;
  // Subtrees the transformation designated hot may transiently overflow
  // the budget; enforce_dram_budget() trims back to it afterwards.
  if (c0_set_.count(subtree_id(code)) == 0) return false;
  return dram_bytes() <
         static_cast<std::size_t>(static_cast<double>(
             config_.dram_budget_bytes) * config_.dram_overflow);
}

// ---------------------------------------------------------------------------
// structural helpers
// ---------------------------------------------------------------------------

PmOctree::Cursor* PmOctree::cursor() {
  if (cache_.capacity() == 0) return nullptr;  // cursor layer rides the knob
  const auto ctx = static_cast<std::size_t>(exec::context_id());
  if (ctx >= cursors_.size()) cursors_.resize(ctx + 1);
  return &cursors_[ctx];
}

bool PmOctree::descend(const LocCode& code, Path& path) {
  path.clear();
  PMO_CHECK_MSG(!cur_root_.null(), "tree has been destroyed");

  Cursor* cur = cursor();
  std::size_t reused = 0;
  if (cur != nullptr && cur->stamp == epoch_ &&
      cur->version == structure_version_ && !cur->path.empty() &&
      cur->path[0].ref == cur_root_) {
    // Longest common ancestor of the cursor's code and the probe: the
    // deepest level at which both codes name the same octant, computed
    // from the codes alone — no tree reads.
    const LocCode& prev = cur->path.back().node.code;
    int lca = std::min(code.level(), prev.level());
    while (lca > 0 &&
           !(code.ancestor_at(lca).key() == prev.ancestor_at(lca).key()))
      --lca;
    const std::size_t take =
        std::min(cur->path.size(), static_cast<std::size_t>(lca) + 1);
    // Reuse the shared prefix. Which ops share a cursor depends on worker
    // scheduling, so reuse must be modeled-charge TRANSPARENT: each entry
    // performs exactly the accounting and cache side effects a fresh
    // read_node would. What it skips is the real work — the device/pool
    // memcpys and child-link chasing for the prefix.
    for (std::size_t i = 0; i < take; ++i) {
      const PathEntry& e = cur->path[i];
      if (e.ref.in_dram()) {
        charge_dram_read();
      } else if (cache_.lookup(e.ref.nvbm_offset(), epoch_) != nullptr) {
        tm_.cache_hits->add();
        device().charge_cached_read(kNodeSize);
      } else {
        tm_.cache_misses->add();
        device().touch_read(e.ref.nvbm_offset(), kNodeSize);
        if (cache_.insert(e.ref.nvbm_offset(), e.node, epoch_))
          tm_.cache_evictions->add();
      }
      touch_heat(e.node.code, 1.0);
      path.push_back(e);
    }
    reused = take;
  }

  if (path.empty()) path.push_back({cur_root_, read_node(cur_root_)});
  bool found = true;
  for (int level = static_cast<int>(path.size()); level <= code.level();
       ++level) {
    const int idx = code.ancestor_at(level).child_index();
    const NodeRef child = path.back().node.child_ref(idx);
    if (child.null()) {
      found = false;
      break;
    }
    path.push_back({child, read_node(child)});
  }

  if (reused > 0) {
    tm_.cursor_lca_reuse->add(reused);
    cursor_reuse_ += reused;
  }
  if (cur != nullptr) {
    cur->path = path;
    cur->stamp = epoch_;
    cur->version = structure_version_;
  }
  return found;
}

void PmOctree::mark_dirty_path(Path& path, std::size_t i) {
  // Stamp the summary bit on every DRAM ancestor of the mutation (NVBM
  // entries are skipped: a shared NVBM ancestor is CoW-copied to the
  // current epoch before any descendant mutation lands, and epoch ==
  // current already forces a merge visit). Both the live node and the
  // path's cached copy are stamped so later write-backs of the cached
  // copy cannot clear the live bit.
  for (std::size_t k = 0; k <= i; ++k) {
    if (!path[k].ref.in_dram()) continue;
    path[k].ref.dram_ptr()->flags |= kNodeSubtreeDirty;
    path[k].node.flags |= kNodeSubtreeDirty;
  }
}

NodeRef PmOctree::make_mutable(Path& path, std::size_t i) {
  mark_dirty_path(path, i);
  NodeRef ref = path[i].ref;
  if (ref.in_dram()) {
    // DRAM nodes are never referenced by V_{i-1} directly (only their
    // NVBM twins are), so they mutate in place — but the first mutation
    // of an epoch must stamp the node dirty so the next persist writes a
    // fresh twin instead of reusing the shared one.
    if (path[i].node.epoch != epoch_) {
      path[i].node.epoch = epoch_;
      ref.dram_ptr()->epoch = epoch_;
    }
    return ref;
  }
  if (path[i].node.epoch == epoch_) return ref;  // private NVBM node

  // Copy-on-write (Fig. 4): copy this shared octant, then recursively make
  // the parent mutable and relink. The shared original stays untouched for
  // V_{i-1}.
  retire(ref.nvbm_offset(), birth_of(ref.nvbm_offset(), path[i].node.epoch));
  tm_.cow_copies->add();
  telemetry::trace::instant("pmoctree.cow_copy", "pmoctree",
                            {{"depth", static_cast<double>(i)}});
  NodeRef parent_ref;
  if (i > 0) parent_ref = make_mutable(path, i - 1);

  PNode copy = path[i].node;
  copy.epoch = epoch_;
  copy.set_parent(parent_ref);
  const NodeRef nref = alloc_node(copy, place_new(copy.code));

  if (i == 0) {
    cur_root_ = nref;
  } else {
    auto& parent = path[i - 1];
    parent.node.set_child(copy.code.child_index(), nref);
    write_back_child(parent.ref, parent.node, copy.code.child_index());
  }
  path[i].ref = nref;
  path[i].node = copy;
  return nref;
}

// ---------------------------------------------------------------------------
// queries / traversal
// ---------------------------------------------------------------------------

std::optional<CellData> PmOctree::find(const LocCode& code) {
  Path path;
  if (!descend(code, path)) return std::nullopt;
  return path.back().node.data;
}

bool PmOctree::contains(const LocCode& code) {
  Path path;
  return descend(code, path);
}

bool PmOctree::is_leaf(const LocCode& code) {
  Path path;
  if (!descend(code, path)) return false;
  return path.back().node.is_leaf();
}

CellData PmOctree::sample(const LocCode& code) {
  Path path;
  descend(code, path);
  return path.back().node.data;
}

LocCode PmOctree::leaf_containing(const LocCode& code) {
  Path path;
  descend(code, path);
  return path.back().node.code;
}

void PmOctree::for_each_node(
    const std::function<void(const LocCode&, const CellData&, bool)>& fn) {
  for_each_node_ex([&](const LocCode& code, const CellData& data, bool leaf,
                       bool) { fn(code, data, leaf); });
}

void PmOctree::for_each_node_ex(
    const std::function<void(const LocCode&, const CellData&, bool, bool)>&
        fn) {
  walk_from(cur_root_, fn);
}

void PmOctree::walk_from(
    NodeRef root,
    const std::function<void(const LocCode&, const CellData&, bool, bool)>&
        fn) {
  if (root.null()) return;
  std::vector<NodeRef> stack{root};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node = read_node(ref);
    fn(node.code, node.data, node.is_leaf(), ref.in_dram());
    for (int i = kChildrenPerNode - 1; i >= 0; --i) {
      const NodeRef c = node.child_ref(i);
      if (!c.null()) stack.push_back(c);
    }
  }
}

void PmOctree::for_each_leaf(
    const std::function<void(const LocCode&, const CellData&)>& fn) {
  for_each_leaf_from(cur_root_, fn);
}

void PmOctree::extract_leaves_soa(std::vector<std::uint64_t>& keys,
                                  std::vector<std::uint8_t>& levels,
                                  std::vector<double>& vof,
                                  std::vector<double>& tracer) {
  if (cur_root_.null()) return;
  std::vector<NodeRef> stack{cur_root_};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node = read_node(ref);
    if (node.is_leaf()) {
      keys.push_back(node.code.key());
      levels.push_back(static_cast<std::uint8_t>(node.code.level()));
      vof.push_back(node.data.vof);
      tracer.push_back(node.data.tracer);
      continue;
    }
    for (int i = kChildrenPerNode - 1; i >= 0; --i) {
      const NodeRef c = node.child_ref(i);
      if (!c.null()) stack.push_back(c);
    }
  }
}

void PmOctree::for_each_leaf_from(
    NodeRef root,
    const std::function<void(const LocCode&, const CellData&)>& fn) {
  walk_from(root, [&](const LocCode& code, const CellData& data, bool leaf,
                      bool) {
    if (leaf) fn(code, data);
  });
}

void PmOctree::for_each_leaf_prev(
    const std::function<void(const LocCode&, const CellData&)>& fn) {
  for_each_leaf_from(prev_root_, fn);
}

void PmOctree::for_each_leaf_snapshot(
    const SnapshotHandle& snap,
    const std::function<void(const LocCode&, const CellData&)>& fn) {
  PMO_CHECK_MSG(snap.valid(),
                "for_each_leaf_snapshot: released or empty handle");
  for_each_leaf_from(NodeRef::nvbm(snap.root_offset()), fn);
}

void PmOctree::for_each_leaf_mut(
    const std::function<bool(const LocCode&, CellData&)>& fn) {
  for_each_leaf_mut_pruned([](const LocCode&) { return true; }, fn);
}

void PmOctree::for_each_leaf_mut_pruned(
    const std::function<bool(const LocCode&)>& visit,
    const std::function<bool(const LocCode&, CellData&)>& fn) {
  // DFS carrying the full path so copy-on-write write-backs can relink
  // ancestors without a fresh descent per leaf.
  Path path;
  path.push_back({cur_root_, read_node(cur_root_)});
  // Per-depth next-child cursor.
  std::vector<int> cursor{0};
  while (!path.empty()) {
    const std::size_t i = path.size() - 1;
    if (path[i].node.is_leaf()) {
      CellData d = path[i].node.data;
      if (fn(path[i].node.code, d)) {
        make_mutable(path, i);
        path[i].node.data = d;
        write_back_data(path[i]);
      }
      path.pop_back();
      cursor.pop_back();
      continue;
    }
    int& c = cursor[i];
    // Re-read the child ref from the (possibly CoW-updated) cached node.
    // Subtrees pruned by `visit` are skipped before their root is even
    // read — the child's code is derivable from the parent's.
    NodeRef child;
    while (c < kChildrenPerNode) {
      const NodeRef candidate = path[i].node.child_ref(c);
      const int idx = c;
      ++c;
      if (candidate.null()) continue;
      if (!visit(path[i].node.code.child(idx))) continue;
      child = candidate;
      break;
    }
    if (child.null()) {
      path.pop_back();
      cursor.pop_back();
      continue;
    }
    path.push_back({child, read_node(child)});
    cursor.push_back(0);
  }
}

std::size_t PmOctree::node_count() {
  std::size_t n = 0;
  for_each_node([&](const LocCode&, const CellData&, bool) { ++n; });
  return n;
}

std::size_t PmOctree::leaf_count() {
  std::size_t n = 0;
  for_each_leaf([&](const LocCode&, const CellData&) { ++n; });
  return n;
}

// ---------------------------------------------------------------------------
// mutation
// ---------------------------------------------------------------------------

void PmOctree::insert(const LocCode& code, const CellData& data) {
  Path path;
  const bool exists = descend(code, path);
  if (exists) {
    make_mutable(path, path.size() - 1);
    path.back().node.data = data;
    write_back_data(path.back());
    return;
  }
  // Create the path level by level under the deepest ancestor. A leaf
  // gets a full sibling group (octree invariant: a node has zero or eight
  // children); an internal octant that lost the target child to remove()
  // gets just that child, so its live siblings stay linked.
  ++topology_version_;  // new octants change the leaf set
  seeds_all_ = true;
  while (path.back().node.code.level() < code.level()) {
    const std::size_t pi = path.size() - 1;
    make_mutable(path, pi);
    PNode parent = path[pi].node;
    const bool split = parent.is_leaf();
    const int next_level = parent.code.level() + 1;
    const int take = code.ancestor_at(next_level).child_index();
    NodeRef take_ref;
    PNode take_node{};
    for (int ci = 0; ci < kChildrenPerNode; ++ci) {
      if (!split && ci != take) continue;
      PNode child{};
      child.code = parent.code.child(ci);
      child.data = parent.data;  // inherit
      child.epoch = epoch_;
      child.set_parent(path[pi].ref);
      const NodeRef cref = alloc_node(child, place_new(child.code));
      parent.set_child(ci, cref);
      ++logical_nodes_;
      if (ci == take) {
        take_ref = cref;
        take_node = child;
      }
    }
    if (split) {
      write_back_children(path[pi].ref, parent);
    } else {
      write_back_child(path[pi].ref, parent, take);
    }
    path[pi].node = parent;
    path.push_back({take_ref, take_node});
  }
  path.back().node.data = data;
  write_back_data(path.back());
  note_depth(code.level());
  enforce_dram_budget();
}

void PmOctree::update(const LocCode& code, const CellData& data) {
  Path path;
  PMO_CHECK_MSG(descend(code, path),
                "update of nonexistent octant " << code.to_string());
  make_mutable(path, path.size() - 1);
  path.back().node.data = data;
  write_back_data(path.back());
}

std::size_t PmOctree::free_subtree(NodeRef ref, bool tombstone_shared) {
  if (ref.null()) return 0;
  PNode node = ref.in_dram() ? *ref.dram_ptr() : nv_load(ref.nvbm_offset());
  if (ref.in_dram() || node.epoch == epoch_) {  // private: free outright
    std::size_t n = 1;
    for (int i = 0; i < kChildrenPerNode; ++i)
      n += free_subtree(node.child_ref(i), tombstone_shared);
    free_node(ref);
    return n;
  }
  // Shared with V_{i-1}: tombstone the subtree root and retire every node
  // (§3.2, Deletion); the recursion with tombstoning off retires the rest
  // and COUNTS the logical octants leaving V_i.
  retire(ref.nvbm_offset(), birth_of(ref.nvbm_offset(), node.epoch));
  std::size_t n = 1;
  for (int i = 0; i < kChildrenPerNode; ++i)
    n += free_subtree(node.child_ref(i), /*tombstone_shared=*/false);
  // A pinned reader may be traversing this shared node right now, so the
  // kNodeDeleted flip is not written under a live pin.
  if (tombstone_shared && !node.deleted()) {
    touch_heat(node.code, 1.0);
    if (registry_->pin_count() == 0) {
      node.flags |= kNodeDeleted;
      nv_store_partial(ref.nvbm_offset(), offsetof(PNode, flags),
                       sizeof(node.flags), node);
    }
  }
  return n;
}

void PmOctree::remove(const LocCode& code) {
  PMO_CHECK_MSG(code.level() > 0, "cannot remove the root octant");
  Path path;
  PMO_CHECK_MSG(descend(code, path),
                "remove of nonexistent octant " << code.to_string());
  const NodeRef doomed = path.back().ref;
  const std::size_t pi = path.size() - 2;
  make_mutable(path, pi);
  path[pi].node.set_child(code.child_index(), NodeRef{});
  write_back_child(path[pi].ref, path[pi].node, code.child_index());
  logical_nodes_ -= free_subtree(doomed, /*tombstone_shared=*/true);
  ++topology_version_;
  seeds_all_ = true;
}

void PmOctree::refine(
    const LocCode& leaf,
    const std::function<void(const LocCode&, CellData&)>& init) {
  Path path;
  PMO_CHECK_MSG(descend(leaf, path),
                "refine of nonexistent octant " << leaf.to_string());
  PMO_CHECK_MSG(path.back().node.is_leaf(), "refine requires a leaf");
  PMO_CHECK_MSG(leaf.level() < kMaxLevel, "cannot refine beyond kMaxLevel");
  const std::size_t li = path.size() - 1;
  make_mutable(path, li);
  PNode parent = path[li].node;
  for (int ci = 0; ci < kChildrenPerNode; ++ci) {
    PNode child{};
    child.code = parent.code.child(ci);
    child.data = parent.data;
    child.epoch = epoch_;
    child.set_parent(path[li].ref);
    if (init) init(child.code, child.data);
    parent.set_child(ci, alloc_node(child, place_new(child.code)));
  }
  write_back_children(path[li].ref, parent);
  logical_nodes_ += kChildrenPerNode;
  note_depth(leaf.level() + 1);
  ++topology_version_;
  log_seed(leaf, /*coarsened=*/false);
}

void PmOctree::coarsen(const LocCode& parent_code) {
  Path path;
  PMO_CHECK_MSG(descend(parent_code, path),
                "coarsen of nonexistent octant " << parent_code.to_string());
  PMO_CHECK_MSG(!path.back().node.is_leaf(),
                "coarsen requires an internal octant");
  const std::size_t pi = path.size() - 1;
  make_mutable(path, pi);
  PNode parent = path[pi].node;
  CellData acc{};
  for (int ci = 0; ci < kChildrenPerNode; ++ci) {
    const NodeRef c = parent.child_ref(ci);
    PMO_CHECK_MSG(!c.null(), "coarsen: missing child octant");
    const PNode child = read_node(c);
    acc.vof += child.data.vof / kChildrenPerNode;
    acc.tracer += child.data.tracer / kChildrenPerNode;
    acc.u += child.data.u / kChildrenPerNode;
    acc.v += child.data.v / kChildrenPerNode;
    acc.w += child.data.w / kChildrenPerNode;
    acc.pressure += child.data.pressure / kChildrenPerNode;
  }
  for (int ci = 0; ci < kChildrenPerNode; ++ci) {
    logical_nodes_ -=
        free_subtree(parent.child_ref(ci), /*tombstone_shared=*/true);
    parent.set_child(ci, NodeRef{});
  }
  parent.data = acc;
  write_node(path[pi].ref, parent);
  ++topology_version_;
  log_seed(parent_code, /*coarsened=*/true);
}

std::size_t PmOctree::refine_where(
    const std::function<bool(const LocCode&, const CellData&)>& pred,
    const std::function<void(const LocCode&, CellData&)>& init) {
  std::vector<LocCode> to_split;
  for_each_leaf([&](const LocCode& code, const CellData& data) {
    if (code.level() < kMaxLevel && pred(code, data))
      to_split.push_back(code);
  });
  for (const auto& code : to_split) refine(code, init);
  enforce_dram_budget();
  return to_split.size();
}

std::size_t PmOctree::coarsen_where(
    const std::function<bool(const LocCode&, const CellData&)>& pred) {
  // Find internal nodes whose children are all agreeing leaves.
  std::vector<LocCode> groups;
  std::vector<NodeRef> stack{cur_root_};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node = read_node(ref);
    if (node.is_leaf()) continue;
    bool all_leaf = true;
    bool all_agree = true;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      if (c.null()) {
        all_leaf = false;
        continue;
      }
      const PNode child = read_node(c);
      if (!child.is_leaf()) {
        all_leaf = false;
        stack.push_back(c);  // keep scanning deeper groups
      } else {
        all_agree &= pred(child.code, child.data);
      }
    }
    if (all_leaf && all_agree) groups.push_back(node.code);
  }
  for (const auto& g : groups) coarsen(g);
  return groups.size();
}

void PmOctree::log_seed(const LocCode& parent, bool coarsened) {
  if (seeds_all_) return;
  if (coarsened) {
    coarsened_seeds_.push_back(parent);
  } else {
    for (int ci = 0; ci < kChildrenPerNode; ++ci)
      refined_seeds_.push_back(parent.child(ci));
  }
  if (refined_seeds_.size() + coarsened_seeds_.size() > logical_nodes_) {
    // A log longer than the tree: seeding every leaf is cheaper.
    seeds_all_ = true;
    refined_seeds_.clear();
    coarsened_seeds_.clear();
  }
}

std::size_t PmOctree::balance() {
  if (!seeds_all_ && refined_seeds_.empty() && coarsened_seeds_.empty()) {
    enforce_dram_budget();
    return 0;  // no structural change since the last balance
  }
  // One traversal (pre-order DFS yields Morton order already).
  std::vector<LocCode> leaves;
  for_each_leaf(
      [&](const LocCode& code, const CellData&) { leaves.push_back(code); });
  std::vector<LocCode> fine;
  std::vector<LocCode> coarsened;
  if (seeds_all_) {
    fine = leaves;
  } else {
    fine.swap(refined_seeds_);
    coarsened.swap(coarsened_seeds_);
  }
  // Until the kernel returns, the tree counts as unbalanced everywhere:
  // this also keeps the kernel's own refines out of the log.
  seeds_all_ = true;
  const std::size_t total =
      octree::ripple_balance(leaves, std::move(fine), coarsened,
                             [&](const LocCode& code) { refine(code); });
  refined_seeds_.clear();
  coarsened_seeds_.clear();
  seeds_all_ = false;
  enforce_dram_budget();
  return total;
}

namespace {
// Cover query over the Morton-sorted leaf array: the covering leaf of any
// probe code is its predecessor by key.
const LocCode& cover_in_sorted(const std::vector<LocCode>& leaves,
                               const LocCode& probe) {
  auto it = std::upper_bound(
      leaves.begin(), leaves.end(), probe,
      [](const LocCode& a, const LocCode& b) { return a.key() < b.key(); });
  PMO_DCHECK(it != leaves.begin());
  return *(it - 1);
}
}  // namespace

bool PmOctree::is_balanced() {
  std::vector<LocCode> leaves;
  for_each_leaf(
      [&](const LocCode& code, const CellData&) { leaves.push_back(code); });
  for (const auto& leaf : leaves) {
    for (const auto& d : LocCode::neighbor_directions()) {
      LocCode ncode;
      if (!leaf.neighbor(d[0], d[1], d[2], ncode)) continue;
      if (cover_in_sorted(leaves, ncode).level() < leaf.level() - 1) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// merging / persistence
// ---------------------------------------------------------------------------

NodeRef PmOctree::nvbmify(NodeRef ref, std::size_t* moved) {
  if (ref.null()) return ref;
  if (ref.in_nvbm()) {
    PNode node = nv_load(ref.nvbm_offset());
    if (node.epoch != epoch_) return ref;  // shared subtree: all NVBM already
    bool changed = false;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      const NodeRef nc = nvbmify(c, moved);
      if (!(nc == c)) {
        node.set_child(i, nc);
        changed = true;
      }
    }
    if (changed) write_back_children(ref, node);
    return ref;
  }
  // DRAM node: convert children first, then move the node itself out.
  charge_dram_read();
  PNode node = *ref.dram_ptr();
  const bool clean = node.epoch != epoch_;
  for (int i = 0; i < kChildrenPerNode; ++i)
    node.set_child(i, nvbmify(node.child_ref(i), moved));
  // A clean octant whose children land exactly on its durable twin's
  // recorded children can be evicted by *linking the twin* — no new NVBM
  // object, no write (the common case when a cold C0 subtree is merged
  // out unchanged).
  if (const auto it = twins_.find(ref.dram_ptr());
      clean && it != twins_.end()) {
    const std::uint64_t twin_off = it->second.off;
    const PNode twin = nv_load(twin_off);
    bool match = true;
    for (int i = 0; i < kChildrenPerNode; ++i)
      match &= twin.child[i] == node.child[i];
    if (match) {
      tm_.twin_reuse->add();
      twins_.erase(it);  // the twin stays linked: not retired
      free_node(ref);
      ++(*moved);
      return NodeRef::nvbm(twin_off);
    }
  }
  const std::uint64_t off = heap_.alloc(kNodeSize);
  const NodeRef nref = NodeRef::nvbm(off);
  // A clean octant keeps its old epoch, so the fresh object reads as
  // shared although no sealed version holds it yet.
  if (clean) born_late_.emplace(off, epoch_);
  nv_store(off, node);
  // Fix advisory parent pointers of private (current-epoch) children.
  for (int i = 0; i < kChildrenPerNode; ++i) {
    const NodeRef c = node.child_ref(i);
    if (!c.in_nvbm()) continue;
    PNode child = nv_load(c.nvbm_offset());
    if (child.epoch == epoch_) {
      child.set_parent(nref);
      nv_store_partial(c.nvbm_offset(), offsetof(PNode, parent),
                       sizeof(child.parent), child);
    }
  }
  free_node(ref);
  ++(*moved);
  return nref;
}

void PmOctree::census_add(SampleCensus& census, const LocCode& code,
                          const CellData& data, bool in_dram) {
  const int lsub = subtree_level();
  if (code.level() < lsub) return;
  auto& b = census[code.ancestor_at(lsub)];
  ++b.size;
  if (in_dram) ++b.dram;
  if (b.sample.size() < config_.n_sample) {
    b.sample.emplace_back(code, data);
  } else {
    const auto j = rng_.below(b.size);
    if (j < config_.n_sample)
      b.sample[static_cast<std::size_t>(j)] = {code, data};
  }
}

void PmOctree::install_twin(const PNode* slot, std::uint64_t off) {
  const auto [it, fresh] = twins_.try_emplace(slot, Twin{off, epoch_});
  if (!fresh) {
    retire(it->second.off, it->second.birth);
    it->second = Twin{off, epoch_};
  }
}

PmOctree::MergeResult PmOctree::persist_subtree(NodeRef ref, MergeCtx& ctx) {
  if (ref.null()) return {ref, ref, false};
  if (ref.in_nvbm()) {
    ++ctx.stats.visits;
    PNode node = device().load<PNode>(ref.nvbm_offset());
    if (node.epoch != epoch_) {
      // Shared with V_{i-1}. Invariant: a shared NVBM node never has DRAM
      // descendants (established by the split below at the persist that
      // made it shared, and structural changes CoW it private).
      return {ref, ref, false};
    }
    // Private NVBM node: persist the children first.
    ++ctx.changed;
    MergeResult child_res[kChildrenPerNode];
    bool have_dram_child = false;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      child_res[i] = persist_subtree(node.child_ref(i), ctx);
      if (!child_res[i].wref.null() && child_res[i].wref.in_dram())
        have_dram_child = true;
    }
    if (!have_dram_child) {
      // Whole subtree NVBM: this node serves both versions in place.
      bool relink = false;
      for (int i = 0; i < kChildrenPerNode; ++i) {
        if (!(child_res[i].pref == node.child_ref(i))) {
          node.set_child(i, child_res[i].pref);
          relink = true;
        }
      }
      if (relink) nv_store_children(ref.nvbm_offset(), node);
      return {ref, ref, true};  // created this epoch: new vs V_{i-1}
    }
    // This node sits above DRAM children: split it into a DRAM working
    // copy (joining C0, which keeps the no-NVBM-above-DRAM invariant)
    // plus an NVBM twin for the persistent version.
    PNode twin = node;
    PNode working = node;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      twin.set_child(i, child_res[i].pref);
      working.set_child(i, child_res[i].wref);
    }
    twin.set_parent(NodeRef{});
    const std::uint64_t twin_off = heap_.alloc(kNodeSize);
    nv_store(twin_off, twin);
    PNode* slot = take_dram_slot();
    *slot = working;
    charge_dram_write();
    install_twin(slot, twin_off);
    ctx.splits.push_back(ref.nvbm_offset());
    ++ctx.stats.merged_from_dram;
    return {NodeRef::dram(slot), NodeRef::nvbm(twin_off), true};
  }

  // DRAM node.
  charge_dram_read();
  PNode* ptr = ref.dram_ptr();
  const bool clean =
      ptr->epoch != epoch_ && (ptr->flags & kNodeSubtreeDirty) == 0;
  if (config_.persist_pruning && clean) {
    // Entirely-clean subtree: nothing under it mutated since its durable
    // twin was recorded, so the twin already IS its persisted image —
    // skip the subtree in O(1). A skip is not a visit: `visits` counts
    // octants the merge processes, `pruned_subtrees` counts the skips.
    if (const auto it = twins_.find(ptr); it != twins_.end()) {
      ++ctx.stats.pruned_subtrees;
      return {ref, NodeRef::nvbm(it->second.off), false};
    }
  }
  ++ctx.stats.visits;
  // Persist the children first, then decide whether the twin from the
  // previous persist can be reused.
  const bool dirty = ptr->epoch == epoch_;
  PNode twin_content = *ptr;
  bool child_changed = false;
  bool working_relink = false;
  for (int i = 0; i < kChildrenPerNode; ++i) {
    const MergeResult sub = persist_subtree(twin_content.child_ref(i), ctx);
    twin_content.set_child(i, sub.pref);
    child_changed |= sub.changed;
    if (!(sub.wref == ptr->child_ref(i))) {
      ptr->set_child(i, sub.wref);
      working_relink = true;
    }
  }
  if (working_relink) charge_dram_write();
  // Visited: the summary bit has served its purpose for this epoch.
  ptr->flags &= ~kNodeSubtreeDirty;
  const auto twin_it = twins_.find(ptr);
  if (!dirty && !child_changed && twin_it != twins_.end()) {
    tm_.twin_reuse->add();
    return {ref, NodeRef::nvbm(twin_it->second.off), false};  // reuse
  }
  // Write a fresh durable twin; the old one (if any) still belongs to
  // V_{i-1} and is retired.
  twin_content.epoch = epoch_;
  twin_content.set_parent(NodeRef{});  // advisory; fixed by the parent
  const std::uint64_t off = heap_.alloc(kNodeSize);
  nv_store(off, twin_content);
  install_twin(ptr, off);
  ++ctx.stats.merged_from_dram;
  ++ctx.changed;
  return {ref, NodeRef::nvbm(off), true};
}

void PmOctree::collect_census(NodeRef root, SampleCensus& census) {
  // Advisory feature-sampling walk, run sequentially after the merge.
  // Decoupled from the merge — a pruned merge never sees clean subtrees,
  // and a census that varied with the pruning knob would steer the layout
  // transformation differently and break image bit-identity. Deliberately
  // charge-free: the paper folds sampling into the merge at zero marginal
  // cost, and the walk must not re-inflate the counters pruning saved.
  if (root.null()) return;
  std::vector<NodeRef> stack{root};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    PNode node;
    if (ref.in_dram()) {
      node = *ref.dram_ptr();
    } else {
      std::memcpy(&node, device().raw(ref.nvbm_offset(), kNodeSize),
                  kNodeSize);
    }
    census_add(census, node.code, node.data, ref.in_dram());
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      if (!c.null()) stack.push_back(c);
    }
  }
}

PersistStats PmOctree::persist() {
  telemetry::Span span("pmoctree.persist");
  PersistStats stats;

  // 1. Merge: give every octant of V_i an NVBM representative. Changed
  //    octants (and octants whose subtree changed) get fresh storage;
  //    everything else is shared with V_{i-1}. The DRAM working copies
  //    (C0) stay in place. With dirty-subtree pruning the merge touches
  //    only the dirty fringe, so the octant total comes from the
  //    incrementally maintained logical count, not from the walk.
  stats.nodes_total = logical_nodes_;
  MergeCtx ctx{stats, 0, {}};
  NodeRef new_prev;
  {
    // The merge's bump allocations advance the durable high-water mark
    // once, when this scope closes — before flush_all() and the root
    // swap, so no durable root ever reaches an object above the durable
    // mark (DESIGN.md §9).
    nvbm::Heap::DeferHighWater defer_hw(heap_);
    telemetry::Span merge_span("merge");  // pmoctree.persist.merge
    const MergeResult res = persist_subtree(cur_root_, ctx);
    for (const std::uint64_t off : ctx.splits) nv_free(off);
    new_prev = res.pref;
    cur_root_ = res.wref;  // NVBM-above-DRAM nodes may have joined C0
  }
  PMO_CHECK(new_prev.in_nvbm());
  stats.nodes_shared =
      stats.nodes_total - std::min(ctx.changed, stats.nodes_total);
  stats.overlap_ratio =
      stats.nodes_total == 0
          ? 0.0
          : static_cast<double>(stats.nodes_shared) /
                static_cast<double>(stats.nodes_total);
  stats.delta_bytes = ctx.changed * kNodeSize;
  // Crash-injection hook: die here, with the merge's writes unflushed
  // and the durable root still pointing at V_{i-1}.
  if (config_.crash_before_flush_for_test) return stats;

  // 2. Make everything durable, then atomically swing the persistent root.
  //    This 8-byte update is the only ordering-critical write (§1).
  device().flush_all();
  device().persist_barrier();
  // The node-count slot is advisory (restore() only reads it for the
  // telemetry baseline), so it goes first: a crash between the slot
  // stores can misreport a statistic but never corrupt the tree.
  heap_.set_root(kNodeCountSlot, logical_nodes_);
  heap_.set_root(kPrevRootSlot, new_prev.nvbm_offset());
  heap_.set_root(kEpochSlot, epoch_);
  telemetry::trace::instant(
      "pmoctree.version_swap", "pmoctree",
      {{"epoch", static_cast<double>(epoch_)},
       {"delta_bytes", static_cast<double>(stats.delta_bytes)},
       {"nodes_shared", static_cast<double>(stats.nodes_shared)},
       {"visits", static_cast<double>(stats.visits)},
       {"pruned_subtrees", static_cast<double>(stats.pruned_subtrees)}});

  prev_root_ = new_prev;
  ++epoch_;
  // The sealed version is durable: publish it to the pin registry so
  // readers can pin it from any thread.
  registry_->publish(new_prev.nvbm_offset(), epoch_ - 1, logical_nodes_);
  // Every cached node now belongs to the just-sealed epoch and is still
  // byte-correct (the cache is write-through and frees invalidate their
  // offsets eagerly), so carry the whole cache across the bump instead of
  // letting the epoch stamp expire it wholesale.
  cache_.restamp(epoch_ - 1, epoch_);

  // 3. Reclaim superseded objects (never *during* the merge): free the
  //    retire list's entries no pinned epoch can reach. After restore()
  //    the full sweep runs once instead, to reclaim crash orphans.
  {
    telemetry::Span gc_span("gc");  // pmoctree.persist.gc
    stats.gc_freed = recovery_gc_ ? gc() : drain_retired();
  }

  // 4. Decay heat and re-layout hot subtrees (the paper triggers dynamic
  //    transformation only after merging completes).
  for (auto& [id, h] : heat_) h *= 0.5;
  if (config_.enable_transform && !features_.empty()) {
    telemetry::Span tr_span("transform");  // pmoctree.persist.transform
    maybe_transform();
  }

  tm_.persists->add();
  tm_.merged_from_dram->add(stats.merged_from_dram);
  tm_.persist_visits->add(stats.visits);
  tm_.persist_pruned->add(stats.pruned_subtrees);
  telemetry::trace::instant(
      "pmoctree.cache", "pmoctree",
      {{"hits", static_cast<double>(cache_.stats().hits)},
       {"misses", static_cast<double>(cache_.stats().misses)},
       {"evictions", static_cast<double>(cache_.stats().evictions)},
       {"invalidations", static_cast<double>(cache_.stats().invalidations)},
       {"cursor_reuse", static_cast<double>(cursor_reuse_)}});
  // Library sampling point: a persist is the natural epoch boundary for
  // metric time-series (driver-thread gated; no-op without a sampler).
  telemetry::timeseries::tick_point();
  return stats;
}

void PmOctree::collect_reachable_nvbm(
    NodeRef root, std::unordered_set<std::uint64_t>& out) {
  if (root.null()) return;
  std::vector<NodeRef> stack{root};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    if (ref.in_nvbm()) {
      if (!out.insert(ref.nvbm_offset()).second) continue;
    }
    const PNode node = ref.in_dram()
                           ? *ref.dram_ptr()
                           : nv_load(ref.nvbm_offset());
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      if (!c.null()) stack.push_back(c);
    }
  }
}

std::size_t PmOctree::drain_retired() {
  // Epoch-based reclamation: an entry is blocked while some pinned epoch
  // p has birth <= p < death — that reader's version still holds it.
  const auto pinned = registry_->pinned_roots();  // ascending epochs
  const auto blocked = [&](const Retired& r) {
    const auto it = std::lower_bound(pinned.begin(), pinned.end(),
                                     std::make_pair(r.birth, std::uint64_t{0}));
    return it != pinned.end() && it->first < r.death;
  };
  std::vector<std::uint64_t> batch;
  std::size_t kept = 0;
  for (const Retired& r : retired_) {
    if (blocked(r)) {
      retired_[kept++] = r;
    } else {
      batch.push_back(r.off);
    }
  }
  retired_.resize(kept);
  // Ascending offsets, like a heap sweep: the free lists — and so every
  // later allocation offset — are those a full mark-and-sweep would give.
  std::sort(batch.begin(), batch.end());
  for (const std::uint64_t off : batch) nv_free(off);
  return reclaimed(batch.size());
}

std::size_t PmOctree::gc() {
  recovery_gc_ = false;
  std::unordered_set<std::uint64_t> live;
  collect_reachable_nvbm(prev_root_, live);
  collect_reachable_nvbm(cur_root_, live);
  // Epoch-based reclamation: every version a reader still pins stays
  // fully live.
  for (const auto& [epoch, root] : registry_->pinned_roots()) {
    (void)epoch;
    collect_reachable_nvbm(NodeRef::nvbm(root), live);
  }
  // The sweep frees offsets behind the node accessor's back and the heap
  // may hand them out again within this epoch — invalidate exactly the
  // swept offsets so the surviving working set keeps its hit rate across
  // the persist (the cache is restamped, not cleared, at epoch bumps).
  const std::size_t freed = heap_.sweep([&](std::uint64_t off) {
    const bool is_live = live.count(off) != 0;
    if (!is_live) {
      if (cache_.invalidate(off)) tm_.cache_invalidations->add();
      if (!born_late_.empty()) born_late_.erase(off);
    }
    return is_live;
  });
  // Entries the sweep kept are reachable from a pinned version (or,
  // mid-epoch, V_{i-1}).
  std::erase_if(retired_,
                [&](const Retired& r) { return !heap_.is_allocated(r.off); });
  return reclaimed(freed);
}

std::size_t PmOctree::reclaimed(std::size_t freed) {
  // Pin-only retention is exactly the pin-blocked retire entries.
  deferred_nodes_ = retired_.size();
  if (deferred_nodes_ > deferred_hwm_) deferred_hwm_ = deferred_nodes_;
  ++structure_version_;
  tm_.gc_sweeps->add();
  tm_.gc_freed->add(freed);
  telemetry::trace::instant("pmoctree.gc", "pmoctree",
                            {{"freed", static_cast<double>(freed)}});
  return freed;
}

SnapshotHandle PmOctree::pin_snapshot() {
  SnapshotRegistry::Pinned pin;
  PMO_CHECK_MSG(registry_->pin_latest(pin),
                "pin_snapshot: no persisted version to pin (run persist() "
                "or restore() first)");
  return SnapshotHandle(registry_, &device(), pin);
}

void PmOctree::destroy() {
  PMO_CHECK_MSG(registry_->pin_count() == 0,
                "pm_delete with live snapshot pins — release every "
                "SnapshotHandle before destroying the tree");
  registry_->publish(0, 0, 0);
  retired_.clear();
  born_late_.clear();
  recovery_gc_ = false;
  deferred_nodes_ = 0;
  tm_.cache_invalidations->add(cache_.clear());
  cursors_.clear();
  ++structure_version_;
  dram_pool_.clear();
  dram_free_.clear();
  twins_.clear();
  dram_node_count_ = 0;
  logical_nodes_ = 0;
  cur_root_ = NodeRef{};
  prev_root_ = NodeRef{};
  heap_.set_root(kPrevRootSlot, 0);
  heap_.set_root(kEpochSlot, 0);
  heap_.set_root(kNodeCountSlot, 0);
  heap_.sweep([](std::uint64_t) { return false; });
  c0_set_.clear();
  heat_.clear();
}

// ---------------------------------------------------------------------------
// dynamic layout transformation (§3.3)
// ---------------------------------------------------------------------------

NodeRef PmOctree::dramify(NodeRef ref, std::size_t* moved,
                          std::size_t node_limit) {
  if (ref.null()) return ref;
  if (*moved >= node_limit) return ref;
  if (ref.in_dram()) {
    charge_dram_read();
    PNode node = *ref.dram_ptr();
    bool changed = false;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      const NodeRef nc = dramify(c, moved, node_limit);
      if (!(nc == c)) {
        node.set_child(i, nc);
        changed = true;
      }
    }
    if (changed) write_node(ref, node);
    return ref;
  }
  PNode node = nv_load(ref.nvbm_offset());
  const bool shared = node.epoch != epoch_;
  PNode copy = node;
  for (int i = 0; i < kChildrenPerNode; ++i)
    copy.set_child(i, dramify(copy.child_ref(i), moved, node_limit));
  if (dram_bytes() >= config_.dram_budget_bytes) return ref;
  // Place the copy in DRAM (force: this is the transformation's purpose).
  PNode* slot = take_dram_slot();
  if (shared) {
    // The original stays as V_{i-1}'s copy AND becomes the DRAM node's
    // durable twin: the octant is unchanged, only its residence moved, so
    // the next persist can keep sharing it.
    twins_[slot] = Twin{ref.nvbm_offset(),
                        birth_of(ref.nvbm_offset(), node.epoch)};
  } else {
    // Private original: the DRAM copy simply replaces it.
    copy.epoch = epoch_;
    nv_free(ref.nvbm_offset());
  }
  *slot = copy;
  charge_dram_write();
  const NodeRef nref = NodeRef::dram(slot);
  ++(*moved);
  return nref;
}

void PmOctree::relayout(const LocCode& id, bool to_dram, std::size_t* moved,
                        std::size_t node_limit) {
  Path path;
  if (!descend(id, path)) return;
  const std::size_t i = path.size() - 1;
  if (i > 0) make_mutable(path, i - 1);
  const NodeRef nref = to_dram ? dramify(path[i].ref, moved, node_limit)
                               : nvbmify(path[i].ref, moved);
  if (i == 0) {
    cur_root_ = nref;
  } else if (!(nref == path[i].ref)) {
    path[i - 1].node.set_child(id.child_index(), nref);
    write_node(path[i - 1].ref, path[i - 1].node);
  }
  if (to_dram) {
    c0_set_.insert(id);
  } else {
    c0_set_.erase(id);
  }
}

TransformStats PmOctree::maybe_transform() {
  if (features_.empty()) return {};
  SampleCensus census;
  collect_census(cur_root_, census);
  return transform_with(census);
}

TransformStats PmOctree::transform_with(SampleCensus& buckets) {
  TransformStats out;
  if (features_.empty() || config_.dram_budget_bytes == 0) return out;
  if (subtree_level() <= 0) return out;
  out.subtrees_sampled = buckets.size();

  // Pre-execute the feature functions over each bucket's sample (§3.3
  // step 2-3): frequency = number of octants the application flags.
  auto frequency = [&](const SampleBucket& b) {
    std::size_t hits = 0;
    for (const auto& [code, data] : b.sample) {
      for (const auto& f : features_) {
        if (f(code, data)) {
          ++hits;
          break;
        }
      }
    }
    return hits;
  };

  // Rank every subtree by its sampled feature frequency.
  struct Ranked {
    LocCode id;
    std::size_t freq = 0;
    std::size_t size = 0;
    std::size_t dram = 0;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(buckets.size());
  for (auto& [id, b] : buckets) {
    out.octants_sampled += b.sample.size();
    ranked.push_back({id, frequency(b), b.size, b.dram});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.freq != b.freq) return a.freq > b.freq;
              return a.dram > b.dram;  // prefer already-resident on ties
            });

  // Plan the desired C0: the hottest subtrees that fit the DRAM budget.
  const std::size_t capacity = config_.dram_budget_bytes / kNodeSize;
  std::unordered_set<LocCode, LocCodeHash> desired;
  std::size_t planned = 0;
  std::size_t pull_freq = 0;  // strongest pending pull (Freq^NVBM)
  for (const auto& r : ranked) {
    if (r.freq == 0) break;
    if (planned + r.size > capacity) continue;  // try smaller hot buckets
    desired.insert(r.id);
    planned += r.size;
    if (r.dram < r.size) pull_freq = std::max(pull_freq, r.freq);
  }
  if (desired.empty()) return out;

  // Evict resident subtrees outside the plan when Ratio_access (hottest
  // pending pull vs the resident subtree) exceeds T_transform (§3.3).
  for (auto it = ranked.rbegin(); it != ranked.rend(); ++it) {  // asc freq
    if (it->dram == 0 || desired.count(it->id) != 0) continue;
    const double ratio = (static_cast<double>(pull_freq) + 1.0) /
                         (static_cast<double>(it->freq) + 1.0);
    out.best_ratio = std::max(out.best_ratio, ratio);
    if (ratio <= config_.t_transform) continue;
    relayout(it->id, /*to_dram=*/false, &out.evicted_to_nvbm, capacity);
  }
  // Pull the planned hot subtrees into DRAM (hottest first) until the
  // budget is reached; dramify itself stops allocating at the budget, so
  // the last pull may be partial. Never overshoot: that would put every
  // subsequent mutation through the eviction machinery.
  for (const auto& r : ranked) {
    if (dram_bytes() >= config_.dram_budget_bytes) break;
    if (desired.count(r.id) == 0 || r.dram == r.size) continue;
    relayout(r.id, /*to_dram=*/true, &out.moved_to_dram, capacity);
  }
  out.transformed = out.moved_to_dram > 0 || out.evicted_to_nvbm > 0;
  if (out.transformed) tm_.transform_runs->add();
  tm_.transform_moved_to_dram->add(out.moved_to_dram);
  tm_.transform_evicted_to_nvbm->add(out.evicted_to_nvbm);
  if (out.transformed) {
    telemetry::trace::instant(
        "pmoctree.transform", "pmoctree",
        {{"moved_to_dram", static_cast<double>(out.moved_to_dram)},
         {"evicted_to_nvbm", static_cast<double>(out.evicted_to_nvbm)}});
  }
  return out;
}

void PmOctree::enforce_dram_budget() {
  if (dram_bytes() <= config_.dram_budget_bytes) return;
  const int lsub = subtree_level();
  // Tally DRAM nodes per subtree id.
  std::unordered_map<LocCode, std::size_t, LocCodeHash> counts;
  std::vector<NodeRef> stack{cur_root_};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node =
        ref.in_dram() ? *ref.dram_ptr()
                      : nv_load(ref.nvbm_offset());
    if (ref.in_dram() && node.code.level() >= lsub)
      ++counts[node.code.ancestor_at(lsub)];
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      if (!c.null()) stack.push_back(c);
    }
  }
  // Evict coldest first (the paper's least-frequently-accessed policy).
  std::vector<std::pair<double, LocCode>> order;
  order.reserve(counts.size());
  for (const auto& [id, n] : counts) {
    const auto it = heat_.find(id);
    order.emplace_back(it == heat_.end() ? 0.0 : it->second, id);
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [h, id] : order) {
    if (dram_bytes() <= config_.dram_budget_bytes) break;
    std::size_t moved = 0;
    relayout(id, /*to_dram=*/false, &moved, 0);
    if (moved > 0) {
      ++eviction_merges_;
      tm_.evictions->add();
    }
  }
}

// ---------------------------------------------------------------------------
// accounting
// ---------------------------------------------------------------------------

PmStats PmOctree::stats() {
  PmStats s;
  std::unordered_set<std::uint64_t> nvbm_union;
  std::vector<NodeRef> stack{cur_root_};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node =
        ref.in_dram() ? *ref.dram_ptr()
                      : nv_load(ref.nvbm_offset());
    ++s.nodes;
    if (node.is_leaf()) ++s.leaves;
    if (ref.in_dram()) {
      ++s.dram_nodes;
    } else {
      ++s.nvbm_nodes_vi;
      nvbm_union.insert(ref.nvbm_offset());
    }
    s.depth = std::max(s.depth, node.code.level());
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      if (!c.null()) stack.push_back(c);
    }
  }
  collect_reachable_nvbm(prev_root_, nvbm_union);
  s.unique_physical_nodes = s.dram_nodes + nvbm_union.size();
  s.nvbm_live_bytes = nvbm_union.size() * kNodeSize;
  s.dram_bytes = dram_bytes();
  depth_ = std::max(depth_, s.depth);
  return s;
}

std::uint64_t PmOctree::modeled_ns() const {
  return dram_.modeled_ns() + heap_.device().counters().modeled_ns();
}

void PmOctree::reset_counters() {
  dram_ = DramCounters{};
  device().reset_counters();
}

}  // namespace pmo::pmoctree
