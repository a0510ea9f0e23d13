#include "serve/reader.hpp"

#include <cstring>
#include <utility>

#include "nvbm/device.hpp"

namespace pmo::serve {

namespace {
constexpr std::size_t kNodeSize = sizeof(pmoctree::PNode);

/// -x,+x,-y,+y,-z,+z — the face order every neighbor API here reports.
constexpr int kFaceDirs[6][3] = {{-1, 0, 0}, {1, 0, 0},  {0, -1, 0},
                                 {0, 1, 0},  {0, 0, -1}, {0, 0, 1}};

/// The 1-cell-thick (finest-grid) slab adjacent to face `f` of `code`:
/// the exact region every face neighbor — same size, coarser, or finer —
/// must intersect. False when the face lies on the domain boundary.
bool face_slab(const LocCode& code, int f, Box& out) noexcept {
  const Anchor a = code.anchor();
  const std::uint32_t e = code.extent();
  const std::uint32_t max = (std::uint32_t{1} << kMaxLevel) - 1;
  const std::uint32_t av[3] = {a.x, a.y, a.z};
  for (int ax = 0; ax < 3; ++ax) {
    const int d = kFaceDirs[f][ax];
    if (d == 0) {
      out.lo[ax] = av[ax];
      out.hi[ax] = av[ax] + e - 1;
    } else if (d < 0) {
      if (av[ax] == 0) return false;
      out.lo[ax] = out.hi[ax] = av[ax] - 1;
    } else {
      if (av[ax] + e > max) return false;
      out.lo[ax] = out.hi[ax] = av[ax] + e;
    }
  }
  return true;
}
}  // namespace

Reader::Reader(pmoctree::SnapshotHandle snap, ReaderConfig cfg)
    : snap_(std::move(snap)),
      cache_(cfg.cache_bytes) {
  PMO_CHECK_MSG(snap_.valid(),
                "serve::Reader requires a valid (pinned) SnapshotHandle");
  const auto& dc = snap_.device().config();
  const bool timed = dc.latency_mode != nvbm::LatencyMode::kNone;
  read_ns_ = timed ? dc.read_ns : 0;
  dram_read_ns_ = timed ? dc.dram_read_ns : 0;
  lines_per_node_ = (kNodeSize + dc.cache_line - 1) / dc.cache_line;
  auto& reg = telemetry::Registry::global();
  q_point_ = &reg.counter("serve.queries.point");
  q_box_ = &reg.counter("serve.queries.box");
  q_neighbors_ = &reg.counter("serve.queries.neighbors");
  q_interface_ = &reg.counter("serve.queries.interface");
}

void Reader::rebind(pmoctree::SnapshotHandle snap) {
  PMO_CHECK_MSG(snap.valid(), "serve::Reader rebind to a released handle");
  // The private cache survives: entries are stamped with the epoch they
  // were read under, so anything from the previous snapshot misses and
  // gets re-read. Offsets reused by the heap after an unpin+gc can only
  // carry a NEWER epoch's node, never a stale stamp hit.
  snap_ = std::move(snap);
}

void Reader::count_query(telemetry::Counter* c) {
  ++queries_;
  if (c != nullptr) c->add();
}

pmoctree::PNode Reader::load(std::uint64_t offset) {
  const std::uint32_t stamp = snap_.epoch();
  if (cache_.capacity() != 0) {
    if (const pmoctree::PNode* hit = cache_.lookup(offset, stamp)) {
      ++charges_.cached_loads;
      charges_.modeled_ns += lines_per_node_ * dram_read_ns_;
      return *hit;
    }
  }
  pmoctree::PNode node;
  // Device::raw is a bounds check + pointer: no counter mutation, so the
  // concurrent-reader contract holds. The pin guarantees the mutator
  // never writes these bytes, making the memcpy race-free.
  std::memcpy(&node, snap_.device().raw(offset, kNodeSize), kNodeSize);
  ++charges_.node_loads;
  // Charged per-node, not per physical offset: a node's line span depends
  // on the allocation's alignment, and heap layout legitimately diverges
  // between runs (GC timing vs live pins). The fixed ceil(node/line)
  // charge keeps reader accounting a pure function of the query stream —
  // the bench's bit-identity surface.
  charges_.lines_read += lines_per_node_;
  charges_.modeled_ns += lines_per_node_ * read_ns_;
  if (cache_.capacity() != 0) cache_.insert(offset, node, stamp);
  return node;
}

pmoctree::PNode Reader::root() { return load(snap_.root_offset()); }

Leaf Reader::locate(const LocCode& code) {
  count_query(q_point_);
  pmoctree::PNode node = root();
  while (!node.is_leaf() && node.code.level() < code.level()) {
    const LocCode next = code.ancestor_at(node.code.level() + 1);
    const pmoctree::NodeRef c = node.child_ref(next.child_index());
    if (c.null()) break;  // partial sibling group: this node covers code
    node = load(c.nvbm_offset());
  }
  return {node.code, node.data};
}

std::optional<CellData> Reader::find(const LocCode& code) {
  count_query(q_point_);
  pmoctree::PNode node = root();
  while (node.code.level() < code.level()) {
    if (node.is_leaf()) return std::nullopt;
    const LocCode next = code.ancestor_at(node.code.level() + 1);
    const pmoctree::NodeRef c = node.child_ref(next.child_index());
    if (c.null()) return std::nullopt;
    node = load(c.nvbm_offset());
  }
  if (node.code == code) return node.data;
  return std::nullopt;
}

std::size_t Reader::query_box(const Box& box,
                              const std::function<void(const Leaf&)>& fn) {
  count_query(q_box_);
  return box_walk(box, fn);
}

std::size_t Reader::box_walk(const Box& box,
                             const std::function<void(const Leaf&)>& fn) {
  std::size_t n = 0;
  if (!box.intersects(Anchor{}, std::uint32_t{1} << kMaxLevel)) return 0;
  std::vector<pmoctree::NodeRef> stack{
      pmoctree::NodeRef::nvbm(snap_.root_offset())};
  while (!stack.empty()) {
    const pmoctree::NodeRef ref = stack.back();
    stack.pop_back();
    const pmoctree::PNode node = load(ref.nvbm_offset());
    if (node.is_leaf()) {
      fn(Leaf{node.code, node.data});
      ++n;
      continue;
    }
    // Children are pruned by their (computable) codes before loading, in
    // reverse so the pop order is Morton pre-order — deterministic.
    for (int i = kChildrenPerNode - 1; i >= 0; --i) {
      const pmoctree::NodeRef c = node.child_ref(i);
      if (c.null()) continue;
      const LocCode cc = node.code.child(i);
      if (box.intersects(cc.anchor(), cc.extent())) stack.push_back(c);
    }
  }
  return n;
}

std::size_t Reader::face_neighbors(
    const LocCode& leaf, const std::function<void(const Leaf&)>& fn) {
  count_query(q_neighbors_);
  std::size_t n = 0;
  for (int f = 0; f < 6; ++f) {
    Box slab;
    if (!face_slab(leaf, f, slab)) continue;
    n += box_walk(slab, fn);
  }
  return n;
}

std::size_t Reader::interface_facets(
    const Box& box, const std::function<void(const InterfaceFacet&)>& fn) {
  count_query(q_interface_);
  std::vector<Leaf> leaves;
  box_walk(box, [&](const Leaf& l) { leaves.push_back(l); });
  std::size_t n = 0;
  for (const Leaf& l : leaves) {
    for (int f = 0; f < 6; ++f) {
      Box slab;
      if (!face_slab(l.code, f, slab)) continue;
      box_walk(slab, [&](const Leaf& nb) {
        // Reported from the fine side only, so each facet appears once.
        if (nb.code.level() < l.code.level()) {
          fn(InterfaceFacet{l, nb, f});
          ++n;
        }
      });
    }
  }
  return n;
}

}  // namespace pmo::serve
