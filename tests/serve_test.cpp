// Snapshot serving & epoch-based reclamation tests.
//
// The serving contract under test: a SnapshotHandle pins a persisted
// epoch so (1) every query result from src/serve is correct against the
// pinned image, (2) no node reachable from a pinned epoch is freed,
// tombstoned or overwritten by the concurrent mutator — persist()
// defers tombstone marking and gc() keeps pinned-reachable nodes live —
// and (3) reader results and modeled charges are bit-identical across
// thread counts (the determinism contract). The concurrent stress test
// here is part of the tsan_smoke gate.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "exec/pool.hpp"
#include "pmoctree/pm_octree.hpp"
#include "serve/reader.hpp"

namespace pmo::serve {
namespace {

using pmoctree::PmConfig;
using pmoctree::PmOctree;
using pmoctree::PNode;

nvbm::Config quiet_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kNone;
  return c;
}

nvbm::Config crash_cfg() {
  nvbm::Config c = quiet_cfg();
  c.crash_sim = true;
  return c;
}

CellData cell(double vof) {
  CellData d;
  d.vof = vof;
  return d;
}

/// (key | level<<60) -> vof: the logical-content map every comparison
/// here uses (never NVBM offsets).
using LeafMap = std::map<std::uint64_t, double>;

std::uint64_t leaf_key(const LocCode& c) {
  return c.key() | (static_cast<std::uint64_t>(c.level()) << 60);
}

LeafMap leaves_of(PmOctree& tree) {
  LeafMap out;
  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    out[leaf_key(c)] = d.vof;
  });
  return out;
}

/// Whole-domain box.
Box domain() {
  Box b;
  for (int i = 0; i < 3; ++i) {
    b.lo[i] = 0;
    b.hi[i] = (std::uint32_t{1} << kMaxLevel) - 1;
  }
  return b;
}

LeafMap query_all(Reader& r) {
  LeafMap out;
  r.query_box(domain(), [&](const Leaf& l) { out[leaf_key(l.code)] = l.data.vof; });
  return out;
}

/// Applies `steps` random structural+data mutations.
void mutate_randomly(PmOctree& tree, Rng& rng, int steps) {
  for (int s = 0; s < steps; ++s) {
    std::vector<LocCode> leaves;
    tree.for_each_leaf(
        [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
    const auto& victim =
        leaves[static_cast<std::size_t>(rng.below(leaves.size()))];
    const auto action = rng.below(3);
    if (action == 0 && victim.level() < 5) {
      tree.refine(victim);
    } else if (action == 1 && victim.level() > 1) {
      bool all_leaves = true;
      for (int i = 0; i < kChildrenPerNode && all_leaves; ++i) {
        const auto sib = victim.parent().child(i);
        all_leaves = tree.contains(sib) &&
                     tree.leaf_containing(sib.child(0)) == sib;
      }
      if (all_leaves) tree.coarsen(victim.parent());
    } else {
      tree.update(victim, cell(rng.uniform()));
    }
  }
}

/// A small mixed-level tree: level-1 everywhere, one octant refined to 3.
void build_mixed(PmOctree& tree) {
  tree.refine(LocCode::root());
  tree.refine(LocCode::root().child(0));
  tree.refine(LocCode::root().child(0).child(7));
  tree.refine(LocCode::root().child(5));
  int i = 0;
  tree.for_each_leaf_mut([&](const LocCode&, CellData& d) {
    d.vof = 0.01 * ++i;
    return true;
  });
}

TEST(ServeReader, PointAndBoxQueriesMatchOwnerTraversal) {
  nvbm::Device dev(64 << 20, quiet_cfg());
  nvbm::Heap heap(dev);
  auto tree = PmOctree::create(heap, PmConfig{});
  build_mixed(tree);
  tree.persist();
  const LeafMap expect = leaves_of(tree);

  Reader reader(tree.pin_snapshot());
  EXPECT_EQ(query_all(reader), expect);

  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    const auto found = reader.find(c);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->vof, d.vof);
    // locate() of any descendant point resolves to the covering leaf.
    if (c.level() < kMaxLevel) {
      const Leaf l = reader.locate(c.child(3));
      EXPECT_EQ(l.code, c);
      EXPECT_EQ(l.data.vof, d.vof);
    }
    // The octant's children do not exist in the snapshot.
    if (c.level() < kMaxLevel) {
      EXPECT_FALSE(reader.find(c.child(0)).has_value());
    }
  });
  EXPECT_GT(reader.charges().node_loads, 0u);
  EXPECT_GT(reader.queries(), 0u);
}

/// Brute-force face adjacency: a and b share a face iff they are
/// plane-adjacent on one axis and their ranges overlap on the other two.
bool face_adjacent(const LocCode& a, const LocCode& b) {
  const Anchor aa = a.anchor(), ba = b.anchor();
  const std::uint32_t alo[3] = {aa.x, aa.y, aa.z};
  const std::uint32_t blo[3] = {ba.x, ba.y, ba.z};
  const std::uint32_t ae = a.extent(), be = b.extent();
  for (int n = 0; n < 3; ++n) {
    if (blo[n] != alo[n] + ae && alo[n] != blo[n] + be) continue;
    bool overlap = true;
    for (int t = 0; t < 3 && overlap; ++t) {
      if (t == n) continue;
      overlap = blo[t] <= alo[t] + ae - 1 && alo[t] <= blo[t] + be - 1;
    }
    if (overlap) return true;
  }
  return false;
}

TEST(ServeReader, FaceNeighborsAndInterfaceMatchBruteForce) {
  nvbm::Device dev(64 << 20, quiet_cfg());
  nvbm::Heap heap(dev);
  auto tree = PmOctree::create(heap, PmConfig{});
  build_mixed(tree);
  tree.persist();
  std::vector<LocCode> all;
  tree.for_each_leaf(
      [&](const LocCode& c, const CellData&) { all.push_back(c); });

  Reader reader(tree.pin_snapshot());
  std::size_t expect_facets = 0;
  for (const LocCode& a : all) {
    std::set<std::uint64_t> expect_nb;
    for (const LocCode& b : all) {
      if (!(a == b) && face_adjacent(a, b)) expect_nb.insert(leaf_key(b));
    }
    std::set<std::uint64_t> got;
    reader.face_neighbors(a, [&](const Leaf& l) { got.insert(leaf_key(l.code)); });
    EXPECT_EQ(got, expect_nb) << "leaf level " << a.level();
    for (const LocCode& b : all) {
      if (face_adjacent(a, b) && b.level() < a.level()) ++expect_facets;
    }
  }
  std::size_t got_facets = 0;
  reader.interface_facets(domain(), [&](const InterfaceFacet& f) {
    EXPECT_LT(f.coarse.code.level(), f.fine.code.level());
    EXPECT_TRUE(face_adjacent(f.fine.code, f.coarse.code));
    ++got_facets;
  });
  EXPECT_EQ(got_facets, expect_facets);
}

TEST(ServeSnapshot, ForEachLeafPrevUnifiedWithSnapshotTraversal) {
  nvbm::Device dev(64 << 20, quiet_cfg());
  nvbm::Heap heap(dev);
  auto tree = PmOctree::create(heap, PmConfig{});
  build_mixed(tree);
  tree.persist();

  LeafMap via_prev;
  tree.for_each_leaf_prev([&](const LocCode& c, const CellData& d) {
    via_prev[leaf_key(c)] = d.vof;
  });
  auto snap = tree.pin_snapshot();
  LeafMap via_snap;
  tree.for_each_leaf_snapshot(snap, [&](const LocCode& c, const CellData& d) {
    via_snap[leaf_key(c)] = d.vof;
  });
  EXPECT_EQ(via_prev, via_snap);
  EXPECT_EQ(via_prev, leaves_of(tree));

  // The pinned epoch stays traversable (and identical) after the head
  // moves on — for_each_leaf_prev alone can no longer see it.
  tree.refine_where([](const LocCode& c, const CellData&) {
    return c.level() < 2;
  });
  tree.persist();
  LeafMap after;
  tree.for_each_leaf_snapshot(snap, [&](const LocCode& c, const CellData& d) {
    after[leaf_key(c)] = d.vof;
  });
  EXPECT_EQ(after, via_snap);
}

TEST(ServeSnapshot, PinKeepsNodesAcrossGcAndReclaimsAfterRelease) {
  nvbm::Device dev(64 << 20, quiet_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 16 * sizeof(PNode);  // heavy NVBM traffic
  auto tree = PmOctree::create(heap, pm);
  tree.refine_where([](const LocCode& c, const CellData&) {
    return c.level() < 3;
  });
  int i = 0;
  tree.for_each_leaf_mut([&](const LocCode&, CellData& d) {
    d.vof = 0.001 * ++i;
    return true;
  });
  tree.persist();

  auto snap = tree.pin_snapshot();
  ReaderConfig uncached;
  uncached.cache_bytes = 0;  // every load re-reads device bytes
  LeafMap before;
  {
    Reader r(snap, uncached);
    before = query_all(r);
  }

  // Coarsen the world away and keep persisting: without the pin, gc
  // would free the level-3 subtrees the snapshot still references.
  tree.coarsen_where(
      [](const LocCode& c, const CellData&) { return c.level() >= 1; });
  tree.persist();
  tree.update(tree.leaf_containing(LocCode::root().child(0).child(0)),
              cell(0.5));
  tree.persist();
  EXPECT_GT(tree.deferred_reclaim_high_water(), 0u)
      << "gc never had to retain pin-only nodes";
  EXPECT_GT(tree.deferred_reclaim_nodes(), 0u);

  LeafMap after;
  {
    Reader r(snap, uncached);
    after = query_all(r);
  }
  EXPECT_EQ(after, before) << "pinned snapshot changed under gc";

  // Release the pin: the next persist's gc reclaims the backlog.
  snap.release();
  EXPECT_EQ(tree.pinned_epochs(), 0u);
  tree.update(tree.leaf_containing(LocCode::root().child(0).child(0)),
              cell(0.25));
  tree.persist();
  EXPECT_EQ(tree.deferred_reclaim_nodes(), 0u);
}

/// Raw device bytes of every node of the version rooted at `root`.
std::map<std::uint64_t, std::vector<std::byte>> version_image(
    nvbm::Device& dev, std::uint64_t root) {
  std::map<std::uint64_t, std::vector<std::byte>> image;
  std::vector<std::uint64_t> stack{root};
  while (!stack.empty()) {
    const std::uint64_t off = stack.back();
    stack.pop_back();
    const std::byte* raw = dev.raw(off, sizeof(PNode));
    image[off].assign(raw, raw + sizeof(PNode));
    PNode node;
    std::memcpy(&node, raw, sizeof(PNode));
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const auto c = node.child_ref(i);
      if (c.in_nvbm()) stack.push_back(c.nvbm_offset());
    }
  }
  return image;
}

TEST(ServeSnapshot, TombstoningDeferredWhilePinned) {
  nvbm::Device dev(64 << 20, quiet_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // the dropped subtrees are shared NVBM nodes
  auto tree = PmOctree::create(heap, pm);
  tree.refine_where([](const LocCode& c, const CellData&) {
    return c.level() < 2;
  });
  tree.persist();

  auto snap = tree.pin_snapshot();
  const auto image = version_image(dev, snap.root_offset());
  LeafMap pinned_view;
  tree.for_each_leaf_snapshot(snap, [&](const LocCode& c, const CellData& d) {
    pinned_view[leaf_key(c)] = d.vof;
  });

  // Drop shared subtrees while the pin is live: neither the tombstone
  // write nor the reclamation may touch a single pinned byte.
  tree.coarsen_where(
      [](const LocCode& c, const CellData&) { return c.level() >= 1; });
  const auto while_pinned = tree.persist();
  EXPECT_EQ(while_pinned.gc_freed, 0u)
      << "reclaimed an object the pinned epoch still reaches";
  EXPECT_GT(tree.deferred_reclaim_nodes(), 0u);
  EXPECT_EQ(version_image(dev, snap.root_offset()), image)
      << "a pinned byte changed";
  LeafMap still;
  tree.for_each_leaf_snapshot(snap, [&](const LocCode& c, const CellData& d) {
    still[leaf_key(c)] = d.vof;
  });
  EXPECT_EQ(still, pinned_view);

  // Release; the backlog drains at the next persist.
  const auto deferred = tree.deferred_reclaim_nodes();
  snap.release();
  tree.update(tree.leaf_containing(LocCode::root().child(0).child(0)),
              cell(0.125));
  const auto after_release = tree.persist();
  EXPECT_GE(after_release.gc_freed, deferred);
  EXPECT_EQ(tree.deferred_reclaim_nodes(), 0u);
}

TEST(ServeConcurrency, ReadersRaceMutatorWithByteStableResults) {
  nvbm::Device dev(std::size_t{128} << 20, quiet_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 32 * sizeof(PNode);
  auto tree = PmOctree::create(heap, pm);
  tree.refine_where([](const LocCode& c, const CellData&) {
    return c.level() < 2;
  });
  tree.persist();

  constexpr int kLanes = 3;
  constexpr int kMutatorIters = 12;
  exec::ThreadPool pool(1 + kLanes);
  std::atomic<bool> done{false};
  std::vector<exec::ThreadPool::Task> tasks;
  tasks.push_back([&] {
    Rng rng(42);
    for (int it = 0; it < kMutatorIters; ++it) {
      mutate_randomly(tree, rng, 6);
      tree.persist();  // publish + gc, with readers pinned
    }
    done.store(true, std::memory_order_release);
  });
  for (int lane = 0; lane < kLanes; ++lane) {
    tasks.push_back([&, lane] {
      bool first = true;
      int batches = 0;
      while (first || !done.load(std::memory_order_acquire)) {
        first = false;
        auto snap = tree.pin_snapshot();
        ReaderConfig cfg;
        cfg.cache_bytes = lane == 0 ? 0 : std::size_t{64} << 10;
        Reader a(snap, cfg);
        Reader b(snap, cfg);
        // Two independent passes over the same pinned epoch must agree
        // bit-for-bit no matter what the mutator does meanwhile.
        const LeafMap pass1 = query_all(a);
        const LeafMap pass2 = query_all(b);
        ASSERT_EQ(pass1, pass2) << "lane " << lane;
        ASSERT_FALSE(pass1.empty());
        ++batches;
      }
      EXPECT_GE(batches, 1);
    });
  }
  pool.run_tasks(tasks);
  EXPECT_EQ(tree.pinned_epochs(), 0u);
  // With every pin released, the backlog drains.
  tree.update(tree.leaf_containing(LocCode::root().child(0).child(0)),
              cell(0.75));
  tree.persist();
  EXPECT_EQ(tree.deferred_reclaim_nodes(), 0u);
}

TEST(ServeConcurrency, VerifySweepBitIdenticalAcrossThreadCounts) {
  nvbm::Device dev(64 << 20, quiet_cfg());
  nvbm::Heap heap(dev);
  auto tree = PmOctree::create(heap, PmConfig{});
  build_mixed(tree);
  tree.persist();

  constexpr std::size_t kLanes = 4;
  const auto sweep = [&](int threads) {
    exec::ThreadPool pool(threads);
    std::vector<LeafMap> results(kLanes);
    std::vector<ReadCharges> charges(kLanes);
    pool.parallel_for(kLanes, [&](std::size_t lane) {
      Reader r(tree.pin_snapshot());
      // A fixed per-lane stream: the box shrinks with the lane index.
      Box b = domain();
      for (std::size_t i = 0; i <= lane; ++i) {
        b.hi[0] >>= 1;
        r.query_box(b, [&](const Leaf& l) {
          results[lane][leaf_key(l.code)] = l.data.vof;
        });
        r.face_neighbors(LocCode::root().child(0).child(1),
                         [&](const Leaf&) {});
      }
      charges[lane] = r.charges();
    });
    return std::make_pair(results, charges);
  };
  const auto seq = sweep(1);
  const auto par = sweep(4);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(seq.first[lane], par.first[lane]) << "lane " << lane;
    EXPECT_EQ(seq.second[lane].node_loads, par.second[lane].node_loads);
    EXPECT_EQ(seq.second[lane].cached_loads, par.second[lane].cached_loads);
    EXPECT_EQ(seq.second[lane].lines_read, par.second[lane].lines_read);
    EXPECT_EQ(seq.second[lane].modeled_ns, par.second[lane].modeled_ns);
  }
}

TEST(ServeCrash, CrashMidPersistWithPinnedReadersRestoresCleanly) {
  Rng rng(2026);
  nvbm::Device dev(64 << 20, crash_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 16 * sizeof(PNode);
  LeafMap persisted;
  {
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    mutate_randomly(tree, rng, 15);
    tree.persist();
    persisted = leaves_of(tree);

    auto snap = tree.pin_snapshot();
    ReaderConfig uncached;
    uncached.cache_bytes = 0;
    {
      Reader r(snap, uncached);
      EXPECT_EQ(query_all(r), persisted);
    }

    // Mutate toward the next persist, then die before its root swap —
    // with the pin live the whole way, so none of the dying writes may
    // have landed in pinned bytes.
    mutate_randomly(tree, rng, 12);
    dev.simulate_crash(rng, rng.uniform());

    // The pinned epoch is durable (persist flushed it): byte-stable
    // straight through the crash.
    {
      Reader r(snap, uncached);
      EXPECT_EQ(query_all(r), persisted);
    }
  }

  nvbm::Heap heap2(dev);
  ASSERT_TRUE(PmOctree::can_restore(heap2));
  auto back = PmOctree::restore(heap2, pm);
  EXPECT_EQ(leaves_of(back), persisted);
  // Restore republishes the durable epoch: it is pinnable immediately.
  auto snap = back.pin_snapshot();
  Reader r(snap);
  EXPECT_EQ(query_all(r), persisted);
}

}  // namespace
}  // namespace pmo::serve
