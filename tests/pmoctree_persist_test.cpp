// Versioning and persistence semantics: copy-on-write isolation between
// V_{i-1} and V_i, overlap accounting, GC, restore.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pmoctree/pm_octree.hpp"

namespace pmo::pmoctree {
namespace {

nvbm::Config dev_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kModeled;
  return c;
}

struct Fixture {
  explicit Fixture(PmConfig pm = PmConfig{}, std::size_t cap = 128 << 20)
      : device(cap, dev_cfg()), heap(device), config(pm) {}
  nvbm::Device device;
  nvbm::Heap heap;
  PmConfig config;
};

CellData cell(double vof, double tracer = 0.0) {
  CellData d;
  d.vof = vof;
  d.tracer = tracer;
  return d;
}

std::map<std::uint64_t, double> snapshot_prev(PmOctree& tree) {
  std::map<std::uint64_t, double> out;
  tree.for_each_leaf_prev([&](const LocCode& c, const CellData& d) {
    out[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = d.vof;
  });
  return out;
}

std::map<std::uint64_t, double> snapshot_cur(PmOctree& tree) {
  std::map<std::uint64_t, double> out;
  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    out[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = d.vof;
  });
  return out;
}

TEST(Persist, FirstPersistCreatesPreviousVersion) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 1, 1, 1), cell(0.5));
  EXPECT_FALSE(tree.has_prev_version());
  const auto stats = tree.persist();
  EXPECT_TRUE(tree.has_prev_version());
  EXPECT_EQ(stats.nodes_shared, 0u);  // nothing could be shared yet
  EXPECT_GT(stats.nodes_total, 0u);
  // The persisted version lives entirely in NVBM; the working version may
  // keep its hot octants in DRAM (the C0 tree is sticky across persists).
  EXPECT_TRUE(tree.previous_root().in_nvbm());
  std::size_t prev_leaves = 0;
  tree.for_each_leaf_prev(
      [&](const LocCode&, const CellData&) { ++prev_leaves; });
  EXPECT_EQ(prev_leaves, tree.leaf_count());
}

TEST(Persist, MergeWritesDurableTwinsForDramNodes) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(3, 2, 4, 6), cell(0.9));
  const auto dram_before = tree.stats().dram_nodes;
  EXPECT_GT(dram_before, 0u);
  const auto stats = tree.persist();
  // Every DRAM octant got an NVBM twin...
  EXPECT_EQ(stats.merged_from_dram, dram_before);
  // ...while the working copies stayed resident in DRAM (sticky C0).
  const auto s = tree.stats();
  EXPECT_EQ(s.dram_nodes, dram_before);
  // The persisted version is fully NVBM: restoring sees every octant.
  auto back = PmOctree::restore(fx.heap, fx.config);
  EXPECT_EQ(back.node_count(), s.nodes);
}

TEST(Persist, PreviousVersionImmuneToNewMutations) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(2, 1, 2, 3);
  tree.insert(code, cell(0.25));
  tree.persist();
  const auto before = snapshot_prev(tree);

  // Mutate V_i heavily: update, refine elsewhere, remove a subtree.
  tree.update(code, cell(0.99));
  tree.refine(LocCode::from_grid(1, 0, 0, 0));
  tree.coarsen(code.parent());

  EXPECT_EQ(snapshot_prev(tree), before);  // V_{i-1} is untouched
  EXPECT_NE(snapshot_cur(tree), before);
}

TEST(Persist, UpdateOfSharedOctantIsCopyOnWrite) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(1, 1, 1, 1);
  tree.insert(code, cell(0.4));
  tree.persist();
  tree.update(code, cell(0.8));
  // Both versions observable with their own values.
  double prev_val = -1.0;
  tree.for_each_leaf_prev([&](const LocCode& c, const CellData& d) {
    if (c == code) prev_val = d.vof;
  });
  EXPECT_DOUBLE_EQ(prev_val, 0.4);
  EXPECT_DOUBLE_EQ(tree.find(code)->vof, 0.8);
}

TEST(Persist, InPlaceUpdateForPrivateNodes) {
  // A node created after the last persist is private: updating it twice
  // must not allocate more NVBM objects.
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // all NVBM, the interesting tier
  Fixture fx(pm);
  auto tree = PmOctree::create(fx.heap, pm);
  const auto code = LocCode::from_grid(2, 3, 2, 1);
  tree.insert(code, cell(0.1));
  const auto live_before = fx.heap.stats().live_objects;
  tree.update(code, cell(0.2));
  tree.update(code, cell(0.3));
  EXPECT_EQ(fx.heap.stats().live_objects, live_before);
  EXPECT_DOUBLE_EQ(tree.find(code)->vof, 0.3);
}

TEST(Persist, OverlapRatioReflectsSharing) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  for (int i = 0; i < 8; ++i)
    tree.insert(LocCode::root().child(i), cell(0.1 * i));
  tree.persist();
  // Touch exactly one leaf; everything else stays shared.
  tree.update(LocCode::root().child(0), cell(0.77));
  const auto stats = tree.persist();
  // 9 octants in V_i; the update copied child 0 and (by path copying) the
  // root, so 7 remain shared.
  EXPECT_EQ(stats.nodes_total, 9u);
  EXPECT_EQ(stats.nodes_shared, 7u);
  EXPECT_NEAR(stats.overlap_ratio, 7.0 / 9.0, 1e-12);
}

TEST(Persist, NoChangePersistIsNearlyFree) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 2, 2, 2), cell(0.5));
  tree.persist();
  const auto stats = tree.persist();  // nothing changed in between
  EXPECT_DOUBLE_EQ(stats.overlap_ratio, 1.0);
  EXPECT_EQ(stats.merged_from_dram, 0u);
  EXPECT_EQ(stats.delta_bytes, 0u);
}

TEST(Persist, SharedOctantsStoredOnce) {
  // Fig. 3's memory claim: two versions overlapping at ratio r cost far
  // less than two full copies. Run NVBM-only so version sharing is the
  // only storage mechanism in play.
  PmConfig pm;
  pm.dram_budget_bytes = 0;
  Fixture fx(pm);
  auto tree = PmOctree::create(fx.heap, pm);
  for (int i = 0; i < 8; ++i)
    tree.insert(LocCode::root().child(i).child(i), cell(0.1));
  tree.persist();
  const auto nodes = tree.node_count();
  tree.update(LocCode::root().child(0).child(0), cell(0.5));
  const auto s = tree.stats();
  // Unique physical nodes = V_i nodes + only the CoW'd path of V_{i-1}
  // (here: old root, old child0, old grandchild).
  EXPECT_EQ(s.nodes, nodes);
  EXPECT_EQ(s.unique_physical_nodes, nodes + 3);
}

TEST(Persist, GcReclaimsSupersededVersion) {
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // every octant a durable NVBM node
  Fixture fx(pm);
  auto tree = PmOctree::create(fx.heap, pm);
  const auto code = LocCode::from_grid(2, 0, 1, 0);
  tree.insert(code, cell(0.5));
  tree.persist();
  tree.update(code, cell(0.6));
  // The update CoW'd the root-to-leaf path; the sealing persist frees
  // exactly the superseded originals from its retire list.
  const auto stats = tree.persist();
  EXPECT_EQ(stats.gc_freed, static_cast<std::size_t>(code.level()) + 1);
  // All remaining objects are exactly the reachable set, so the full
  // collector finds nothing left to reclaim.
  EXPECT_EQ(fx.heap.stats().live_objects, tree.node_count());
  EXPECT_EQ(tree.gc(), 0u);
  EXPECT_EQ(fx.heap.stats().live_objects, tree.node_count());
}

TEST(Persist, AutoGcOnPersistKeepsHeapTight) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 1, 1, 0), cell(0.2));
  for (int step = 0; step < 10; ++step) {
    tree.update(LocCode::from_grid(2, 1, 1, 0),
                cell(0.2 + 0.05 * step));
    tree.persist();
  }
  // Two-version bound: live objects can never exceed 2x the tree size.
  EXPECT_LE(fx.heap.stats().live_objects, 2 * tree.node_count());
}

TEST(Persist, RestoreReturnsLastPersistedState) {
  Fixture fx;
  {
    auto tree = PmOctree::create(fx.heap, fx.config);
    tree.insert(LocCode::from_grid(2, 3, 1, 2), cell(0.42, 7.0));
    tree.persist();
    // Post-persist mutations that are NOT persisted:
    tree.update(LocCode::from_grid(2, 3, 1, 2), cell(0.99));
    tree.refine(LocCode::from_grid(1, 0, 0, 0));
  }  // "process exits" without persisting

  auto back = PmOctree::restore(fx.heap, fx.config);
  const auto v = back.find(LocCode::from_grid(2, 3, 1, 2));
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->vof, 0.42);
  EXPECT_DOUBLE_EQ(v->tracer, 7.0);
  // The unpersisted refinement of (1;0,0,0) is gone after restore.
  EXPECT_FALSE(back.contains(LocCode::from_grid(2, 0, 0, 0)));
}

TEST(Persist, RestoreIsO1InNodeReads) {
  Fixture fx;
  {
    auto tree = PmOctree::create(fx.heap, fx.config);
    for (int l = 0; l < 3; ++l)
      tree.refine_where(
          [](const LocCode&, const CellData&) { return true; });
    tree.persist();
  }
  fx.device.reset_counters();
  auto back = PmOctree::restore(fx.heap, fx.config);
  // Restoring must not traverse the tree: near-instantaneous recovery.
  EXPECT_LT(fx.device.counters().reads, 10u);
  EXPECT_TRUE(back.has_prev_version());
}

TEST(Persist, RestoreThenMutateCopiesOnWrite) {
  Fixture fx;
  {
    auto tree = PmOctree::create(fx.heap, fx.config);
    tree.insert(LocCode::from_grid(1, 1, 0, 0), cell(0.3));
    tree.persist();
  }
  auto back = PmOctree::restore(fx.heap, fx.config);
  back.update(LocCode::from_grid(1, 1, 0, 0), cell(0.6));
  double prev = -1;
  back.for_each_leaf_prev([&](const LocCode& c, const CellData& d) {
    if (c == LocCode::from_grid(1, 1, 0, 0)) prev = d.vof;
  });
  EXPECT_DOUBLE_EQ(prev, 0.3);
  EXPECT_DOUBLE_EQ(back.find(LocCode::from_grid(1, 1, 0, 0))->vof, 0.6);
}

TEST(Persist, RepeatedPersistRestoreCycles) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 2, 0, 2), cell(0.0));
  for (int step = 1; step <= 5; ++step) {
    tree.update(LocCode::from_grid(2, 2, 0, 2),
                cell(static_cast<double>(step)));
    tree.persist();
    auto probe = PmOctree::restore(fx.heap, fx.config);
    EXPECT_DOUBLE_EQ(probe.find(LocCode::from_grid(2, 2, 0, 2))->vof,
                     static_cast<double>(step));
  }
}

TEST(Persist, DeltaBytesTracksChangedNodes) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  for (int i = 0; i < 8; ++i)
    tree.insert(LocCode::root().child(i), cell(0.0));
  tree.persist();
  tree.update(LocCode::root().child(3), cell(0.5));
  const auto stats = tree.persist();
  // Changed: child 3 and root (path copy) => 2 nodes.
  EXPECT_EQ(stats.delta_bytes, 2 * sizeof(PNode));
}

TEST(Persist, EpochAdvancesEachPersist) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto e0 = tree.epoch();
  tree.persist();
  tree.persist();
  EXPECT_EQ(tree.epoch(), e0 + 2);
}

}  // namespace
}  // namespace pmo::pmoctree
