// Core PM-octree behaviour: creation, mutation, traversal, placement.
#include "pmoctree/pm_octree.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "pmoctree/api.hpp"

namespace pmo::pmoctree {
namespace {

nvbm::Config dev_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kModeled;
  return c;
}

struct Fixture {
  explicit Fixture(std::size_t capacity = 64 << 20,
                   PmConfig pm = PmConfig{})
      : device(capacity, dev_cfg()), heap(device), config(pm) {}

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

TEST(PmOctree, CreateHasRootOnly) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_FALSE(tree.has_prev_version());
  EXPECT_TRUE(tree.contains(LocCode::root()));
}

TEST(PmOctree, InsertFindRoundTrip) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(3, 1, 2, 3);
  tree.insert(code, cell(0.7, 3.0));
  const auto found = tree.find(code);
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->vof, 0.7);
  EXPECT_DOUBLE_EQ(found->tracer, 3.0);
  EXPECT_FALSE(tree.find(code.child(0)).has_value());
}

TEST(PmOctree, InsertMaintainsZeroOrEightInvariant) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(4, 3, 7, 9), cell(1.0));
  tree.for_each_node([&](const LocCode& code, const CellData&, bool leaf) {
    if (leaf) return;
    int kids = 0;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      kids += tree.contains(code.child(i));
    }
    EXPECT_EQ(kids, 8) << code.to_string();
  });
}

TEST(PmOctree, UpdateChangesExistingOctant) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(2, 1, 1, 1);
  tree.insert(code, cell(0.1));
  tree.update(code, cell(0.9));
  EXPECT_DOUBLE_EQ(tree.find(code)->vof, 0.9);
  EXPECT_THROW(tree.update(code.child(5), cell(1.0)), ContractError);
}

TEST(PmOctree, RefineCreatesChildrenInheritingData) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(1, 0, 0, 0);
  tree.insert(code, cell(0.25));
  tree.refine(code);
  for (int i = 0; i < kChildrenPerNode; ++i) {
    const auto child = tree.find(code.child(i));
    ASSERT_TRUE(child.has_value());
    EXPECT_DOUBLE_EQ(child->vof, 0.25);
  }
}

TEST(PmOctree, RefineInitOverride) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.refine(LocCode::root(), [](const LocCode& c, CellData& d) {
    d.tracer = static_cast<double>(c.child_index());
  });
  for (int i = 0; i < kChildrenPerNode; ++i) {
    EXPECT_DOUBLE_EQ(tree.find(LocCode::root().child(i))->tracer, i);
  }
}

TEST(PmOctree, CoarsenAveragesChildren) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.refine(LocCode::root());
  for (int i = 0; i < kChildrenPerNode; ++i) {
    tree.update(LocCode::root().child(i), cell(static_cast<double>(i + 1)));
  }
  tree.coarsen(LocCode::root());
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.find(LocCode::root())->vof, 4.5);
}

TEST(PmOctree, RemoveDetachesSubtree) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(2, 0, 0, 0);
  tree.insert(code, cell(1.0));
  const auto before = tree.node_count();
  tree.remove(LocCode::root().child(0));
  EXPECT_LT(tree.node_count(), before);
  EXPECT_FALSE(tree.contains(code));
  EXPECT_THROW(tree.remove(LocCode::root()), ContractError);
}

TEST(PmOctree, InsertAfterRemoveKeepsLiveSiblings) {
  // remove() leaves the root internal with one empty slot; re-inserting
  // that child must fill only the slot, not re-split the root over its
  // seven live siblings.
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const LocCode c0 = LocCode::root().child(0);
  const LocCode c1 = LocCode::root().child(1);
  tree.refine(LocCode::root());
  tree.refine(c1);
  ASSERT_EQ(tree.node_count(), 17u);
  tree.remove(c0);
  ASSERT_EQ(tree.node_count(), 16u);
  tree.insert(c0, cell(0.5));

  EXPECT_EQ(tree.node_count(), 17u);
  std::set<LocCode> under_c1;
  tree.for_each_leaf([&](const LocCode& c, const CellData&) {
    if (c.level() > 1 && c.ancestor_at(1) == c1) under_c1.insert(c);
  });
  EXPECT_EQ(under_c1.size(), 8u);
  for (int i = 0; i < kChildrenPerNode; ++i)
    EXPECT_EQ(under_c1.count(c1.child(i)), 1u) << "child " << i;
  EXPECT_EQ(tree.persist().nodes_total, tree.node_count());
}

TEST(PmOctree, SampleReturnsContainingLeafData) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(1, 1, 0, 0), cell(0.5));
  // Deep probe inside child(0) region, which is a level-1 leaf.
  const auto probe = LocCode::from_grid(5, 1, 1, 1);
  EXPECT_EQ(tree.leaf_containing(probe).level(), 1);
  EXPECT_DOUBLE_EQ(tree.sample(probe).vof, 0.0);
}

TEST(PmOctree, TraversalVisitsLeavesInMortonOrder) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 3, 3, 3), cell(1.0));
  std::vector<LocCode> visited;
  tree.for_each_leaf(
      [&](const LocCode& c, const CellData&) { visited.push_back(c); });
  for (std::size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(visited[i - 1], visited[i]);
  }
  EXPECT_EQ(visited.size(), tree.leaf_count());
}

TEST(PmOctree, MutableTraversalWritesBack) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 1, 2, 3), cell(0.0));
  tree.for_each_leaf_mut([](const LocCode&, CellData& d) {
    d.tracer = 42.0;
    return true;
  });
  tree.for_each_leaf([](const LocCode&, const CellData& d) {
    EXPECT_DOUBLE_EQ(d.tracer, 42.0);
  });
}

TEST(PmOctree, MutableTraversalSkipsUnmodified) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.refine(LocCode::root());
  const auto writes_before = fx.device.counters().writes +
                             tree.dram_counters().writes;
  tree.for_each_leaf_mut([](const LocCode&, CellData&) { return false; });
  const auto writes_after =
      fx.device.counters().writes + tree.dram_counters().writes;
  EXPECT_EQ(writes_after, writes_before);
}

TEST(PmOctree, BalanceEnforcesTwoToOne) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  // Center-directed chain: creates a 2-level jump against the coarse
  // siblings (see octree_test.cpp for the geometry).
  LocCode code = LocCode::root();
  tree.refine(code);
  code = code.child(0);
  for (int l = 1; l < 4; ++l) {
    tree.refine(code);
    code = code.child(7);
  }
  EXPECT_FALSE(tree.is_balanced());
  EXPECT_GT(tree.balance(), 0u);
  EXPECT_TRUE(tree.is_balanced());
  EXPECT_EQ(tree.balance(), 0u);
}

TEST(PmOctree, SmallBudgetPlacesNodesInNvbm) {
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // force everything to NVBM
  Fixture fx(64 << 20, pm);
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(3, 1, 1, 1), cell(1.0));
  const auto s = tree.stats();
  EXPECT_EQ(s.dram_nodes, 0u);
  EXPECT_EQ(s.nvbm_nodes_vi, s.nodes);
  EXPECT_GT(fx.device.counters().writes, 0u);
}

TEST(PmOctree, LargeBudgetKeepsEverythingInDram) {
  PmConfig pm;
  pm.dram_budget_bytes = 256 << 20;
  Fixture fx(64 << 20, pm);
  auto tree = PmOctree::create(fx.heap, pm);
  tree.insert(LocCode::from_grid(3, 5, 5, 5), cell(1.0));
  const auto s = tree.stats();
  EXPECT_EQ(s.nvbm_nodes_vi, 0u);
  EXPECT_EQ(s.dram_nodes, s.nodes);
}

TEST(PmOctree, BudgetPressureEvictsToNvbm) {
  PmConfig pm;
  pm.dram_budget_bytes = 64 * sizeof(PNode);  // room for ~64 nodes
  Fixture fx(256 << 20, pm);
  auto tree = PmOctree::create(fx.heap, pm);
  // Create far more nodes than the DRAM budget allows.
  for (int l = 0; l < 3; ++l) {
    tree.refine_where(
        [](const LocCode&, const CellData&) { return true; });
  }
  const auto s = tree.stats();  // 585 nodes total
  EXPECT_EQ(s.nodes, 585u);
  EXPECT_LE(s.dram_bytes, pm.dram_budget_bytes);
  EXPECT_GT(s.nvbm_nodes_vi, 0u);
}

TEST(PmOctree, StatsCountResidenceConsistently) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 2, 2, 2), cell(0.3));
  const auto s = tree.stats();
  EXPECT_EQ(s.nodes, s.dram_nodes + s.nvbm_nodes_vi);
  EXPECT_EQ(s.nodes, tree.node_count());
  EXPECT_EQ(s.leaves, tree.leaf_count());
  EXPECT_EQ(s.unique_physical_nodes, s.nodes);  // no prev version yet
}

TEST(PmOctree, ModeledTimeGrowsWithNvbmTraffic) {
  PmConfig pm;
  pm.dram_budget_bytes = 0;
  Fixture fx(64 << 20, pm);
  auto tree = PmOctree::create(fx.heap, pm);
  const auto t0 = tree.modeled_ns();
  tree.insert(LocCode::from_grid(3, 1, 1, 1), cell(1.0));
  EXPECT_GT(tree.modeled_ns(), t0);
}

TEST(PmOctree, DestroyFreesEverything) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(3, 0, 1, 2), cell(1.0));
  tree.persist();
  tree.destroy();
  EXPECT_EQ(fx.heap.stats().live_objects, 0u);
  EXPECT_FALSE(PmOctree::can_restore(fx.heap));
}

TEST(PmOctree, ChildMaskMatchesSlotScanUnderRandomOps) {
  // Differential check of the PNode::flags child-presence bitmask: after a
  // random op mix under memory pressure (DRAM twins, CoW'd NVBM nodes and
  // persist merges all exercised), every reachable node's cached mask must
  // equal a scan of its child slots. The mask feeds is_leaf() and
  // traversal, so a single stale bit here corrupts downstream structures
  // silently.
  Fixture fx;
  fx.config.dram_budget_bytes = 24 * sizeof(PNode);
  auto tree = PmOctree::create(fx.heap, fx.config);
  Rng rng(20260808);
  for (int s = 0; s < 120; ++s) {
    std::vector<LocCode> leaves;
    tree.for_each_leaf(
        [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
    const auto& victim =
        leaves[static_cast<std::size_t>(rng.below(leaves.size()))];
    const auto action = rng.below(4);
    if (action == 0 && victim.level() < 6) {
      tree.refine(victim);
    } else if (action == 1 && victim.level() > 0) {
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
    if (s % 40 == 39) tree.persist();
  }
  tree.persist();

  std::size_t checked = 0;
  std::vector<NodeRef> stack{tree.current_root(), tree.previous_root()};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    if (ref.null()) continue;
    const PNode node = ref.in_dram()
                           ? *ref.dram_ptr()
                           : fx.device.load<PNode>(ref.nvbm_offset());
    std::uint8_t scan = 0;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      if (c.null()) continue;
      scan |= static_cast<std::uint8_t>(1u << i);
      stack.push_back(c);
    }
    EXPECT_EQ(node.child_mask(), scan)
        << "stale child mask at level " << node.code.level();
    ++checked;
  }
  EXPECT_GT(checked, 16u);  // the walk really covered a non-trivial tree
}

TEST(PmOctreeApi, Table1RoundTrip) {
  Fixture fx;
  auto tree = pm_create(fx.heap);
  tree->insert(LocCode::from_grid(2, 1, 0, 1), cell(0.6));
  pm_persistent(*tree);
  tree.reset();

  auto back = pm_restore(fx.heap);
  EXPECT_DOUBLE_EQ(back->find(LocCode::from_grid(2, 1, 0, 1))->vof, 0.6);
  pm_delete(*back);
  EXPECT_FALSE(PmOctree::can_restore(fx.heap));
}

TEST(PmOctreeApi, CreateAdoptsExistingOctree) {
  Fixture fx;
  octree::Octree vol;
  vol.insert(LocCode::from_grid(2, 3, 3, 3));
  vol.find(LocCode::from_grid(2, 3, 3, 3))->data.tracer = 5.0;
  auto tree = pm_create(fx.heap, &vol);
  EXPECT_EQ(tree->node_count(), vol.node_count());
  EXPECT_DOUBLE_EQ(tree->find(LocCode::from_grid(2, 3, 3, 3))->tracer, 5.0);
}

TEST(PmOctree, RefineWhereAndCoarsenWhere) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.refine(LocCode::root());
  // Mark half the leaves interesting, refine them.
  int i = 0;
  tree.for_each_leaf_mut([&](const LocCode&, CellData& d) {
    d.tracer = (i++ % 2 == 0) ? 1.0 : 0.0;
    return true;
  });
  const auto split = tree.refine_where(
      [](const LocCode&, const CellData& d) { return d.tracer > 0.5; });
  EXPECT_EQ(split, 4u);
  EXPECT_EQ(tree.leaf_count(), 4u + 4u * 8u);
  // Coarsen the ones we refined (children inherited tracer = 1).
  const auto merged = tree.coarsen_where(
      [](const LocCode&, const CellData& d) { return d.tracer > 0.5; });
  EXPECT_EQ(merged, 4u);
  EXPECT_EQ(tree.leaf_count(), 8u);
}

#if PMO_TELEMETRY_ENABLED
TEST(PmOctree, PersistCyclePublishesTelemetry) {
  // A refine -> persist -> mutate -> persist cycle must leave its trace
  // in the global registry: pmoctree.persists counts both persists, the
  // merge produces pmoctree.merge.* activity, and the post-persist
  // mutation of a shared path shows up as pmoctree.cow_copies.
  auto& reg = telemetry::Registry::global();
  const auto before = reg.snapshot();

  {
    // DRAM-resident tree: persist merges the C0 subtree into NVBM.
    Fixture fx;
    auto tree = PmOctree::create(fx.heap, fx.config);
    tree.refine(LocCode::root());
    tree.refine(LocCode::root().child(0));
    tree.persist();
  }
  {
    // Zero DRAM budget: octants live in NVBM, so mutating a path shared
    // with V_{i-1} right after a persist must copy-on-write it.
    PmConfig pm;
    pm.dram_budget_bytes = 0;
    Fixture fx(64 << 20, pm);
    auto tree = PmOctree::create(fx.heap, pm);
    tree.refine(LocCode::root());
    tree.refine(LocCode::root().child(0));
    tree.persist();
    tree.update(LocCode::root().child(0).child(1), cell(0.9));
    tree.persist();
  }

  const auto delta = reg.snapshot().delta(before);
  EXPECT_EQ(delta.counter("pmoctree.persists"), 3u);
  EXPECT_GE(delta.counter("pmoctree.cow_copies"), 1u);
  EXPECT_GT(delta.counter("pmoctree.merge.merged_from_dram"), 0u);
  // persist() runs under a span, with the merge nested inside it.
  ASSERT_NE(delta.histogram("pmoctree.persist"), nullptr);
  EXPECT_EQ(delta.histogram("pmoctree.persist")->count, 3u);
  ASSERT_NE(delta.histogram("pmoctree.persist.merge"), nullptr);
  EXPECT_EQ(delta.histogram("pmoctree.persist.merge")->count, 3u);
}
#endif

}  // namespace
}  // namespace pmo::pmoctree
