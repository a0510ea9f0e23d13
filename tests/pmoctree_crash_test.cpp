// Randomized crash-injection property tests.
//
// The paper's central durability claim (§1, §3): PM-octree needs no
// ordering fences on octant writes because at least one version of the
// octree is consistent at all times; only the 8-byte root swap is
// ordering-critical, and that one is flushed. These tests crash the
// emulated NVBM at adversarial points — dropping a random subset of
// unflushed cache lines — and verify that restore always yields exactly
// the last successfully persisted state.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pmoctree/pm_octree.hpp"
#include "reach_oracle.hpp"

namespace pmo::pmoctree {
namespace {

nvbm::Config crash_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kNone;
  c.crash_sim = true;
  return c;
}

CellData cell(double vof) {
  CellData d;
  d.vof = vof;
  return d;
}

using LeafMap = std::map<std::uint64_t, double>;

LeafMap leaves_of(PmOctree& tree) {
  LeafMap out;
  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    out[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = d.vof;
  });
  return out;
}

/// Applies `steps` random mutations to the tree.
void mutate_randomly(PmOctree& tree, Rng& rng, int steps) {
  for (int s = 0; s < steps; ++s) {
    std::vector<LocCode> leaves;
    tree.for_each_leaf(
        [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
    const auto& victim =
        leaves[static_cast<std::size_t>(rng.below(leaves.size()))];
    const auto action = rng.below(3);
    if (action == 0 && victim.level() < 6) {
      tree.refine(victim);
    } else if (action == 1 && victim.level() > 0) {
      // Coarsen the victim's parent when all its children are leaves.
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

class CrashInjection : public ::testing::TestWithParam<int> {};

TEST_P(CrashInjection, RestoreAlwaysYieldsLastPersistedVersion) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);

  nvbm::Device dev(64 << 20, crash_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 16 * sizeof(PNode);  // force heavy NVBM traffic

  LeafMap persisted;
  {
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    mutate_randomly(tree, rng, 20);
    tree.persist();
    persisted = leaves_of(tree);

    // Now mutate again — and crash mid-flight, with every unflushed cache
    // line surviving or dying independently at random.
    mutate_randomly(tree, rng, 15);
  }
  const auto survive_p = rng.uniform();
  dev.simulate_crash(rng, survive_p);

  // Reboot: re-attach the heap and restore.
  nvbm::Heap heap2(dev);
  ASSERT_TRUE(PmOctree::can_restore(heap2));
  auto back = PmOctree::restore(heap2, pm);
  EXPECT_EQ(leaves_of(back), persisted)
      << "seed " << seed << " survive_p " << survive_p;
}

TEST_P(CrashInjection, CrashDuringMergeKeepsOldVersion) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);

  nvbm::Device dev(64 << 20, crash_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;

  LeafMap persisted;
  {
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    mutate_randomly(tree, rng, 10);
    tree.persist();
    persisted = leaves_of(tree);
    mutate_randomly(tree, rng, 10);
    // Simulate a crash *inside* the next persist: the merge writes NVBM
    // nodes but we "die" before the root swap. Emulate by doing the
    // mutations' writes and crashing now — from the device's perspective
    // that is indistinguishable from dying mid-merge, since the root swap
    // is the only fence-protected write.
  }
  dev.simulate_crash(rng, rng.uniform());

  nvbm::Heap heap2(dev);
  auto back = PmOctree::restore(heap2, pm);
  EXPECT_EQ(leaves_of(back), persisted);
}

TEST_P(CrashInjection, RecoveryGcReclaimsOrphans) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 31);

  nvbm::Device dev(64 << 20, crash_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // all octants on NVBM

  {
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    tree.persist();
    mutate_randomly(tree, rng, 12);  // creates orphan NVBM objects
  }
  dev.simulate_crash(rng, 1.0);  // even if all lines survive...

  nvbm::Heap heap2(dev);
  auto back = PmOctree::restore(heap2, pm);
  const auto reachable = back.node_count();
  back.gc();  // ...recovery GC reclaims all non-reachable octants
  EXPECT_EQ(heap2.stats().live_objects, reachable);
  // And the tree still reads consistently afterwards.
  EXPECT_EQ(back.node_count(), reachable);
}

TEST_P(CrashInjection, HotNodeCacheNeverChangesWhatACrashLoses) {
  // The hot-node cache is read-path only: the device's dirty-line set —
  // and therefore exactly which data a crash can lose — must be identical
  // with the cache on and off. Run the same RNG-driven history twice and
  // compare both the persisted state and the restored state.
  const int seed = GetParam();
  auto run = [&](std::size_t cache_bytes) {
    Rng rng(static_cast<std::uint64_t>(seed) * 24593 + 17);
    nvbm::Device dev(64 << 20, crash_cfg());
    nvbm::Heap heap(dev);
    PmConfig pm;
    pm.dram_budget_bytes = 16 * sizeof(PNode);
    pm.node_cache_bytes = cache_bytes;
    LeafMap persisted;
    {
      auto tree = PmOctree::create(heap, pm);
      tree.refine(LocCode::root());
      mutate_randomly(tree, rng, 18);
      tree.persist();
      persisted = leaves_of(tree);
      mutate_randomly(tree, rng, 12);
    }
    // Same seed -> same writes -> same dirty lines -> the crash consumes
    // the RNG stream identically in both runs.
    dev.simulate_crash(rng, 0.4);
    nvbm::Heap heap2(dev);
    auto back = PmOctree::restore(heap2, pm);
    return std::make_pair(persisted, leaves_of(back));
  };
  const auto on = run(std::size_t{4} << 20);
  const auto off = run(0);
  EXPECT_EQ(on.first, off.first) << "seed " << seed;
  EXPECT_EQ(on.second, off.second) << "seed " << seed;
  EXPECT_EQ(on.second, on.first) << "seed " << seed;
}

TEST_P(CrashInjection, CrashInHighWaterWindowRestoresAndReclaims) {
  // persist() makes the heap's high-water mark durable once, after the
  // merge's last bump allocation and before flush_all() and the root
  // swap. Two persists grow the heap through bump allocations; a third
  // dies before its flush; the crash drops a random share of its lines.
  // Restore must yield the second persist's leaves (its objects lie below
  // the durable mark), and the next persist must leave allocated exactly
  // the objects reachable from V_{i-1} and V_i (the third persist's
  // objects are orphans for the recovery collector).
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 50021 + 3);

  nvbm::Device dev(64 << 20, crash_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  // C0 holds the whole tree, so mutations allocate only DRAM: the
  // persists' twins are the only NVBM allocations, and only persist
  // advances the durable high-water mark.
  pm.dram_budget_bytes = std::size_t{16} << 20;

  LeafMap persisted;
  {
    auto tree = PmOctree::create(heap, pm);
    for (int i = 0; i < 2; ++i) {
      tree.refine_where([](const LocCode&, const CellData&) { return true; });
    }
    for (int p = 0; p < 2; ++p) {
      mutate_randomly(tree, rng, 12);
      const auto before = heap.stats().high_water;
      tree.persist();
      ASSERT_GT(heap.stats().high_water, before) << "persist " << p;
    }
    persisted = leaves_of(tree);
    mutate_randomly(tree, rng, 12);
    tree.set_crash_before_flush_for_test(true);
    tree.persist();
  }
  const auto survive_p = rng.uniform();
  dev.simulate_crash(rng, survive_p);

  nvbm::Heap heap2(dev);
  ASSERT_TRUE(PmOctree::can_restore(heap2));
  auto back = PmOctree::restore(heap2, pm);
  EXPECT_EQ(leaves_of(back), persisted)
      << "seed " << seed << " survive_p " << survive_p;
  mutate_randomly(back, rng, 6);
  back.persist();
  OffSet live;
  reach(dev, back.previous_root(), live);
  reach(dev, back.current_root(), live);
  EXPECT_EQ(allocated(heap2), live)
      << "seed " << seed << " survive_p " << survive_p;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashInjection, ::testing::Range(0, 12));

TEST(CrashInjection, MultiStepCrashRecoverCrashAgain) {
  Rng rng(555);
  nvbm::Device dev(64 << 20, crash_cfg());
  PmConfig pm;
  pm.dram_budget_bytes = 32 * sizeof(PNode);

  LeafMap persisted;
  {
    nvbm::Heap heap(dev);
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    tree.persist();
    persisted = leaves_of(tree);
    mutate_randomly(tree, rng, 8);
    dev.simulate_crash(rng, 0.3);
  }
  for (int round = 0; round < 4; ++round) {
    nvbm::Heap heap(dev);
    auto tree = PmOctree::restore(heap, pm);
    EXPECT_EQ(leaves_of(tree), persisted) << "round " << round;
    mutate_randomly(tree, rng, 8);
    if (round % 2 == 0) {
      tree.persist();
      persisted = leaves_of(tree);
      mutate_randomly(tree, rng, 4);
    }
    dev.simulate_crash(rng, rng.uniform());
  }
}

// ---------------------------------------------------------------------------
// All-NVBM crashes: with no C0 budget every octant lives in NVBM, so every
// mutation copies shared durable nodes and every persist writes only NVBM.
// A crash before the flush must recover the previous sealed version
// exactly, a crash after the root swap the new one, and the first persist
// after restore() must leave allocated exactly the reachable set.
// ---------------------------------------------------------------------------

/// Root refined, every child refined, then random mutations.
PmOctree grow_all_nvbm(nvbm::Heap& heap, const PmConfig& pm, Rng& rng) {
  auto tree = PmOctree::create(heap, pm);
  tree.refine(LocCode::root());
  for (int i = 0; i < kChildrenPerNode; ++i)
    tree.refine(LocCode::root().child(i));
  mutate_randomly(tree, rng, 20);
  return tree;
}

/// Updates the last leaf in Morton order: one CoW path.
void touch_last_leaf(PmOctree& tree, double vof) {
  LocCode last = LocCode::root();
  tree.for_each_leaf([&](const LocCode& c, const CellData&) { last = c; });
  tree.update(last, cell(vof));
}

/// Restores from the crashed device, checks the recovered leaves, then
/// runs one persist and checks the heap against the reach oracle.
void expect_recovers(nvbm::Device& dev, const PmConfig& pm,
                     const LeafMap& persisted, int seed) {
  nvbm::Heap heap(dev);
  auto back = PmOctree::restore(heap, pm);
  EXPECT_EQ(leaves_of(back), persisted) << "seed " << seed;
  back.persist();
  OffSet live;
  reach(dev, back.previous_root(), live);
  reach(dev, back.current_root(), live);
  EXPECT_EQ(allocated(heap), live) << "seed " << seed;
}

class AllNvbmCrash : public ::testing::TestWithParam<int> {};

TEST_P(AllNvbmCrash, CrashBeforeFlushRestoresP1) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 3);
  nvbm::Device dev(64 << 20, crash_cfg());
  PmConfig pm;
  pm.dram_budget_bytes = 0;
  LeafMap persisted;
  {
    nvbm::Heap heap(dev);
    auto tree = grow_all_nvbm(heap, pm, rng);
    tree.persist();  // P1
    persisted = leaves_of(tree);
    // P2 dies after its merge, before flush_all() and the root swap: its
    // writes are stranded in the write buffer.
    touch_last_leaf(tree, 0.25);
    tree.set_crash_before_flush_for_test(true);
    tree.persist();
  }
  dev.simulate_crash(rng, rng.uniform());
  expect_recovers(dev, pm, persisted, seed);
}

TEST_P(AllNvbmCrash, CrashAfterSwapRestoresP2) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 12289 + 11);
  nvbm::Device dev(64 << 20, crash_cfg());
  PmConfig pm;
  pm.dram_budget_bytes = 0;
  LeafMap persisted;
  {
    nvbm::Heap heap(dev);
    auto tree = grow_all_nvbm(heap, pm, rng);
    tree.persist();  // P1
    // P2 completes its root swap; the crash hits afterwards, with the
    // post-persist mutations still in flight.
    touch_last_leaf(tree, 0.75);
    tree.persist();
    persisted = leaves_of(tree);
    mutate_randomly(tree, rng, 10);  // lost work the crash may eat
  }
  dev.simulate_crash(rng, rng.uniform());
  expect_recovers(dev, pm, persisted, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllNvbmCrash, ::testing::Range(0, 8));

TEST(CrashInjection, NothingPersistedMeansNothingRestorable) {
  Rng rng(9);
  nvbm::Device dev(16 << 20, crash_cfg());
  {
    nvbm::Heap heap(dev);
    auto tree = PmOctree::create(heap, PmConfig{});
    tree.refine(LocCode::root());
    // no persist()
  }
  dev.simulate_crash(rng, 0.5);
  nvbm::Heap heap(dev);
  EXPECT_FALSE(PmOctree::can_restore(heap));
}

}  // namespace
}  // namespace pmo::pmoctree
