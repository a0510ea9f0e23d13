// Reclamation oracle.
//
// persist() frees superseded objects from per-epoch retire lists instead
// of sweeping the heap, and the full mark-and-sweep runs only on the first
// persist after restore(). These tests check both against a test-side
// reachability walk: after every persist, the heap's allocated set must
// equal the objects reachable from V_{i-1}, V_i and every pinned version —
// nothing leaked, nothing freed early — and deferred_reclaim_nodes() must
// equal the objects reachable only from pins. The driver mixes inserts,
// updates, removals, refinement and coarsening on a small C0 budget (so
// CoW, twins, evictions and layout transformation all run), with
// snapshot pins taken and released at random epochs, and crash -> restore
// cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "amr/droplet.hpp"
#include "amr/pm_backend.hpp"
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

/// The oracle check after a persist.
void check_reclamation(PmOctree& tree, nvbm::Heap& heap,
                       const std::vector<SnapshotHandle>& pins,
                       const std::string& where) {
  nvbm::Device& dev = heap.device();
  OffSet live, pinned;
  reach(dev, tree.previous_root(), live);
  reach(dev, tree.current_root(), live);
  for (const auto& p : pins)
    reach(dev, NodeRef::nvbm(p.root_offset()), pinned);
  const OffSet pin_only = minus(pinned, live);
  OffSet expect = live;
  expect.insert(pin_only.begin(), pin_only.end());

  const OffSet heap_set = allocated(heap);
  const OffSet leaked = minus(heap_set, expect);
  const OffSet early = minus(expect, heap_set);
  EXPECT_TRUE(leaked.empty())
      << where << ": " << leaked.size() << " allocated objects unreachable";
  EXPECT_TRUE(early.empty())
      << where << ": " << early.size() << " reachable objects freed";
  EXPECT_EQ(tree.deferred_reclaim_nodes(), pin_only.size()) << where;
}

/// One random mutation of the working version.
void mutate(PmOctree& tree, Rng& rng) {
  std::vector<LocCode> leaves;
  tree.for_each_leaf(
      [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
  const LocCode victim =
      leaves[static_cast<std::size_t>(rng.below(leaves.size()))];
  CellData d;
  d.vof = rng.uniform();
  switch (rng.below(6)) {
    case 0:
      if (victim.level() < 5) tree.refine(victim);
      break;
    case 1:
      if (victim.level() > 0) {
        // Coarsen the parent when all eight siblings exist as leaves.
        const LocCode parent = victim.parent();
        bool all_leaves = true;
        for (int i = 0; i < kChildrenPerNode && all_leaves; ++i)
          all_leaves = tree.is_leaf(parent.child(i));
        if (all_leaves) tree.coarsen(parent);
      }
      break;
    case 2:
      // Removal of a whole subtree (shared nodes get retired).
      if (victim.level() > 2) tree.remove(victim.parent());
      break;
    case 3:
      // Insert below a leaf: creates full sibling groups two levels down.
      if (victim.level() < 4)
        tree.insert(victim.child(static_cast<int>(rng.below(8)))
                        .child(static_cast<int>(rng.below(8))),
                    d);
      break;
    default:
      tree.update(victim, d);
      break;
  }
}

PmConfig oracle_config() {
  PmConfig pm;
  pm.dram_budget_bytes = 40 * sizeof(PNode);  // evictions + transforms
  return pm;
}

class ReclaimOracle : public ::testing::TestWithParam<int> {};

TEST_P(ReclaimOracle, AllocatedSetEqualsReachableAfterEveryPersist) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 11);
  nvbm::Device dev(64 << 20, crash_cfg());
  auto heap = std::make_unique<nvbm::Heap>(dev);
  const PmConfig pm = oracle_config();
  auto tree = std::make_unique<PmOctree>(PmOctree::create(*heap, pm));
  const auto feature = [](const LocCode&, const CellData& d) {
    return d.vof > 0.6;
  };
  tree->register_feature(feature);
  for (int l = 0; l < 2; ++l)
    tree->refine_where([](const LocCode&, const CellData&) { return true; });

  auto& evicted = telemetry::Registry::global().counter(
      "pmoctree.transform.evicted_to_nvbm");
  const std::uint64_t evicted_before = evicted.value();
  std::vector<SnapshotHandle> pins;
  std::size_t freed = 0;
  std::size_t deferred_hwm = 0;
  for (int round = 0; round < 40; ++round) {
    const int steps = 1 + static_cast<int>(rng.below(6));
    for (int s = 0; s < steps; ++s) mutate(*tree, rng);
    const PersistStats ps = tree->persist();
    freed += ps.gc_freed;
    const std::string where =
        "seed " + std::to_string(seed) + " round " + std::to_string(round);
    check_reclamation(*tree, *heap, pins, where);
    deferred_hwm = std::max(deferred_hwm, tree->deferred_reclaim_nodes());

    // Pin the epoch just sealed, release random older pins.
    if (rng.below(3) == 0) pins.push_back(tree->pin_snapshot());
    if (!pins.empty() && rng.below(3) == 0)
      pins.erase(pins.begin() +
                 static_cast<std::ptrdiff_t>(rng.below(pins.size())));

    if (round % 13 == 12) {
      // Crash mid-epoch: unflushed lines survive at random, the readers
      // die with the process, and recovery is restore() + the first
      // persist's full collection.
      for (int s = 0; s < 4; ++s) mutate(*tree, rng);
      pins.clear();
      tree.reset();
      dev.simulate_crash(rng, rng.uniform());
      heap = std::make_unique<nvbm::Heap>(dev);
      tree = std::make_unique<PmOctree>(PmOctree::restore(*heap, pm));
      tree->register_feature(feature);
      // restore() is O(1): it sweeps nothing, so the orphans survive it.
      OffSet reachable;
      reach(dev, tree->previous_root(), reachable);
      const OffSet after_restore = allocated(*heap);
      EXPECT_TRUE(std::includes(after_restore.begin(), after_restore.end(),
                                reachable.begin(), reachable.end()));
      mutate(*tree, rng);
      tree->persist();
      check_reclamation(*tree, *heap, pins, where + " (recovery)");
    }
  }
  pins.clear();
  mutate(*tree, rng);
  tree->persist();
  check_reclamation(*tree, *heap, pins, "final");
  EXPECT_EQ(tree->deferred_reclaim_nodes(), 0u);
  // The run must have exercised what it claims to.
  EXPECT_GT(freed, 0u);
  EXPECT_GT(deferred_hwm, 0u) << "no pin ever blocked a reclamation";
  EXPECT_GT(evicted.value(), evicted_before) << "no C0 node was evicted";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReclaimOracle, ::testing::Range(0, 6));

TEST(ReclaimDroplet, EvictionCopiesUnderPinsMatchTheOracle) {
  // The droplet on a C0 budget of ~5% of its octants evicts subtrees whose
  // descendants changed this epoch, so the eviction copies of their clean
  // roots keep an older PNode::epoch than the epoch that seals them. With
  // the two latest epochs pinned throughout, a retired copy is reclaimable
  // exactly when its true first epoch lies above every older pin — the
  // case the epoch field alone would get wrong.
  nvbm::Device dev(std::size_t{128} << 20, nvbm::Config{});
  PmConfig pm;
  pm.dram_budget_bytes = 96 * sizeof(PNode);
  amr::PmOctreeBackend mesh(dev, pm);
  amr::DropletParams params;
  params.min_level = 2;
  params.max_level = 4;
  params.dt = 0.05;
  amr::DropletWorkload wl(params);
  mesh.register_feature([&wl](const LocCode& c, const CellData& d) {
    return wl.hot_feature(c, d);
  });
  wl.initialize(mesh);
  PmOctree& tree = mesh.tree();
  std::vector<SnapshotHandle> pins;
  for (int s = 0; s < 8; ++s) {
    wl.step(mesh, s);
    check_reclamation(tree, tree.heap(), pins, "step " + std::to_string(s));
    pins.push_back(tree.pin_snapshot());
    if (pins.size() > 2) pins.erase(pins.begin());
  }
  EXPECT_GT(tree.eviction_merges(), 0u);
  EXPECT_GT(tree.deferred_reclaim_high_water(), 0u);
}

}  // namespace
}  // namespace pmo::pmoctree
