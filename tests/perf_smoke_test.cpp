// perf_smoke gate (ctest label `perf_smoke`): deterministic, counter-based
// performance regressions — no wall-clock measurement, so the gate is
// stable on loaded CI machines. The tentpole check: the traversal-cursor +
// hot-node-cache read path must cut NVBM line reads on a small-scale
// droplet workload to at most 60% of the cache-off baseline (the
// acceptance bar is a 40% drop at full bench scale; this 5%-scale replica
// runs in seconds). The cache is read-path only, so everything modeled
// except read traffic must stay bit-identical — that is asserted too, so a
// "speedup" obtained by changing semantics fails the gate.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "amr/droplet.hpp"
#include "amr/pm_backend.hpp"
#include "common/simd.hpp"
#include "pmoctree/api.hpp"
#include "telemetry/telemetry.hpp"

namespace pmo {
namespace {

struct Outcome {
  std::map<std::uint64_t, double> leaves;
  std::uint64_t lines_read = 0;      ///< real NVBM medium traffic
  std::uint64_t lines_written = 0;
  std::uint64_t nvbm_writes = 0;
  std::uint64_t cached_reads = 0;    ///< DRAM-latency hits (cache channel)
};

Outcome run_droplet(std::size_t node_cache_bytes) {
  nvbm::Device dev(std::size_t{128} << 20, {});
  pmoctree::PmConfig pm;
  // Small C0 budget so most octants live on NVBM — the regime the cache
  // targets (fig07/fig10 run the same shape at ~20x the leaf count).
  pm.dram_budget_bytes = 96 * sizeof(pmoctree::PNode);
  pm.node_cache_bytes = node_cache_bytes;
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
  for (int s = 0; s < 4; ++s) wl.step(mesh, s);

  Outcome out;
  mesh.visit_leaves([&](const LocCode& c, const CellData& d) {
    out.leaves[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] =
        d.vof;
  });
  const auto& ctr = dev.counters();
  out.lines_read = ctr.lines_read;
  out.lines_written = ctr.lines_written;
  out.nvbm_writes = ctr.writes;
  out.cached_reads = ctr.cached_reads;
  return out;
}

TEST(PerfSmoke, NodeCacheCutsNvbmLineReadsByAtLeast40Percent) {
  const Outcome cached = run_droplet(std::size_t{4} << 20);
  const Outcome uncached = run_droplet(0);

  // The gate: cached medium traffic <= 60% of the baseline.
  ASSERT_GT(uncached.lines_read, 0u);
  EXPECT_LE(cached.lines_read * 100, uncached.lines_read * 60)
      << "cached lines_read " << cached.lines_read << " vs uncached "
      << uncached.lines_read << " (ratio "
      << (100.0 * static_cast<double>(cached.lines_read) /
          static_cast<double>(uncached.lines_read))
      << "%)";
  // The hits really went through the DRAM-latency channel.
  EXPECT_GT(cached.cached_reads, 0u);
  EXPECT_EQ(uncached.cached_reads, 0u);

  // Read-path only: identical mesh, identical writes.
  EXPECT_EQ(cached.leaves, uncached.leaves);
  EXPECT_EQ(cached.lines_written, uncached.lines_written);
  EXPECT_EQ(cached.nvbm_writes, uncached.nvbm_writes);
}

// ---------------------------------------------------------------------------
// Solve-kernel gates (the SIMD/neighbor-index PR): modeled neighbor-lookup
// work and the SIMD determinism contract on the fig07 droplet
// configuration (min_level=3, max_level=5, dt=0.12).
// ---------------------------------------------------------------------------

struct SolveOutcome {
  /// (key|level) -> (vof bits, tracer bits): bit-exact field comparison.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> leaves;
  std::uint64_t find_probes = 0;   ///< legacy per-face-find inspections
  std::uint64_t build_probes = 0;  ///< neighbor-index build inspections
  std::uint64_t builds = 0;
  std::uint64_t reuses = 0;
  std::uint64_t lines_read = 0;
  std::uint64_t lines_written = 0;
  std::uint64_t nvbm_writes = 0;
};

SolveOutcome run_fig07_droplet(bool neighbor_index, bool simd_on) {
  const bool saved_simd = simd::enabled();
  simd::set_enabled(simd_on);
  auto& reg = telemetry::Registry::global();
  const std::uint64_t find0 = reg.counter("amr.chunk.find_probes").value();
  const std::uint64_t build0 =
      reg.counter("amr.neighbor.build_probes").value();
  const std::uint64_t builds0 = reg.counter("amr.neighbor.builds").value();
  const std::uint64_t reuses0 = reg.counter("amr.neighbor.reuses").value();

  nvbm::Device dev(std::size_t{256} << 20, {});
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = std::size_t{16} << 20;
  amr::PmOctreeBackend mesh(dev, pm);

  amr::DropletParams params;
  params.min_level = 3;
  params.max_level = 5;
  params.dt = 0.12;
  params.neighbor_index = neighbor_index;
  amr::DropletWorkload wl(params);
  wl.initialize(mesh);
  for (int s = 0; s < 3; ++s) wl.step(mesh, s);

  SolveOutcome out;
  mesh.visit_leaves([&](const LocCode& c, const CellData& d) {
    out.leaves[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = {
        std::bit_cast<std::uint64_t>(d.vof),
        std::bit_cast<std::uint64_t>(d.tracer)};
  });
  out.find_probes = reg.counter("amr.chunk.find_probes").value() - find0;
  out.build_probes =
      reg.counter("amr.neighbor.build_probes").value() - build0;
  out.builds = reg.counter("amr.neighbor.builds").value() - builds0;
  out.reuses = reg.counter("amr.neighbor.reuses").value() - reuses0;
  const auto& ctr = dev.counters();
  out.lines_read = ctr.lines_read;
  out.lines_written = ctr.lines_written;
  out.nvbm_writes = ctr.writes;
  simd::set_enabled(saved_simd);
  return out;
}

TEST(PerfSmoke, NeighborIndexCutsSolveLookupWorkTo25Percent) {
  // The gate: with the face-neighbor index on, the solve phase's modeled
  // neighbor-lookup work (index-build candidate inspections) is at most
  // 25% of the per-face LeafChunk::find baseline's probe count — the
  // batched build amortizes one hinted pass across all solver sweeps.
  const SolveOutcome on = run_fig07_droplet(true, simd::avx2_compiled());
  const SolveOutcome off = run_fig07_droplet(false, simd::avx2_compiled());

  ASSERT_GT(off.find_probes, 0u);
  ASSERT_GT(on.builds, 0u);
  EXPECT_EQ(on.find_probes, 0u);  // the indexed arm never calls find
  EXPECT_LE(on.build_probes * 4, off.find_probes)
      << "build probes " << on.build_probes << " vs find baseline "
      << off.find_probes << " (ratio "
      << (100.0 * static_cast<double>(on.build_probes) /
          static_cast<double>(off.find_probes))
      << "%)";
  // The index is actually reused across Jacobi sweeps, not rebuilt.
  EXPECT_GT(on.reuses, 0u);
  // Fast path only — the fields are bit-identical either way.
  EXPECT_EQ(on.leaves, off.leaves);
  std::printf("[ info ] neighbor-index build probes %llu vs find baseline "
              "%llu (%.1f%%), builds %llu reuses %llu\n",
              static_cast<unsigned long long>(on.build_probes),
              static_cast<unsigned long long>(off.find_probes),
              100.0 * static_cast<double>(on.build_probes) /
                  static_cast<double>(off.find_probes),
              static_cast<unsigned long long>(on.builds),
              static_cast<unsigned long long>(on.reuses));
}

TEST(PerfSmoke, SimdToggleIsModeledStateTransparent) {
  // SIMD on vs off must be wall-clock-only: identical field bits and
  // identical modeled device traffic (the perf_smoke half of the bench
  // JSON bit-identity criterion; benchdiff gates the full document).
  const SolveOutcome simd_on = run_fig07_droplet(true, true);
  const SolveOutcome simd_off = run_fig07_droplet(true, false);

  EXPECT_EQ(simd_on.leaves, simd_off.leaves);
  EXPECT_EQ(simd_on.lines_read, simd_off.lines_read);
  EXPECT_EQ(simd_on.lines_written, simd_off.lines_written);
  EXPECT_EQ(simd_on.nvbm_writes, simd_off.nvbm_writes);
  EXPECT_EQ(simd_on.build_probes, simd_off.build_probes);
  EXPECT_EQ(simd_on.builds, simd_off.builds);
  EXPECT_EQ(simd_on.reuses, simd_off.reuses);
}

TEST(PerfSmoke, IncrementalPersistVisitsAtMost10PercentOfNodes) {
  // The dirty-subtree pruning gate: after a full persist, mutating at most
  // 1% of the leaves must let the next merge skip all the clean subtrees —
  // persist.visits (octants the merge actually touches) stays at or below
  // 10% of nodes_total. Counter-based, so the gate is exact and stable.
  nvbm::Device dev(std::size_t{256} << 20, {});
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = std::size_t{64} << 20;  // all of C0 stays in DRAM
  auto tree = pmoctree::PmOctree::create(heap, pm);
  for (int l = 0; l < 4; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.persist();

  std::vector<LocCode> leaves;
  tree.for_each_leaf(
      [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
  ASSERT_GE(leaves.size(), 1000u);  // level 4 uniform: 4096 leaves
  const std::size_t touched = leaves.size() / 100;  // exactly 1%
  ASSERT_GT(touched, 0u);
  for (std::size_t i = 0; i < touched; ++i) {
    CellData d;
    d.vof = 0.25 + 0.001 * static_cast<double>(i);
    tree.update(leaves[i * (leaves.size() / touched)], d);
  }

  const auto stats = tree.persist();
  ASSERT_GT(stats.nodes_total, 0u);
  EXPECT_GT(stats.pruned_subtrees, 0u);
  EXPECT_LE(stats.visits * 100, stats.nodes_total * 10)
      << "incremental persist visited " << stats.visits << " of "
      << stats.nodes_total << " octants ("
      << (100.0 * static_cast<double>(stats.visits) /
          static_cast<double>(stats.nodes_total))
      << "%)";
}

TEST(PerfSmoke, PersistOfAllC0TreeReadsNoNvbmLines) {
  // Reclamation costs O(change): a tree held entirely in C0 keeps its
  // only NVBM objects (the durable twins) in write-only use, so a persist
  // after mutating it must read zero NVBM lines — no heap sweep, no
  // header loads on free.
  nvbm::Device dev(std::size_t{64} << 20, {});
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = std::size_t{64} << 20;
  auto tree = pmoctree::PmOctree::create(heap, pm);
  for (int l = 0; l < 3; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.persist();
  for (int step = 0; step < 3; ++step) {
    std::size_t i = 0;
    tree.refine_where([&](const LocCode&, const CellData&) {
      return ++i % 97 == static_cast<std::size_t>(step);
    });
    tree.coarsen_where([&](const LocCode& c, const CellData&) {
      return c.level() == 4 && c.child_index() == step;
    });
    tree.for_each_leaf_mut([&](const LocCode& c, CellData& d) {
      if (c.key() % 13 != 0) return false;
      d.vof += 0.01;
      return true;
    });
    const auto before = dev.counters().lines_read;
    const auto stats = tree.persist();
    EXPECT_GT(stats.gc_freed, 0u) << "step " << step;
    EXPECT_EQ(dev.counters().lines_read - before, 0u) << "step " << step;
  }
}

TEST(PerfSmoke, OneLeafUpdatePersistFreesThePathAndLoadsNoHeapHeader) {
  // A one-leaf update CoW-copies the root-to-leaf path; the persist that
  // seals it frees exactly the depth + 1 superseded originals from the
  // retire list. The heap's volatile size table answers every free, so
  // each device read of the persist is a whole-node load — an 8-byte
  // object-header load would break bytes_read == reads * sizeof(PNode).
  nvbm::Device dev(std::size_t{64} << 20, {});
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = 0;         // every octant is a durable node
  auto tree = pmoctree::PmOctree::create(heap, pm);
  for (int l = 0; l < 4; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.persist();
  const LocCode leaf = LocCode::root().child(6).child(1).child(7).child(2);
  CellData d;
  d.vof = 0.5;
  tree.update(leaf, d);
  const auto before = dev.counters();
  const auto stats = tree.persist();
  const auto& after = dev.counters();
  EXPECT_EQ(stats.gc_freed, static_cast<std::size_t>(leaf.level()) + 1);
  const auto reads = after.reads - before.reads;
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(after.bytes_read - before.bytes_read,
            reads * sizeof(pmoctree::PNode));
}

TEST(PerfSmoke, PersistLoadsEachVisitedNvbmNodeOnce) {
  // The merge is one walk: it loads each NVBM node it visits exactly
  // once, and nothing else in this persist reads the device (no
  // transformation, a header-free retire-list drain). Any
  // second pass over the dirty fringe — e.g. one sizing allocations ahead
  // of the merge — would show up as extra reads.
  nvbm::Device dev(std::size_t{64} << 20, {});
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = 0;       // every visit is an NVBM node
  pm.enable_transform = false;
  auto tree = pmoctree::PmOctree::create(heap, pm);
  for (int l = 0; l < 4; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.persist();
  CellData d;
  d.vof = 0.25;
  for (const std::uint32_t x : {1u, 6u, 11u})
    tree.update(LocCode::from_grid(4, x, 15 - x, x / 2), d);
  const auto before = dev.counters().reads;
  const auto stats = tree.persist();
  EXPECT_GT(stats.visits, 3u * 4u);
  EXPECT_EQ(dev.counters().reads - before, stats.visits);
}

TEST(PerfSmoke, BalanceEnumeratesLeavesOnce) {
  // O(change) balance: one balance() reads every V_i node once to list the
  // leaves, and otherwise only the root-to-leaf descents of its own
  // splits. A full-pass fixpoint re-reads the whole tree in every pass
  // plus a final pass that splits nothing.
  nvbm::Device dev(std::size_t{64} << 20, {});
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = std::size_t{64} << 20;  // all of C0 stays in DRAM
  auto tree = pmoctree::PmOctree::create(heap, pm);
  for (int l = 0; l < 4; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  ASSERT_EQ(tree.balance(), 0u);  // uniform level 4 is balanced
  // A level-7 spike among level-4 leaves: the level-4 neighbours split,
  // then their level-5 children split again (a ripple of >= 2 rounds).
  LocCode spike = LocCode::from_grid(4, 5, 6, 7);
  for (int d = 0; d < 3; ++d) {
    tree.refine(spike);
    spike = spike.child(0);
  }
  const std::uint64_t nodes = tree.node_count();
  const std::uint64_t reads0 = tree.dram_counters().reads;
  const std::size_t splits = tree.balance();
  const std::uint64_t reads = tree.dram_counters().reads - reads0;
  EXPECT_TRUE(tree.is_balanced());
  ASSERT_GT(splits, 8u);
  // Every split leaf is at level <= 5, so its descent reads <= 6 nodes.
  EXPECT_LE(reads, nodes + 6 * splits)
      << "balance read " << reads << " DRAM nodes for " << nodes
      << " nodes and " << splits << " splits";
}

}  // namespace
}  // namespace pmo
