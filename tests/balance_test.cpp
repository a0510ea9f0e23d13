// The seeded ripple balance kernel (octree/balance.hpp) against the
// full-pass oracle (balance_oracle.hpp): randomized refine / coarsen /
// insert / remove sequences on PmOctree (all-DRAM, all-NVBM and a tiny
// mixed C0 budget, plus crash + restore) and on Octree, and the kernel on
// its own with a hand-kept change log. After every balance the leaf set,
// the split count and is_balanced() must equal the oracle's.
#include "octree/balance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "balance_oracle.hpp"
#include "common/rng.hpp"
#include "octree/octree.hpp"
#include "pmoctree/pm_octree.hpp"

namespace pmo {
namespace {

constexpr int kMaxTestLevel = 7;

std::vector<LocCode> leaves_of(pmoctree::PmOctree& tree) {
  std::vector<LocCode> out;
  tree.for_each_leaf(
      [&](const LocCode& c, const CellData&) { out.push_back(c); });
  return out;
}

std::vector<LocCode> leaves_of(const octree::Octree& tree) {
  std::vector<LocCode> out;
  tree.for_each_leaf([&](const octree::Node& n) { out.push_back(n.code); });
  return out;
}

LocCode pick(const std::vector<LocCode>& codes, Rng& rng) {
  return codes[static_cast<std::size_t>(rng.below(codes.size()))];
}

/// Refines `leaf`, then one random child of it, and so on for up to
/// `depth` levels: a deep spike that needs several ripple rounds.
template <class RefineFn>
void dive(LocCode leaf, int depth, Rng& rng, const RefineFn& refine) {
  for (int d = 0; d < depth && leaf.level() < kMaxTestLevel; ++d) {
    refine(leaf);
    leaf = leaf.child(static_cast<int>(rng.below(kChildrenPerNode)));
  }
}

/// Whether all eight children of `parent` are leaves of `leaves`.
bool children_are_leaves(const std::vector<LocCode>& leaves,
                         const LocCode& parent) {
  const auto it = std::lower_bound(leaves.begin(), leaves.end(),
                                   parent.child(0));
  if (leaves.end() - it < kChildrenPerNode) return false;
  for (int i = 0; i < kChildrenPerNode; ++i)
    if (!(it[i] == parent.child(i))) return false;
  return true;
}

/// One random structural change of a PmOctree that keeps its leaves a
/// tiling of the domain.
void mutate(pmoctree::PmOctree& tree, Rng& rng) {
  const std::vector<LocCode> leaves = leaves_of(tree);
  const LocCode victim = pick(leaves, rng);
  switch (rng.below(10)) {
    case 0:
    case 1:
    case 2:
    case 3:
      dive(victim, 1 + static_cast<int>(rng.below(4)), rng,
           [&](const LocCode& c) { tree.refine(c); });
      break;
    case 4:
    case 5:
      if (victim.level() > 0 && children_are_leaves(leaves, victim.parent()))
        tree.coarsen(victim.parent());
      break;
    case 6:
      // Creates full sibling groups two levels down.
      if (victim.level() + 2 <= kMaxTestLevel) {
        CellData d;
        d.vof = rng.uniform();
        tree.insert(victim.child(static_cast<int>(rng.below(8)))
                        .child(static_cast<int>(rng.below(8))),
                    d);
      }
      break;
    case 7:
      // Removing all eight children of an internal octant (whole subtrees)
      // turns it back into a leaf.
      if (victim.level() >= 3) {
        const LocCode parent = victim.parent().parent();
        for (int i = 0; i < kChildrenPerNode; ++i)
          tree.remove(parent.child(i));
      }
      break;
    case 8: {
      CellData d;
      d.vof = rng.uniform();
      tree.update(victim, d);
      break;
    }
    default:
      tree.persist();
      break;
  }
}

/// Balances `tree` and checks it against the oracle; returns the splits.
std::size_t balance_like_oracle(pmoctree::PmOctree& tree,
                                const std::string& where) {
  const test::OracleBalance want = test::full_pass_balance(leaves_of(tree));
  const std::size_t got = tree.balance();
  EXPECT_EQ(got, want.splits.size()) << where;
  EXPECT_EQ(leaves_of(tree), want.leaves) << where;
  EXPECT_TRUE(tree.is_balanced()) << where;
  return got;
}

nvbm::Config device_cfg(bool crash_sim) {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kNone;
  c.crash_sim = crash_sim;
  return c;
}

struct Budget {
  const char* name;
  std::size_t bytes;
};
void PrintTo(const Budget& b, std::ostream* os) { *os << b.name; }

class PmBalanceOracle
    : public ::testing::TestWithParam<std::tuple<Budget, int>> {};

TEST_P(PmBalanceOracle, MatchesFullPassAfterEveryMutationBatch) {
  const auto [budget, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
  nvbm::Device dev(std::size_t{64} << 20, device_cfg(false));
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = budget.bytes;
  auto tree = pmoctree::PmOctree::create(heap, pm);
  tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.refine_where([](const LocCode&, const CellData&) { return true; });
  std::size_t splits = 0;
  for (int round = 0; round < 30; ++round) {
    const int ops = 1 + static_cast<int>(rng.below(6));
    for (int s = 0; s < ops; ++s) mutate(tree, rng);
    splits += balance_like_oracle(
        tree, std::string(budget.name) + " seed " + std::to_string(seed) +
                  " round " + std::to_string(round));
  }
  EXPECT_GT(splits, 0u) << "no balance ever split a leaf";
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, PmBalanceOracle,
    ::testing::Combine(
        ::testing::Values(Budget{"all_dram", std::size_t{64} << 20},
                          Budget{"all_nvbm", 0},
                          Budget{"tiny_mixed", 40 * sizeof(pmoctree::PNode)}),
        ::testing::Range(0, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PmBalanceOracle, RestoredUnbalancedTreeIsBalancedInFull) {
  // The restored version was persisted unbalanced; restore() keeps no
  // change log, so only the "seed every leaf" flag can find its
  // violations.
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 5);
    nvbm::Device dev(std::size_t{64} << 20, device_cfg(true));
    auto heap = std::make_unique<nvbm::Heap>(dev);
    pmoctree::PmConfig pm;
    pm.dram_budget_bytes = 40 * sizeof(pmoctree::PNode);
    auto tree = std::make_unique<pmoctree::PmOctree>(
        pmoctree::PmOctree::create(*heap, pm));
    tree->refine_where([](const LocCode&, const CellData&) { return true; });
    tree->refine_where([](const LocCode&, const CellData&) { return true; });
    tree->balance();
    tree->persist();
    // Deep spikes next to level-2 leaves, persisted without a balance.
    for (int i = 0; i < 3; ++i)
      dive(pick(leaves_of(*tree), rng), 4, rng,
           [&](const LocCode& c) { tree->refine(c); });
    tree->persist();
    const std::vector<LocCode> durable = leaves_of(*tree);
    for (int s = 0; s < 3; ++s) mutate(*tree, rng);  // lost in the crash
    tree.reset();
    dev.simulate_crash(rng, rng.uniform());
    heap = std::make_unique<nvbm::Heap>(dev);
    tree = std::make_unique<pmoctree::PmOctree>(
        pmoctree::PmOctree::restore(*heap, pm));
    ASSERT_EQ(leaves_of(*tree), durable);
    const std::string where = "seed " + std::to_string(seed);
    EXPECT_GT(balance_like_oracle(*tree, where + " (restored)"), 0u);
    for (int round = 0; round < 5; ++round) {
      mutate(*tree, rng);
      balance_like_oracle(*tree, where + " round " + std::to_string(round));
    }
  }
}

TEST(OctreeBalanceOracle, MatchesFullPassAfterEveryMutationBatch) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 31337 + 1);
    octree::Octree tree;
    tree.refine_where([](const octree::Node&) { return true; });
    tree.refine_where([](const octree::Node&) { return true; });
    const auto refine = [&](const LocCode& c) { tree.refine(tree.find(c)); };
    std::size_t splits = 0;
    for (int round = 0; round < 30; ++round) {
      for (int s = 0, ops = 1 + static_cast<int>(rng.below(6)); s < ops;
           ++s) {
        const std::vector<LocCode> leaves = leaves_of(tree);
        const LocCode victim = pick(leaves, rng);
        switch (rng.below(4)) {
          case 0:
          case 1:
            dive(victim, 1 + static_cast<int>(rng.below(4)), rng, refine);
            break;
          case 2:
            if (victim.level() > 0 &&
                children_are_leaves(leaves, victim.parent()))
              tree.coarsen(tree.find(victim.parent()));
            break;
          default:
            if (victim.level() + 2 <= kMaxTestLevel)
              tree.insert(victim.child(static_cast<int>(rng.below(8)))
                              .child(static_cast<int>(rng.below(8))));
            break;
        }
      }
      const test::OracleBalance want =
          test::full_pass_balance(leaves_of(tree));
      const std::size_t got = tree.balance();
      const std::string where =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      EXPECT_EQ(got, want.splits.size()) << where;
      EXPECT_EQ(leaves_of(tree), want.leaves) << where;
      EXPECT_TRUE(tree.is_balanced()) << where;
      splits += got;
    }
    EXPECT_GT(splits, 0u);
  }
}

TEST(RippleBalance, ChangeLogSeedsSplitWhatTheFullPassSplitsInOrder) {
  // The kernel on its own, seeded the way PmOctree seeds it: refine
  // children as fine seeds, coarsened parents as coarse seeds. Every
  // split, in order, must be the oracle's.
  std::size_t splits = 0;
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 7);
    octree::Octree tree;
    for (int l = 0; l < 3; ++l)
      tree.refine_where([](const octree::Node&) { return true; });
    tree.balance();
    for (int round = 0; round < 20; ++round) {
      std::vector<LocCode> fine;
      std::vector<LocCode> coarsened;
      const auto refine = [&](const LocCode& c) {
        tree.refine(tree.find(c));
        for (int i = 0; i < kChildrenPerNode; ++i) fine.push_back(c.child(i));
      };
      for (int s = 0, ops = 1 + static_cast<int>(rng.below(8)); s < ops;
           ++s) {
        const std::vector<LocCode> leaves = leaves_of(tree);
        const LocCode victim = pick(leaves, rng);
        if (rng.below(2) == 0) {
          dive(victim, 1 + static_cast<int>(rng.below(4)), rng, refine);
        } else if (victim.level() > 0 &&
                   children_are_leaves(leaves, victim.parent())) {
          tree.coarsen(tree.find(victim.parent()));
          coarsened.push_back(victim.parent());
        }
      }
      std::vector<LocCode> leaves = leaves_of(tree);
      const test::OracleBalance want = test::full_pass_balance(leaves);
      std::vector<LocCode> order;
      const std::size_t got = octree::ripple_balance(
          leaves, fine, coarsened, [&](const LocCode& c) {
            order.push_back(c);
            tree.refine(tree.find(c));
          });
      const std::string where =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      EXPECT_EQ(got, order.size()) << where;
      EXPECT_EQ(order, want.splits) << where;
      EXPECT_EQ(leaves, want.leaves) << where;
      EXPECT_EQ(leaves_of(tree), want.leaves) << where;
      splits += got;
    }
  }
  EXPECT_GT(splits, 0u);
}

TEST(RippleBalance, NoSeedsSplitsNothing) {
  octree::Octree tree;
  tree.insert(LocCode::from_grid(5, 3, 4, 5));  // unbalanced
  std::vector<LocCode> leaves = leaves_of(tree);
  const std::vector<LocCode> before = leaves;
  EXPECT_EQ(octree::ripple_balance(leaves, {}, {},
                                   [](const LocCode&) { FAIL(); }),
            0u);
  EXPECT_EQ(leaves, before);
  EXPECT_FALSE(tree.is_balanced());
}

}  // namespace
}  // namespace pmo
