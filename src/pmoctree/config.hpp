// PM-octree tuning knobs. Defaults follow the paper's prototype.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pmo::pmoctree {

struct PmConfig {
  /// DRAM budget for the C0 tree in bytes (the experiments' "DRAM size
  /// configured for C0": 1–8 GB on Titan, scaled down here).
  std::size_t dram_budget_bytes = std::size_t{64} << 20;

  /// Evict the least-frequently-accessed C0 subtree when C0 usage exceeds
  /// this fraction of the budget (the paper's threshold_DRAM expressed as
  /// a fraction of available DRAM).
  double threshold_dram = 1.0;

  /// Layout transformation fires when the hottest NVBM subtree's sampled
  /// access frequency exceeds T_transform times the coldest C0 subtree's.
  double t_transform = 1.5;

  /// Octants sampled per subtree: min(n_sample, subtree size) (§3.3).
  std::size_t n_sample = 100;

  /// Hot (C0-designated) subtrees may transiently exceed the DRAM budget
  /// by this factor between merge points; enforce_dram_budget() then
  /// evicts the least-frequently-accessed subtrees back down to budget.
  double dram_overflow = 1.5;

  /// Master switch for dynamic layout transformation (Fig. 11 ablation).
  bool enable_transform = true;

  /// Persist-time dirty-subtree pruning: the merge skips an entirely
  /// clean DRAM subtree in O(1) by reusing its durable twin, guided by
  /// the kNodeSubtreeDirty summary bits stamped up the ancestor path on
  /// every mutation. Off = the merge re-verifies child refs recursively
  /// (the pre-pruning behaviour); the persisted image is bit-identical
  /// either way.
  bool persist_pruning = true;

  /// DRAM access latencies used for modeled-time accounting (Table 2).
  std::uint64_t dram_read_ns = 60;
  std::uint64_t dram_write_ns = 60;

  /// Cache-line size used to convert node accesses to latency units.
  std::size_t cache_line = 64;

  /// DRAM budget (bytes) of the epoch-validated hot-node cache on the
  /// descent read path: NVBM-resident octants read via the node accessor
  /// are kept in DRAM and served at DRAM latency until invalidated by the
  /// CoW epoch rule (see DESIGN.md §8). 0 disables the cache AND the
  /// traversal cursors — the pure re-descend-from-root baseline.
  std::size_t node_cache_bytes = std::size_t{4} << 20;

  /// TEST HOOK (crash injection): when true, persist() returns right
  /// after the merge — before flush_all() and the root swap — emulating a
  /// process death with every merge write still sitting unflushed in the
  /// crash simulator's write buffer. The tree object is inconsistent
  /// afterwards and must be abandoned; only Device::simulate_crash +
  /// restore are meaningful.
  bool crash_before_flush_for_test = false;

  /// Keep a remote replica of V_{i-1} and ship deltas at each persist
  /// (§3.4 second scenario). Costs are modeled through cluster::LinkModel.
  bool enable_replica = false;
};

/// Access/latency accounting for the DRAM side (the device tracks NVBM).
struct DramCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t lines_read = 0;
  std::uint64_t lines_written = 0;
  std::uint64_t modeled_read_ns = 0;
  std::uint64_t modeled_write_ns = 0;

  std::uint64_t modeled_ns() const noexcept {
    return modeled_read_ns + modeled_write_ns;
  }
};

}  // namespace pmo::pmoctree
