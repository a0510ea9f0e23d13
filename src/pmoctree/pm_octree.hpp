// PM-octree: persistent merged octree over DRAM + emulated NVBM.
//
// The data structure of the paper (§3). One logical octree, two versions:
//
//  * V_{i-1}: the last persisted version, entirely in NVBM, never mutated.
//    It is the recovery point; pm_restore() returns it in O(1).
//  * V_i: the working version. Hot subtrees (C0) live in DRAM, the rest
//    (C1) in NVBM. V_i shares every unmodified octant with V_{i-1}
//    (copy-on-write path copying, Fig. 4).
//
// Consistency argument (paper §1/§3): no per-write fence is needed because
// V_{i-1} is immutable while V_i is being built; the only update that must
// be atomic and durable is the 8-byte root-address swap at the end of
// persist(). The randomized crash-injection tests exercise precisely this.
//
// Epoch rule: every physical node records the persist epoch in which it
// was created. epoch < current  =>  node may be shared with V_{i-1}, so a
// mutation must copy it (and path-copy its ancestors). epoch == current
// =>  private to V_i, mutable in place. DRAM nodes are always private
// (V_{i-1} is NVBM-only by construction).
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nvbm/heap.hpp"
#include "octree/octree.hpp"
#include "pmoctree/config.hpp"
#include "pmoctree/node.hpp"
#include "pmoctree/node_cache.hpp"
#include "pmoctree/snapshot.hpp"
#include "telemetry/telemetry.hpp"

namespace pmo::pmoctree {

/// Application feature function (§3.3): returns true when the octant's
/// subdomain is "of interest" — e.g. the refinement predicate or a solver
/// touch predicate. Used by feature-directed sampling, never for physics.
using FeatureFn = std::function<bool(const LocCode&, const CellData&)>;

/// Result of one persist() call (drives Fig. 3 and the replica model).
struct PersistStats {
  std::size_t nodes_total = 0;    ///< octants in V_i at persist time
  std::size_t nodes_shared = 0;   ///< octants shared with V_{i-1}
  std::size_t merged_from_dram = 0;  ///< C0 octants written out to C1
  std::size_t gc_freed = 0;
  std::uint64_t delta_bytes = 0;  ///< replica delta size (new/changed nodes)
  double overlap_ratio = 0.0;     ///< shared / total (the paper's metric)
  /// Octants the merge actually processed (pruned-subtree roots are
  /// skipped in O(1) and count in pruned_subtrees instead). With
  /// dirty-subtree pruning this tracks the dirty frontier, not the tree
  /// size: after mutations to a small fraction of leaves,
  /// visits << nodes_total.
  std::size_t visits = 0;
  /// Clean subtrees skipped in O(1) via their durable twin.
  std::size_t pruned_subtrees = 0;
};

/// Point-in-time structural statistics.
struct PmStats {
  std::size_t nodes = 0;          ///< nodes reachable from V_i
  std::size_t leaves = 0;
  std::size_t dram_nodes = 0;     ///< C0 size in nodes
  std::size_t nvbm_nodes_vi = 0;  ///< V_i nodes resident in NVBM
  std::size_t unique_physical_nodes = 0;  ///< union of V_{i-1} and V_i
  std::size_t dram_bytes = 0;
  std::size_t nvbm_live_bytes = 0;
  std::size_t linear_records = 0;  ///< always 0; read only by perfbench
  int depth = 0;
};

/// Outcome of a dynamic layout transformation check (§3.3).
struct TransformStats {
  bool transformed = false;
  std::size_t subtrees_sampled = 0;
  std::size_t octants_sampled = 0;
  std::size_t moved_to_dram = 0;
  std::size_t evicted_to_nvbm = 0;
  double best_ratio = 0.0;  ///< Ratio_access that triggered (or not)
};

class PmOctree {
 public:
  /// pm_create with an empty (root-only) octree.
  static PmOctree create(nvbm::Heap& heap, PmConfig config = {});
  /// pm_create(octree*): adopts an existing in-core octree (Table 1).
  static PmOctree create_from(nvbm::Heap& heap, const octree::Octree& tree,
                              PmConfig config = {});
  /// pm_restore: attach to a heap holding a persisted version; V_i starts
  /// as an alias of V_{i-1}. O(1) — no octant is copied or read.
  static PmOctree restore(nvbm::Heap& heap, PmConfig config = {});
  /// True when the heap contains a restorable persisted version.
  static bool can_restore(nvbm::Heap& heap);

  PmOctree(PmOctree&&) noexcept = default;
  PmOctree& operator=(PmOctree&&) noexcept = delete;
  PmOctree(const PmOctree&) = delete;
  PmOctree& operator=(const PmOctree&) = delete;

  // ---- queries on the working version V_i --------------------------------

  /// Exact-match lookup; nullopt when the octant does not exist in V_i.
  std::optional<CellData> find(const LocCode& code);
  bool contains(const LocCode& code);
  /// True when the octant exists and has no children.
  bool is_leaf(const LocCode& code);
  /// Data of the leaf whose volume contains `code`.
  CellData sample(const LocCode& code);
  /// Locational code of the leaf containing `code`.
  LocCode leaf_containing(const LocCode& code);

  void for_each_leaf(
      const std::function<void(const LocCode&, const CellData&)>& fn);
  /// Mutable leaf visit. `fn` returns true when it modified the data; the
  /// tree then performs the copy-on-write write-back along the current
  /// DFS path (no re-descent).
  void for_each_leaf_mut(
      const std::function<bool(const LocCode&, CellData&)>& fn);
  /// Like for_each_leaf_mut, but subtrees for which `visit` returns false
  /// are pruned from the traversal (region-restricted solver sweeps).
  void for_each_leaf_mut_pruned(
      const std::function<bool(const LocCode&)>& visit,
      const std::function<bool(const LocCode&, CellData&)>& fn);
  void for_each_node(const std::function<void(const LocCode&, const CellData&,
                                              bool leaf)>& fn);
  /// Extended node visit that also reports the residence tier (for tests
  /// and layout diagnostics).
  void for_each_node_ex(
      const std::function<void(const LocCode&, const CellData&, bool leaf,
                               bool in_dram)>& fn);
  /// Read-only traversal of the persisted version V_{i-1}. Sugar for the
  /// snapshot overload against the latest durable epoch.
  void for_each_leaf_prev(
      const std::function<void(const LocCode&, const CellData&)>& fn);
  /// Read-only traversal of an explicitly pinned persisted version —
  /// for_each_leaf_prev generalized beyond the implicit latest V_{i-1}.
  /// Owner-thread only (charged through the tree's nv_load path);
  /// concurrent readers use the src/serve engine instead.
  void for_each_leaf_snapshot(
      const SnapshotHandle& snap,
      const std::function<void(const LocCode&, const CellData&)>& fn);

  /// Charged SoA leaf extraction: appends every V_i leaf, in the same
  /// Morton (DFS pre-order) enumeration as for_each_leaf, into parallel
  /// key/level/vof/tracer arrays — the snapshot shape the SIMD solve
  /// kernels consume. Every node goes through the normal read_node
  /// charging.
  void extract_leaves_soa(std::vector<std::uint64_t>& keys,
                          std::vector<std::uint8_t>& levels,
                          std::vector<double>& vof,
                          std::vector<double>& tracer);

  std::size_t node_count();
  std::size_t leaf_count();
  int depth() const noexcept { return depth_; }
  bool has_prev_version() const noexcept { return !prev_root_.null(); }

  // ---- mutation of V_i ----------------------------------------------------

  /// Ensures the octant exists (creating ancestors as needed) and sets its
  /// payload. Copy-on-write applies to any shared node on the path.
  void insert(const LocCode& code, const CellData& data);
  /// Updates an existing octant's payload (Fig. 4b).
  void update(const LocCode& code, const CellData& data);
  /// Removes the subtree rooted at `code` from V_i. NVBM octants still
  /// referenced by V_{i-1} are tombstoned, not freed (§3.2, Deletion).
  void remove(const LocCode& code);
  /// Splits a leaf into 8 children (children inherit data; `init` may
  /// override).
  void refine(const LocCode& leaf,
              const std::function<void(const LocCode&, CellData&)>& init =
                  nullptr);
  /// Drops all (leaf) children of `parent` in V_i, averaging their data
  /// into the parent.
  void coarsen(const LocCode& parent);

  std::size_t refine_where(
      const std::function<bool(const LocCode&, const CellData&)>& pred,
      const std::function<void(const LocCode&, CellData&)>& init = nullptr);
  std::size_t coarsen_where(
      const std::function<bool(const LocCode&, const CellData&)>& pred);
  /// 2:1 balance of V_i: one leaf enumeration, then the seeded ripple
  /// kernel (octree/balance.hpp) over the seed log. Returns the number of
  /// leaves split.
  std::size_t balance();
  /// Brute-force 2:1 check of every leaf, independent of the seed log.
  bool is_balanced();

  // ---- persistence & versioning -------------------------------------------

  /// pm_persistent: merge C0 into C1, make V_i durable, atomically swap the
  /// persistent root, free the retired objects no pinned version can reach
  /// (the first persist after restore() runs the full gc() instead), and
  /// run the dynamic layout transformation.
  PersistStats persist();

  /// Full mark-and-sweep: frees every NVBM object unreachable from both
  /// roots and every pinned snapshot; returns the count. The recovery
  /// collector — the first persist after restore() runs it once to
  /// reclaim crash orphans; other persists free only their retire list.
  std::size_t gc();

  // ---- snapshot pinning & epoch-based reclamation --------------------------

  /// Pins the latest durable version (the epoch sealed by the last
  /// persist()) and returns a refcounted handle onto it. While any handle
  /// on an epoch lives, every node reachable from that version keeps its
  /// bytes: a retired object stays allocated while its epoch range holds a
  /// pinned epoch, and shared-subtree removal skips its tombstone write so
  /// the mutator never writes into bytes a pinned reader may be reading.
  /// Pinning and releasing are safe from any thread; everything else on
  /// this class stays owner-thread-only. Requires has_prev_version().
  SnapshotHandle pin_snapshot();
  /// Distinct epochs currently pinned.
  std::size_t pinned_epochs() const noexcept {
    return registry_->pin_count();
  }
  /// Nodes the last reclamation kept alive solely because a pinned
  /// snapshot could still reach them: the pin-blocked retire entries.
  std::size_t deferred_reclaim_nodes() const noexcept {
    return deferred_nodes_;
  }
  /// Lifetime high-water mark of deferred_reclaim_nodes().
  std::size_t deferred_reclaim_high_water() const noexcept {
    return deferred_hwm_;
  }
  /// Lifetime pin / unpin totals (mirrored to pmoctree.snapshot.*).
  std::uint64_t snapshot_pins() const { return registry_->pins_taken(); }
  std::uint64_t snapshot_unpins() const {
    return registry_->pins_released();
  }
  /// Epoch of the latest durable (pinnable) version; 0 when nothing has
  /// been persisted yet. Unlike epoch(), safe from any thread — serve
  /// readers poll it to measure snapshot staleness.
  std::uint32_t snapshot_published_epoch() const {
    return registry_->published().epoch;
  }

  /// pm_delete: frees all octants in both tiers and clears the roots.
  void destroy();

  // ---- feature-directed sampling / layout (§3.3) --------------------------

  void register_feature(FeatureFn fn) {
    features_.push_back(std::move(fn));
  }

  /// Runs the transformation check and, when Ratio_access > T_transform,
  /// re-lays out the tree (hot NVBM subtree into DRAM, coldest C0 subtree
  /// out). Called automatically by persist(); exposed for tests/ablations.
  /// The census walk is uncharged (collect_census).
  TransformStats maybe_transform();

  /// Feature-directed sampling census of one subtree bucket (§3.3). The
  /// persist-time merge collects these on the fly so the transformation
  /// needs no extra tree traversal.
  struct SampleBucket {
    std::vector<std::pair<LocCode, CellData>> sample;
    std::size_t size = 0;
    std::size_t dram = 0;
  };
  using SampleCensus =
      std::unordered_map<LocCode, SampleBucket, LocCodeHash>;

  /// The paper's Eq. 1 subtree level, from current depth and DRAM budget.
  int subtree_level() const noexcept;

  /// C0 DRAM budget in bytes.
  std::size_t dram_budget() const noexcept {
    return config_.dram_budget_bytes;
  }

  // ---- accounting ----------------------------------------------------------

  PmStats stats();
  const DramCounters& dram_counters() const noexcept { return dram_; }
  const PmConfig& config() const noexcept { return config_; }
  /// Toggle for PmConfig::crash_before_flush_for_test on a live tree —
  /// crash tests persist normally first, then arm the hook for the
  /// persist they want to die inside.
  void set_crash_before_flush_for_test(bool on) noexcept {
    config_.crash_before_flush_for_test = on;
  }
  nvbm::Heap& heap() noexcept { return heap_; }
  nvbm::Device& device() noexcept { return heap_.device(); }
  std::uint32_t epoch() const noexcept { return epoch_; }
  /// Root of the working version V_i (ADDR(V_i) in the paper).
  NodeRef current_root() const noexcept { return cur_root_; }
  /// Root of the persisted version V_{i-1} (ADDR(V_{i-1})).
  NodeRef previous_root() const noexcept { return prev_root_; }
  /// Total modeled memory time (DRAM + NVBM) in nanoseconds.
  std::uint64_t modeled_ns() const;
  /// Number of C0->C1 subtree merges forced by DRAM pressure (the merge
  /// count the paper reports in the Fig. 10 DRAM-size study).
  std::size_t eviction_merges() const noexcept { return eviction_merges_; }
  /// Lifetime hit/miss/eviction/invalidation counts of the hot-node cache
  /// (all zero when config().node_cache_bytes == 0).
  const NodeCache::Stats& node_cache_stats() const noexcept {
    return cache_.stats();
  }
  struct PageCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  /// Always zero; read only by perfbench.
  PageCacheStats page_cache_stats() const noexcept { return {}; }
  /// Total path entries served from traversal cursors instead of fresh
  /// descends. Execution-layer telemetry: cursor reuse is modeled-charge
  /// transparent, so this moves with worker scheduling, never with the
  /// modeled counters.
  std::uint64_t cursor_reuse() const noexcept { return cursor_reuse_; }
  /// Version stamp of the leaf SET: bumped only by mutations that change
  /// which octants exist — insert-created nodes, refine, coarsen,
  /// remove. Data updates, CoW relocations, persist, GC and layout
  /// transformation leave it unchanged (they move bytes, not octants).
  /// Distinct from structure_version_, which invalidates traversal
  /// cursors and therefore must also bump on relocation. Equal stamps
  /// guarantee identical (key, level) leaf enumerations — the
  /// invalidation contract of the solve's face-neighbor index.
  std::uint64_t topology_version() const noexcept {
    return topology_version_;
  }
  void reset_counters();

  // Durable root-table slots (public for tests & crash tooling).
  static constexpr int kPrevRootSlot = 0;
  static constexpr int kEpochSlot = 1;
  /// Logical octant count of the persisted version, written (before the
  /// root swap) so restore() recovers nodes_total without a traversal.
  static constexpr int kNodeCountSlot = 2;

 private:
  PmOctree(nvbm::Heap& heap, PmConfig config);

  // node access layer ------------------------------------------------------
  PNode read_node(NodeRef ref);
  void write_node(NodeRef ref, const PNode& node);
  NodeRef alloc_node(const PNode& proto, bool prefer_dram);
  /// A DRAM node slot (recycled or new), counted in C0.
  PNode* take_dram_slot();
  /// Stores `node` when `ref` is a DRAM node; false for NVBM refs.
  bool store_dram(NodeRef ref, const PNode& node);
  void free_node(NodeRef ref);
  void charge_dram_read(std::uint64_t nodes = 1);
  void charge_dram_write(std::uint64_t nodes = 1);
  void touch_heat(const LocCode& code, double amount);
  /// Cache-aware NVBM node read: serves hits from the hot-node cache at
  /// DRAM latency, admits misses. The descent path's only NVBM read.
  PNode nv_load(std::uint64_t offset);
  /// NVBM node store with cache write-through. Every PNode store to the
  /// device MUST go through here (or write_node) to keep the cache
  /// coherent within an epoch.
  void nv_store(std::uint64_t offset, const PNode& node);
  /// Immediate NVBM free of an object no sealed version references.
  void nv_free(std::uint64_t offset);
  /// Partial NVBM node store: writes only [field_off, field_off+len) of
  /// the node image (one child slot, the children array, the data..epoch
  /// tail), charging the device for the touched lines only. Full-node
  /// stores were the dominant write amplifier on the mutation path; every
  /// partial-store site guarantees the untouched device bytes already
  /// equal `full`'s, so the stored image is identical to a full store.
  /// The cache stays coherent via a full-node update.
  void nv_store_partial(std::uint64_t offset, std::size_t field_off,
                        std::size_t len, const PNode& full);
  /// Partial store of the children array and the flags word (the child
  /// presence mask); no heat.
  void nv_store_children(std::uint64_t offset, const PNode& node);

  // placement --------------------------------------------------------------
  LocCode subtree_id(const LocCode& code) const;
  /// Placement for brand-new octants (insert/refine children): DRAM while
  /// there is headroom, or while the octant's subtree is C0-designated
  /// (hot), matching "an octant inserted into C0 is eventually merged out
  /// to C1" (§3.2).
  bool place_new(const LocCode& code) const;
  /// True when the octant's subtree is C0-designated (hot) and the DRAM
  /// overflow ceiling is not yet hit. Used by place_new; hot subtrees may
  /// transiently exceed the plain budget.
  bool place_cow(const LocCode& code) const;
  std::size_t dram_bytes() const noexcept {
    return dram_node_count_ * sizeof(PNode);
  }
  void enforce_dram_budget();

  // structural helpers ------------------------------------------------------
  struct PathEntry {
    NodeRef ref;
    PNode node;
  };
  using Path = std::vector<PathEntry>;
  /// Traversal cursor: a copy of the last descend's root-to-node path,
  /// one per exec context (worker). A cursor is valid only while the tree
  /// is untouched (same epoch, same structure version, same root); a
  /// valid cursor lets the next descend reuse the path prefix down to the
  /// longest common ancestor of the two locational codes — computed from
  /// the codes alone — and re-read only the divergent suffix. Reuse is
  /// modeled-charge TRANSPARENT: each reused entry performs exactly the
  /// accounting (and node-cache side effects) a fresh read would, so the
  /// modeled counters stay a pure function of the per-tree op sequence no
  /// matter which worker ran which op (the exec determinism contract).
  /// What reuse saves is real work: the device/pool memcpys and child
  /// link chasing for the shared prefix.
  struct Cursor {
    Path path;
    std::uint32_t stamp = 0;     ///< epoch_ at fill time
    std::uint64_t version = 0;   ///< structure_version_ at fill time
  };
  /// This context's cursor; nullptr when the cache/cursor layer is off.
  Cursor* cursor();
  /// Descends from the V_i root to the deepest existing ancestor of
  /// `code`; fills `path` (path[0] = root). Returns true when the exact
  /// octant exists (path.back() is it). Seeds from this worker's cursor
  /// when valid.
  bool descend(const LocCode& code, Path& path);
  /// Makes path[i]'s node mutable in place (copy-on-write as needed),
  /// updating the path and parent links. Returns the (possibly new) ref.
  NodeRef make_mutable(Path& path, std::size_t i);
  /// Write-back of a leaf-data mutation along a traversal path: DRAM in
  /// place, NVBM via a data..epoch tail partial store (the code/parent/
  /// children prefix is unchanged by construction).
  void write_back_data(PathEntry& e);
  /// Write-back of a single-child-slot relink (CoW parent fix-up, remove,
  /// subtree replacement).
  void write_back_child(NodeRef ref, const PNode& node, int ci);
  /// Write-back of a children-array-only change (sibling-group creation,
  /// refine, merge/eviction relinks).
  void write_back_children(NodeRef ref, const PNode& node);
  /// Converts the whole subtree to NVBM residence (the eviction path of
  /// the merge routine: the DRAM copies are dropped).
  NodeRef nvbmify(NodeRef ref, std::size_t* moved);
  /// The persist-time merge: ensures every octant of V_i has an NVBM
  /// representative. DRAM octants get durable *twins* (reused when the
  /// octant and its subtree are unchanged since the last persist); the
  /// DRAM copies remain as the working C0. Returns the persistent ref and
  /// whether it differs from the previous version's.
  struct MergeResult {
    NodeRef wref;           ///< working-version ref (may change: NVBM
                            ///< nodes above DRAM children migrate to DRAM)
    NodeRef pref;           ///< persistent-version ref (always NVBM)
    bool changed = false;   ///< pref differs from the previous version's
  };
  /// Bookkeeping of one merge walk.
  struct MergeCtx {
    PersistStats& stats;
    std::size_t changed = 0;  ///< octants new vs V_{i-1}
    /// Split NVBM nodes: freed after the walk, so the walk's allocations
    /// never reuse them.
    std::vector<std::uint64_t> splits;
  };
  /// The sequential path-copying merge from `ref` (persist step 1).
  /// NVBM loads are raw device loads: the merge neither reads nor warms
  /// the node cache.
  MergeResult persist_subtree(NodeRef ref, MergeCtx& ctx);
  /// Records `off` as the durable twin of DRAM octant `slot`, retiring
  /// the twin it replaces.
  void install_twin(const PNode* slot, std::uint64_t off);
  /// Stamps kNodeSubtreeDirty on the DRAM prefix of path[0..i] (the
  /// mutation's ancestor chain). NVBM entries are skipped: a shared NVBM
  /// ancestor gets CoW-copied (fresh epoch) before any descendant
  /// mutation lands, and epoch == current already forces a merge visit.
  void mark_dirty_path(Path& path, std::size_t i);
  /// Standalone post-merge sampling census walk (read-only, sequential).
  /// Decoupled from the merge so pruning cannot starve the
  /// transformation's sample of clean subtrees.
  void collect_census(NodeRef ref, SampleCensus& census);
  /// Adds one octant to the sampling census (reservoir per subtree).
  void census_add(SampleCensus& census, const LocCode& code,
                  const CellData& data, bool in_dram);
  /// Transformation decision/relayout over a precollected census.
  TransformStats transform_with(SampleCensus& census);
  /// Copies/moves an NVBM subtree into DRAM (layout transformation).
  NodeRef dramify(NodeRef ref, std::size_t* moved, std::size_t node_limit);
  /// Moves the subtree at `id` into DRAM (dramify) or out to NVBM
  /// (nvbmify), relinks its parent and updates the C0 set.
  void relayout(const LocCode& id, bool to_dram, std::size_t* moved,
                std::size_t node_limit);
  /// Marks every NVBM node reachable from `root`.
  void collect_reachable_nvbm(NodeRef root,
                              std::unordered_set<std::uint64_t>& out);
  /// Charged pre-order DFS from `root` (children in slot order).
  void walk_from(NodeRef root,
                 const std::function<void(const LocCode&, const CellData&,
                                          bool leaf, bool in_dram)>& fn);
  /// Leaf-only walk_from: for_each_leaf and the prev/snapshot traversals.
  void for_each_leaf_from(
      NodeRef root,
      const std::function<void(const LocCode&, const CellData&)>& fn);
  /// Returns the number of logical octants removed from V_i. Private
  /// nodes are freed, shared ones retired.
  std::size_t free_subtree(NodeRef ref, bool tombstone_shared);

  // reclamation (DESIGN.md §9) ---------------------------------------------
  /// A durable object that left the working version; the sealed versions
  /// birth .. death-1 can reach it.
  struct Retired {
    std::uint64_t off;
    std::uint32_t birth, death;
  };
  /// First sealed epoch holding the node at `off`.
  std::uint32_t birth_of(std::uint64_t off, std::uint32_t epoch_field) const {
    const auto it = born_late_.find(off);
    return it == born_late_.end() ? epoch_field : it->second;
  }
  /// Records that the object at `off` leaves the version being built.
  void retire(std::uint64_t off, std::uint32_t birth) {
    retired_.push_back({off, birth, epoch_});
  }
  /// Frees, in ascending offset order, every retired object no pinned
  /// epoch can reach. Returns the number freed.
  std::size_t drain_retired();
  /// Shared tail of drain_retired() and gc(): pin-only count, telemetry.
  std::size_t reclaimed(std::size_t freed);

  void note_depth(int level) noexcept {
    if (level > depth_) depth_ = level;
  }
  /// Logs a refine (its 8 children) or a coarsen (the parent) as balance
  /// seeds (see refined_seeds_).
  void log_seed(const LocCode& parent, bool coarsened);

  /// Cached handles into the process-global telemetry registry, resolved
  /// once at construction so the increment paths are single relaxed
  /// atomics (no name lookup). All counters aggregate across PmOctree
  /// instances; benches delta around a run to isolate one tree.
  struct TelemetryCounters {
    telemetry::Counter* cow_copies;        ///< pmoctree.cow_copies
    telemetry::Counter* twin_reuse;        ///< pmoctree.merge.twin_reuse
    telemetry::Counter* merged_from_dram;  ///< pmoctree.merge.merged_from_dram
    telemetry::Counter* evictions;         ///< pmoctree.merge.evictions
    telemetry::Counter* persists;          ///< pmoctree.persists
    telemetry::Counter* gc_sweeps;         ///< pmoctree.gc.sweeps (passes)
    telemetry::Counter* gc_freed;          ///< pmoctree.gc.freed
    telemetry::Counter* transform_runs;    ///< pmoctree.transform.runs
    telemetry::Counter* transform_moved_to_dram;
    telemetry::Counter* transform_evicted_to_nvbm;
    telemetry::Counter* cache_hits;          ///< pmoctree.cache.hits
    telemetry::Counter* cache_misses;        ///< pmoctree.cache.misses
    telemetry::Counter* cache_evictions;     ///< pmoctree.cache.evictions
    telemetry::Counter* cache_invalidations; ///< pmoctree.cache.invalidations
    telemetry::Counter* cursor_lca_reuse;    ///< pmoctree.cursor.lca_reuse
    telemetry::Counter* persist_visits;      ///< pmoctree.persist.visits
    telemetry::Counter* persist_pruned;  ///< pmoctree.persist.pruned_subtrees
  };

  // state --------------------------------------------------------------------
  nvbm::Heap& heap_;
  PmConfig config_;
  TelemetryCounters tm_;

  std::deque<PNode> dram_pool_;
  std::vector<PNode*> dram_free_;
  std::size_t dram_node_count_ = 0;
  /// Durable twin (offset, birth epoch) of each DRAM octant, recorded at
  /// the last persist. A DRAM node whose epoch is older than the current
  /// one and whose children's persistent refs are unchanged reuses its
  /// twin — that is how C0 octants participate in version sharing
  /// (Fig. 2).
  struct Twin {
    std::uint64_t off;
    std::uint32_t birth;
  };
  std::unordered_map<const PNode*, Twin> twins_;

  NodeRef cur_root_;
  NodeRef prev_root_;
  /// Pin table shared with every SnapshotHandle (shared_ptr so handles
  /// survive tree moves). The ONLY tree state reader threads may touch.
  std::shared_ptr<SnapshotRegistry> registry_;
  /// The retire list: superseded CoW originals and twins and cut-off
  /// shared nodes, not freed yet (DESIGN.md §9).
  std::vector<Retired> retired_;
  /// Eviction copies of clean C0 nodes keep an older PNode::epoch than
  /// the epoch that first seals them: offset -> that epoch.
  std::unordered_map<std::uint64_t, std::uint32_t> born_late_;
  /// Set by restore(): the next persist runs gc() to reclaim crash
  /// orphans.
  bool recovery_gc_ = false;
  std::size_t deferred_nodes_ = 0;  ///< kept alive only by pins, last drain
  std::size_t deferred_hwm_ = 0;
  std::uint32_t epoch_ = 1;
  int depth_ = 0;
  /// Logical octant count of V_i, maintained incrementally by every
  /// structural mutation (insert/refine add, remove/coarsen subtract).
  /// This is what PersistStats::nodes_total reports — the merge no longer
  /// traverses the whole tree, so it cannot count.
  std::size_t logical_nodes_ = 0;
  /// Balance seed log: the children refine() created and the parents
  /// coarsen() collapsed since the last balance(). When seeds_all_ is set
  /// (a new or restored tree, insert() of new octants, remove(), or a log
  /// that outgrew the tree) the next balance() seeds every leaf instead.
  std::vector<LocCode> refined_seeds_;
  std::vector<LocCode> coarsened_seeds_;
  bool seeds_all_ = true;

  std::vector<FeatureFn> features_;
  /// Access heat per subtree id (decayed at each persist).
  std::unordered_map<LocCode, double, LocCodeHash> heat_;
  /// Subtree ids currently designated DRAM-resident (the C0 set).
  std::unordered_set<LocCode, LocCodeHash> c0_set_;

  /// Hot-node cache over NVBM-resident octants (empty when
  /// node_cache_bytes == 0); see node_cache.hpp for the coherence rules.
  NodeCache cache_;
  /// Per-exec-context traversal cursors, grown on demand. Safe without
  /// locks: a PmOctree is confined to one logical owner at a time (see
  /// the Device thread-compatibility note), so cursor slots are never
  /// touched concurrently.
  std::vector<Cursor> cursors_;
  /// Bumped by every mutation of tree storage (node writes, allocations,
  /// frees, merges, transforms); cursors snapshot it and self-invalidate
  /// when it moves.
  std::uint64_t structure_version_ = 0;
  /// Leaf-SET stamp (see topology_version()); a strict subset of
  /// structure_version_'s triggers.
  std::uint64_t topology_version_ = 0;
  std::uint64_t cursor_reuse_ = 0;

  DramCounters dram_;
  std::size_t eviction_merges_ = 0;
  mutable Rng rng_{0xfeedc0de};
};

}  // namespace pmo::pmoctree
