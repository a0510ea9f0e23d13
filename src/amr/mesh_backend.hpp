// Backend abstraction over the three octree implementations the paper
// evaluates (§5.1): in-core-octree (Gerris), out-of-core-octree (Etree),
// and PM-octree. The AMR workload driver (droplet ejection) runs
// unmodified on top of any of them; the cluster simulator instantiates one
// backend per simulated rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/morton.hpp"
#include "octree/cell_data.hpp"

namespace pmo::exec {
class ThreadPool;
}  // namespace pmo::exec

namespace pmo::amr {

/// Predicate deciding whether a leaf should be refined/coarsened.
using LeafPred = std::function<bool(const LocCode&, const CellData&)>;
/// Initializer for newly created children.
using ChildInit = std::function<void(const LocCode&, CellData&)>;
/// Mutable leaf visitor; returns true when it modified the cell.
using LeafMutFn = std::function<bool(const LocCode&, CellData&)>;
/// Read-only leaf visitor.
using LeafFn = std::function<void(const LocCode&, const CellData&)>;

/// One contiguous Morton range of an extracted leaf snapshot, as handed
/// to sweep_leaves_chunked() callbacks. `codes`/`cells` point at the FULL
/// sorted leaf arrays (all `leaves` entries) so a chunk can look up
/// neighbors outside its own [begin, end) range; the callback owns only
/// the indices inside its range.
struct LeafChunk {
  std::size_t index = 0;   ///< chunk ordinal in [0, chunks)
  std::size_t begin = 0;   ///< first leaf index of this chunk
  std::size_t end = 0;     ///< one past the last leaf index
  const LocCode* codes = nullptr;  ///< all leaves, Morton order
  const CellData* cells = nullptr;
  std::size_t leaves = 0;  ///< total leaf count of the snapshot

  /// Data of the leaf whose octant contains `code` (the snapshot
  /// equivalent of MeshBackend::sample, minus device charging): binary
  /// containment search over the sorted leaf array, short-circuited by
  /// `hint` when probes arrive in near-Morton order (the stencil gather
  /// pattern). Returns nullptr when no leaf covers the code (outside the
  /// refined domain).
  const CellData* find(const LocCode& code) const noexcept;

  /// Last candidate index served by find(). Purely an acceleration:
  /// find() verifies the hint before using it, so results never depend
  /// on probe order. Safe despite `mutable`: each chunk object is
  /// confined to a single callback invocation (one worker).
  mutable std::size_t hint = 0;

  /// Candidate-slot inspections (hint checks + binary-search steps)
  /// performed by find() on this chunk. Deterministic — the probe
  /// sequence within a chunk is fixed by the callback, and chunk bounds
  /// never depend on the thread count — so the per-sweep total is an
  /// exact modeled counter (amr.chunk.find_probes), the baseline of the
  /// face-neighbor-index perf gate.
  mutable std::uint64_t probes = 0;
};

/// Per-chunk callback of sweep_leaves_chunked.
using LeafChunkFn = std::function<void(const LeafChunk&)>;
/// Runs once after snapshot extraction, before any chunk callback, with
/// the total leaf count — the place to size per-leaf scratch arrays that
/// chunk callbacks then fill concurrently.
using LeafPrepareFn = std::function<void(std::size_t)>;

/// Structure-of-arrays leaf snapshot: the same Morton-sorted leaf
/// enumeration as the AoS snapshot of sweep_leaves_chunked, split into
/// parallel key/level/vof/tracer arrays so the solve kernels (the SIMD
/// gather, the interface-band mark kernel, the face-neighbor-index build)
/// stream one field at a time.
struct SoaLeaves {
  std::vector<std::uint64_t> keys;   ///< LocCode::key(), Morton order
  std::vector<std::uint8_t> levels;  ///< LocCode::level()
  std::vector<double> vof;
  std::vector<double> tracer;

  std::size_t size() const noexcept { return keys.size(); }
  void clear() noexcept {
    keys.clear();
    levels.clear();
    vof.clear();
    tracer.clear();
  }
  void push_back(const LocCode& code, const CellData& d) {
    keys.push_back(code.key());
    levels.push_back(static_cast<std::uint8_t>(code.level()));
    vof.push_back(d.vof);
    tracer.push_back(d.tracer);
  }
};

/// One contiguous Morton range of an SoA snapshot; `leaves` points at the
/// full arrays (neighbor slots resolved by a prebuilt index may land
/// outside [begin, end)), the callback owns only its own range's output
/// slots.
struct SoaLeafChunk {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  const SoaLeaves* leaves = nullptr;
};

using SoaLeafChunkFn = std::function<void(const SoaLeafChunk&)>;
/// Runs once after SoA extraction, before any chunk callback, with the
/// full snapshot — where per-leaf scratch is sized and the face-neighbor
/// index is built/validated (driver thread, deterministic order).
using SoaPrepareFn = std::function<void(const SoaLeaves&)>;

class MeshBackend {
 public:
  virtual ~MeshBackend() = default;

  virtual std::string name() const = 0;

  /// Morton-order sweep over all leaves with write-back of modifications.
  virtual void sweep_leaves(const LeafMutFn& fn) = 0;
  /// Region-restricted sweep: subtrees for which `visit_subtree` returns
  /// false are skipped entirely. Backends with hierarchical structure
  /// prune; the linear-octree baseline cannot and scans everything (one
  /// more pointer-free handicap, as in the paper).
  virtual void sweep_leaves_pruned(
      const std::function<bool(const LocCode&)>& visit_subtree,
      const LeafMutFn& fn) {
    sweep_leaves([&](const LocCode& code, CellData& d) {
      if (!visit_subtree(code)) return false;
      return fn(code, d);
    });
  }
  /// Read-only Morton-order leaf visit.
  virtual void visit_leaves(const LeafFn& fn) = 0;

  /// Chunked Morton-range sweep for data-parallel read phases (the
  /// droplet solver's stencil gather). The default implementation
  /// extracts the sorted leaf array with one charged visit_leaves pass —
  /// backend read paths mutate modeled state (PM heat tracking, the
  /// Etree buffer pool's LRU), so the snapshot is what makes concurrent
  /// consumption safe — then splits it into `chunks` contiguous ranges
  /// and runs `fn` once per chunk, on `pool` when given (nullptr or a
  /// 1-thread pool → sequentially, ascending chunk index). The
  /// decomposition depends only on (leaf count, chunks), never on the
  /// thread count, so a callback writing results into per-leaf slots is
  /// bit-deterministic across pools. `prepare`, if given, runs once
  /// before the first chunk with the total leaf count. Chunk callbacks
  /// MUST NOT touch the backend (no sample/sweep/refine): they read the
  /// snapshot, the single-writer CoW mutation phase stays with the
  /// caller.
  virtual void sweep_leaves_chunked(std::size_t chunks, const LeafChunkFn& fn,
                                    exec::ThreadPool* pool = nullptr,
                                    const LeafPrepareFn& prepare = nullptr);

  /// SoA variant of sweep_leaves_chunked: extracts the snapshot as
  /// separate key/level/vof/tracer arrays (same charged traversal, same
  /// Morton enumeration, same fixed chunk decomposition). The default
  /// implementation fills the arrays through visit_leaves; the PM backend
  /// overrides extraction to fill them straight from the tree. Chunk
  /// callbacks follow the sweep_leaves_chunked rules (snapshot-only, no
  /// backend access).
  virtual void sweep_leaves_chunked_soa(
      std::size_t chunks, const SoaLeafChunkFn& fn,
      exec::ThreadPool* pool = nullptr,
      const SoaPrepareFn& prepare = nullptr);

  /// Version stamp of the leaf SET (not the leaf data): any mutation that
  /// adds, removes or renames leaves — refine, coarsen, insert, remove —
  /// bumps it; pure data write-backs, CoW relocations, persists and
  /// layout transformations do not. Equal stamps (plus equal leaf counts)
  /// guarantee two snapshot extractions enumerate identical (key, level)
  /// arrays, which is the invalidation rule of the solve's face-neighbor
  /// index. The default implementation returns a fresh value on every
  /// call — "always changed" — so backends that do not track structure
  /// stay correct (the index just rebuilds every sweep).
  virtual std::uint64_t structure_version() {
    return fallback_structure_version_++;
  }

  /// Attaches (or detaches, with nullptr) an execution pool the backend
  /// may use to parallelize internal phases. No in-tree backend has one
  /// (the PM-octree merge is sequential); wrappers forward it. Results
  /// must not depend on whether a pool is attached.
  virtual void set_exec(exec::ThreadPool* /*pool*/) noexcept {}

  /// Refines every leaf matching `pred` one level; returns # splits.
  virtual std::size_t refine_where(const LeafPred& pred,
                                   const ChildInit& init = nullptr) = 0;
  /// Merges every all-leaf sibling group whose members match; returns #.
  virtual std::size_t coarsen_where(const LeafPred& pred) = 0;
  /// Enforces the 2:1 constraint; returns # leaves refined.
  virtual std::size_t balance() = 0;

  /// Data of the leaf containing `code` (for solver stencils).
  virtual CellData sample(const LocCode& code) = 0;

  virtual std::size_t leaf_count() = 0;

  /// End-of-time-step persistence hook: snapshot for the in-core octree,
  /// pm_persistent for PM-octree, fsync for Etree.
  virtual void end_step(int step) = 0;

  /// Restores state from the persistent medium after a (simulated) crash.
  /// Returns false when the backend cannot recover (e.g. nothing saved).
  virtual bool recover() = 0;

  // ---- accounting for the scaling/figure harnesses -----------------------
  /// Total modeled memory+I/O time so far, nanoseconds.
  virtual std::uint64_t modeled_ns() const = 0;
  /// NVBM write operations so far (Fig. 11's second metric).
  virtual std::uint64_t nvbm_writes() const = 0;
  /// Approximate resident bytes across DRAM and NVBM.
  virtual std::uint64_t memory_bytes() = 0;

 protected:
  /// Shared chunk dispatcher of the SoA sweep: fixed decomposition by
  /// (leaf count, chunks), pool fan-out with the same nesting guard as
  /// the AoS path. Backends that override extraction call this.
  static void dispatch_soa_chunks(const SoaLeaves& soa, std::size_t chunks,
                                  const SoaLeafChunkFn& fn,
                                  exec::ThreadPool* pool,
                                  const SoaPrepareFn& prepare);

 private:
  std::uint64_t fallback_structure_version_ = 0;
};

}  // namespace pmo::amr
