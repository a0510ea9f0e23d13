// Benchmark-side layer attribution: a MeshBackend decorator that times
// every call the droplet driver makes into the PM-octree backend, and
// every callback the driver hands in, from outside the library. A call's
// wall time splits into the backend's own time (`pmoctree`) and the time
// spent in the driver's callbacks (`amr`); the chunked SoA sweep further
// splits into extraction, the prepare callback (face-neighbor index), the
// chunk kernels and the pool's dispatch overhead (`exec`). NVBM lines
// read and written during each call are charged to its entry point.
// Nothing inside the library is instrumented; untraced runs use the
// backend directly.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>

#include "amr/mesh_backend.hpp"
#include "amr/pm_backend.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Backend entry points, grouped the way the report names them.
enum Entry {
  kSweep,    ///< sweep_leaves, sweep_leaves_pruned, visit_leaves
  kRefine,   ///< refine_where
  kCoarsen,  ///< coarsen_where
  kBalance,  ///< balance
  kSoa,      ///< sweep_leaves_chunked_soa
  kPersist,  ///< end_step
  kOther,    ///< leaf_count, structure_version, set_exec, sample
  kRecover,  ///< recover (not part of a step)
  kEntries
};

/// Totals of one entry point.
struct Probe {
  std::uint64_t ns = 0;     ///< wall time inside the call
  std::uint64_t cb_ns = 0;  ///< of which in the driver's callbacks
  std::uint64_t lines_read = 0;  ///< NVBM lines read during the call
  std::uint64_t lines_written = 0;
};

/// sweep_leaves_chunked_soa split by phase (wall ns).
struct SoaSplit {
  std::uint64_t extract = 0;      ///< call start -> prepare start
  std::uint64_t prepare = 0;      ///< prepare callback (neighbor index)
  std::uint64_t kernel_span = 0;  ///< first chunk start -> last chunk end
  std::uint64_t chunk_busy = 0;   ///< summed chunk callback time
};

class TimedBackend final : public pmo::amr::MeshBackend {
 public:
  explicit TimedBackend(pmo::amr::PmOctreeBackend& inner) : in_(inner) {}

  const Probe& probe(Entry e) const noexcept { return probes_[e]; }
  const SoaSplit& soa() const noexcept { return soa_; }
  /// Wall time inside step-time backend calls (recover excluded).
  std::uint64_t in_backend_ns() const noexcept {
    std::uint64_t t = 0;
    for (int e = 0; e < kRecover; ++e) t += probes_[e].ns;
    return t;
  }

  /// Wraps a feature function for PmOctreeBackend::register_feature so
  /// its time counts as callback time of the persist that samples it.
  pmo::pmoctree::FeatureFn timed_feature(pmo::pmoctree::FeatureFn fn) {
    return [this, fn = std::move(fn)](const pmo::LocCode& c,
                                      const pmo::CellData& d) {
      const std::uint64_t t0 = now_ns();
      const bool r = fn(c, d);
      probes_[kPersist].cb_ns += now_ns() - t0;
      return r;
    };
  }

  std::string name() const override { return in_.name(); }

  void sweep_leaves(const pmo::amr::LeafMutFn& fn) override {
    Call c(*this, kSweep);
    in_.sweep_leaves(timed(fn, kSweep));
  }
  void sweep_leaves_pruned(
      const std::function<bool(const pmo::LocCode&)>& visit_subtree,
      const pmo::amr::LeafMutFn& fn) override {
    Call c(*this, kSweep);
    in_.sweep_leaves_pruned(timed(visit_subtree, kSweep), timed(fn, kSweep));
  }
  void visit_leaves(const pmo::amr::LeafFn& fn) override {
    Call c(*this, kSweep);
    in_.visit_leaves(timed(fn, kSweep));
  }

  void sweep_leaves_chunked_soa(
      std::size_t chunks, const pmo::amr::SoaLeafChunkFn& fn,
      pmo::exec::ThreadPool* pool = nullptr,
      const pmo::amr::SoaPrepareFn& prepare = nullptr) override {
    // Chunk callbacks may run on pool workers: each records into its own
    // slot (chunk index), folded after the call returns.
    constexpr std::size_t kSlots = 64;
    std::array<std::uint64_t, kSlots> start{}, end{};
    std::uint64_t prep_start = 0, prep_end = 0;
    const std::uint64_t t0 = now_ns();
    {
      Call c(*this, kSoa);
      in_.sweep_leaves_chunked_soa(
          chunks,
          [&](const pmo::amr::SoaLeafChunk& ch) {
            const std::uint64_t s = now_ns();
            fn(ch);
            if (ch.index < kSlots) {
              start[ch.index] = s;
              end[ch.index] = now_ns();
            }
          },
          pool,
          [&](const pmo::amr::SoaLeaves& soa) {
            prep_start = now_ns();
            if (prepare) prepare(soa);
            prep_end = now_ns();
          });
    }
    std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < std::min(chunks, kSlots); ++i) {
      if (end[i] == 0) continue;  // chunk not run (empty snapshot)
      first = std::min(first, start[i]);
      last = std::max(last, end[i]);
      soa_.chunk_busy += end[i] - start[i];
    }
    if (prep_start != 0) {
      soa_.extract += prep_start - t0;
      soa_.prepare += prep_end - prep_start;
    }
    if (last > first) soa_.kernel_span += last - first;
  }

  std::uint64_t structure_version() override {
    Call c(*this, kOther);
    return in_.structure_version();
  }
  void set_exec(pmo::exec::ThreadPool* pool) noexcept override {
    Call c(*this, kOther);
    in_.set_exec(pool);
  }
  std::size_t refine_where(const pmo::amr::LeafPred& pred,
                           const pmo::amr::ChildInit& init) override {
    Call c(*this, kRefine);
    return in_.refine_where(timed(pred, kRefine),
                            init ? timed(init, kRefine) : nullptr);
  }
  std::size_t coarsen_where(const pmo::amr::LeafPred& pred) override {
    Call c(*this, kCoarsen);
    return in_.coarsen_where(timed(pred, kCoarsen));
  }
  std::size_t balance() override {
    Call c(*this, kBalance);
    return in_.balance();
  }
  pmo::CellData sample(const pmo::LocCode& code) override {
    Call c(*this, kOther);
    return in_.sample(code);
  }
  std::size_t leaf_count() override {
    Call c(*this, kOther);
    return in_.leaf_count();
  }
  void end_step(int step) override {
    Call c(*this, kPersist);
    in_.end_step(step);
  }
  bool recover() override {
    Call c(*this, kRecover);
    return in_.recover();
  }

  std::uint64_t modeled_ns() const override { return in_.modeled_ns(); }
  std::uint64_t nvbm_writes() const override { return in_.nvbm_writes(); }
  std::uint64_t memory_bytes() override { return in_.memory_bytes(); }

 private:
  /// Scope of one backend call: wall time and device line deltas.
  class Call {
   public:
    Call(TimedBackend& b, Entry e)
        : b_(b), p_(b.probes_[e]), t0_(now_ns()),
          r0_(b.device().lines_read), w0_(b.device().lines_written) {}
    ~Call() {
      p_.ns += now_ns() - t0_;
      p_.lines_read += b_.device().lines_read - r0_;
      p_.lines_written += b_.device().lines_written - w0_;
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    TimedBackend& b_;
    Probe& p_;
    std::uint64_t t0_, r0_, w0_;
  };

  const pmo::nvbm::Counters& device() {
    return in_.tree().device().counters();
  }

  /// Wraps a callback so its time is charged to entry `e`'s cb_ns.
  template <typename R, typename... A>
  std::function<R(A...)> timed(const std::function<R(A...)>& fn, Entry e) {
    std::uint64_t& cb = probes_[e].cb_ns;
    return [&fn, &cb](A... a) -> R {
      const std::uint64_t s = now_ns();
      if constexpr (std::is_void_v<R>) {
        fn(a...);
        cb += now_ns() - s;
      } else {
        R r = fn(a...);
        cb += now_ns() - s;
        return r;
      }
    };
  }

  pmo::amr::PmOctreeBackend& in_;
  std::array<Probe, kEntries> probes_{};
  SoaSplit soa_;
};

}  // namespace perfbench
