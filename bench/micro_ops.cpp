// Micro-benchmarks (google-benchmark) for the substrate operations:
// Morton codes, device latency model, heap allocation, PM-octree ops and
// the baseline index. These are sanity/regression benches, not paper
// figures.
//
// Unlike the figure benches this one has a custom main: a reporter
// subclass mirrors every run into the BenchReport JSON table while the
// stock console output stays untouched, and `--json <path>` is stripped
// from argv before google-benchmark parses its own flags.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "amr/mesh_backend.hpp"
#include "amr/neighbor_index.hpp"
#include "baseline/bptree.hpp"
#include "bench_report.hpp"
#include "common/simd.hpp"
#include "serve/reader.hpp"

using namespace pmo;

namespace {

void BM_MortonEncode(benchmark::State& state) {
  Rng rng(1);
  std::uint32_t x = 123456, y = 654321, z = 111111;
  for (auto _ : state) {
    benchmark::DoNotOptimize(morton_encode3(x, y, z));
    x += 7;
    y += 13;
    z += 29;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_MortonDecode(benchmark::State& state) {
  std::uint64_t code = 0x123456789abcull;
  for (auto _ : state) {
    benchmark::DoNotOptimize(morton_decode3(code));
    code += 1234567;
  }
}
BENCHMARK(BM_MortonDecode);

void BM_LocCodeNeighbor(benchmark::State& state) {
  const auto code = LocCode::from_grid(8, 100, 150, 200);
  LocCode out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.neighbor(1, -1, 0, out));
  }
}
BENCHMARK(BM_LocCodeNeighbor);

void BM_DeviceWriteModeled(benchmark::State& state) {
  nvbm::Device dev(16 << 20, bench::device_config());
  std::uint64_t v = 42;
  std::uint64_t off = 0;
  for (auto _ : state) {
    dev.write(off, &v, sizeof(v));
    off = (off + 64) & ((16 << 20) - 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DeviceWriteModeled);

void BM_DeviceWriteInjected(benchmark::State& state) {
  nvbm::Config cfg = bench::device_config();
  cfg.latency_mode = nvbm::LatencyMode::kInjected;  // real 150ns spins
  nvbm::Device dev(16 << 20, cfg);
  std::uint64_t v = 42;
  std::uint64_t off = 0;
  for (auto _ : state) {
    dev.write(off, &v, sizeof(v));
    off = (off + 64) & ((16 << 20) - 64);
  }
}
BENCHMARK(BM_DeviceWriteInjected);

void BM_DeviceWriteCrashSim(benchmark::State& state) {
  // The store-heavy write path with crash simulation on: every write is a
  // line-granular dirty-bitmap test-and-set, periodically drained by
  // flush_all (the persist-point writeback). This is the path the bitmap
  // replaced an unordered_set on.
  nvbm::Config cfg = bench::device_config();
  cfg.crash_sim = true;
  nvbm::Device dev(16 << 20, cfg);
  std::uint64_t v = 42;
  std::uint64_t off = 0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    dev.write(off, &v, sizeof(v));
    off = (off + 64) & ((16 << 20) - 64);
    if ((++n & 0xffff) == 0) dev.flush_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DeviceWriteCrashSim);

void BM_HeapAllocFree(benchmark::State& state) {
  nvbm::Device dev(64 << 20, bench::device_config());
  nvbm::Heap heap(dev);
  for (auto _ : state) {
    const auto off = heap.alloc(sizeof(pmoctree::PNode));
    heap.free(off);
  }
}
BENCHMARK(BM_HeapAllocFree);

void BM_PmInsert(benchmark::State& state) {
  nvbm::Device dev(std::size_t{1} << 30, bench::device_config());
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = static_cast<std::size_t>(state.range(0));
  auto tree = pmoctree::PmOctree::create(heap, pm);
  Rng rng(7);
  CellData d;
  for (auto _ : state) {
    const int level = 4;
    const std::uint32_t side = 1u << level;
    const auto code = LocCode::from_grid(
        level, static_cast<std::uint32_t>(rng.below(side)),
        static_cast<std::uint32_t>(rng.below(side)),
        static_cast<std::uint32_t>(rng.below(side)));
    tree.insert(code, d);
  }
}
BENCHMARK(BM_PmInsert)->Arg(0)->Arg(64 << 20)
    ->ArgNames({"dram_budget"});

void BM_PmUpdateShared(benchmark::State& state) {
  // Copy-on-write update cost right after a persist (worst case).
  nvbm::Device dev(std::size_t{1} << 30, bench::device_config());
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = 0;
  auto tree = pmoctree::PmOctree::create(heap, pm);
  for (int l = 0; l < 3; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  CellData d;
  Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    tree.persist();  // make everything shared again
    state.ResumeTiming();
    const auto code = LocCode::from_grid(
        3, static_cast<std::uint32_t>(rng.below(8)),
        static_cast<std::uint32_t>(rng.below(8)),
        static_cast<std::uint32_t>(rng.below(8)));
    tree.update(code, d);
  }
}
BENCHMARK(BM_PmUpdateShared)->Iterations(200);

void BM_PmPersist(benchmark::State& state) {
  nvbm::Device dev(std::size_t{1} << 30, bench::device_config());
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = 16 << 20;
  auto tree = pmoctree::PmOctree::create(heap, pm);
  for (int l = 0; l < 3; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  CellData d;
  Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    // Dirty ~10% of leaves between persists.
    for (int i = 0; i < 50; ++i) {
      const auto code = LocCode::from_grid(
          3, static_cast<std::uint32_t>(rng.below(8)),
          static_cast<std::uint32_t>(rng.below(8)),
          static_cast<std::uint32_t>(rng.below(8)));
      d.vof = rng.uniform();
      tree.update(code, d);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(tree.persist());
  }
}
BENCHMARK(BM_PmPersist)->Iterations(50);

void BM_PersistIncremental(benchmark::State& state) {
  // The dirty-subtree pruning fast path: after a full persist, touch ONE
  // leaf and persist again, with pruning toggled by the arg. The merge
  // visits the dirty root-to-leaf path when pruning is on versus the
  // whole tree when it is off — the per-iteration time difference is the
  // tentpole's payoff in its purest form.
  nvbm::Device dev(std::size_t{1} << 30, bench::device_config());
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = 64 << 20;  // whole working tree stays in C0
  pm.persist_pruning = state.range(0) != 0;
  auto tree = pmoctree::PmOctree::create(heap, pm);
  for (int l = 0; l < 4; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.persist();
  CellData d;
  double v = 0.0;
  std::uint64_t visits = 0, persists = 0;
  for (auto _ : state) {
    state.PauseTiming();
    d.vof = (v += 0.001);
    tree.update(LocCode::from_grid(4, 5, 9, 12), d);
    state.ResumeTiming();
    const auto stats = tree.persist();
    visits += stats.visits;
    ++persists;
  }
  state.counters["visits_per_persist"] = benchmark::Counter(
      persists == 0 ? 0.0
                    : static_cast<double>(visits) /
                          static_cast<double>(persists));
}
BENCHMARK(BM_PersistIncremental)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"pruning"})
    ->Iterations(50);

void BM_DeviceFlushCoalesced(benchmark::State& state) {
  // Flush-queue coalescing: `stride` controls dirty-line adjacency. With
  // stride=64 the per-iteration writes form one contiguous extent that
  // flush_all retires as a single span; stride=4096 leaves 64 scattered
  // extents. flush_spans telemetry (JSON counters) shows the ratio;
  // modeled write cost is identical — coalescing is flush-path-only.
  nvbm::Config cfg = bench::device_config();
  cfg.crash_sim = true;  // track dirty lines + the span queue
  nvbm::Device dev(16 << 20, cfg);
  const std::uint64_t stride = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t v = 42;
  std::uint64_t spans = 0, flushes = 0;
  for (auto _ : state) {
    std::uint64_t off = 0;
    for (int i = 0; i < 64; ++i) {
      dev.write(off, &v, sizeof(v));
      off = (off + stride) & ((16 << 20) - 64);
    }
    const auto before = dev.counters().flush_spans;
    dev.flush_all();
    spans += dev.counters().flush_spans - before;
    ++flushes;
  }
  state.counters["spans_per_flush"] = benchmark::Counter(
      flushes == 0 ? 0.0
                   : static_cast<double>(spans) /
                         static_cast<double>(flushes));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 64));
}
BENCHMARK(BM_DeviceFlushCoalesced)
    ->Arg(64)
    ->Arg(4096)
    ->ArgNames({"stride"});

void BM_PmTraverseLeaves(benchmark::State& state) {
  nvbm::Device dev(std::size_t{1} << 30, bench::device_config());
  nvbm::Heap heap(dev);
  auto tree = pmoctree::PmOctree::create(heap, pmoctree::PmConfig{});
  for (int l = 0; l < 4; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  for (auto _ : state) {
    std::size_t n = 0;
    tree.for_each_leaf([&](const LocCode&, const CellData&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 4096));
}
BENCHMARK(BM_PmTraverseLeaves);

void BM_SnapshotPinUnpin(benchmark::State& state) {
  nvbm::Device dev(std::size_t{256} << 20, bench::device_config());
  nvbm::Heap heap(dev);
  auto tree = pmoctree::PmOctree::create(heap, pmoctree::PmConfig{});
  for (int l = 0; l < 3; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.persist();  // a durable epoch to pin
  for (auto _ : state) {
    auto snap = tree.pin_snapshot();
    benchmark::DoNotOptimize(snap.epoch());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotPinUnpin);

void BM_ServePointLookup(benchmark::State& state) {
  nvbm::Device dev(std::size_t{256} << 20, bench::device_config());
  nvbm::Heap heap(dev);
  auto tree = pmoctree::PmOctree::create(heap, pmoctree::PmConfig{});
  for (int l = 0; l < 4; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.persist();
  serve::Reader reader(tree.pin_snapshot());
  Rng rng(17);
  const std::uint32_t side = 1u << 4;
  for (auto _ : state) {
    const auto code = LocCode::from_grid(
        4, static_cast<std::uint32_t>(rng.below(side)),
        static_cast<std::uint32_t>(rng.below(side)),
        static_cast<std::uint32_t>(rng.below(side)));
    benchmark::DoNotOptimize(reader.locate(code));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServePointLookup);

// ---- solve kernels ---------------------------------------------------------

/// Morton-sorted uniform leaf set (one level) with pseudorandom fields,
/// in both the AoS (LeafChunk) and SoA (gather kernel) shapes.
struct SolveFixture {
  std::vector<LocCode> codes;
  std::vector<CellData> cells;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint8_t> levels;
  std::vector<double> vof;
  std::vector<double> tracer;
};

SolveFixture make_uniform_leafset(int level) {
  SolveFixture f;
  const std::uint32_t side = 1u << level;
  for (std::uint32_t z = 0; z < side; ++z)
    for (std::uint32_t y = 0; y < side; ++y)
      for (std::uint32_t x = 0; x < side; ++x)
        f.codes.push_back(LocCode::from_grid(level, x, y, z));
  std::sort(f.codes.begin(), f.codes.end(),
            [](const LocCode& a, const LocCode& b) {
              return a.key() < b.key();
            });
  Rng rng(41);
  for (const auto& c : f.codes) {
    CellData d;
    d.vof = static_cast<double>(rng.below(1000)) / 999.0;
    d.tracer = static_cast<double>(rng.below(1000)) / 999.0;
    f.cells.push_back(d);
    f.keys.push_back(c.key());
    f.levels.push_back(static_cast<std::uint8_t>(c.level()));
    f.vof.push_back(d.vof);
    f.tracer.push_back(d.tracer);
  }
  return f;
}

/// One Jacobi gather pass over 4096 leaves through a prebuilt
/// face-neighbor slot table. Scalar vs AVX2 is the only difference
/// between the two variants; outputs are bit-identical (test_simd).
void gather_bench_impl(benchmark::State& state, bool simd_on) {
  const SolveFixture f = make_uniform_leafset(4);
  amr::FaceNeighborIndex index;
  index.build(f.keys.data(), f.levels.data(), f.keys.size());
  std::vector<double> relaxed(f.keys.size(), 0.0);
  std::vector<std::uint8_t> touched(f.keys.size(), 0);
  const bool saved = simd::enabled();
  simd::set_enabled(simd_on);
  for (auto _ : state) {
    simd::gather_relax(f.vof.data(), f.tracer.data(), index.slots(), 0,
                       f.keys.size(), relaxed.data(), touched.data());
    benchmark::DoNotOptimize(relaxed.data());
    benchmark::ClobberMemory();
  }
  simd::set_enabled(saved);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * f.keys.size()));
}

void BM_GatherScalar(benchmark::State& state) {
  gather_bench_impl(state, false);
}
BENCHMARK(BM_GatherScalar);

void BM_GatherSimd(benchmark::State& state) {
  gather_bench_impl(state, true);
}
BENCHMARK(BM_GatherSimd);

/// Full face-neighbor-index build (batched Morton decode/encode + moving
/// hint resolution) — the amortized per-sweep cost the index trades for
/// the per-face binary searches below.
void BM_NeighborIndexBuild(benchmark::State& state) {
  const SolveFixture f = make_uniform_leafset(4);
  amr::FaceNeighborIndex index;
  for (auto _ : state) {
    index.invalidate();
    index.build(f.keys.data(), f.levels.data(), f.keys.size());
    benchmark::DoNotOptimize(index.slots());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * f.keys.size()));
}
BENCHMARK(BM_NeighborIndexBuild);

/// LeafChunk::find with probes arriving in Morton order: the verified
/// hint short-circuits the binary search almost every time.
void BM_LeafFindHintHit(benchmark::State& state) {
  const SolveFixture f = make_uniform_leafset(4);
  amr::LeafChunk ch;
  ch.begin = 0;
  ch.end = f.codes.size();
  ch.codes = f.codes.data();
  ch.cells = f.cells.data();
  ch.leaves = f.codes.size();
  std::size_t at = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.find(f.codes[at]));
    at = (at + 1) & (f.codes.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LeafFindHintHit);

/// Same chunk, probes striding far from the previous answer: the hint
/// never matches, every find pays the full bisection.
void BM_LeafFindHintMiss(benchmark::State& state) {
  const SolveFixture f = make_uniform_leafset(4);
  amr::LeafChunk ch;
  ch.begin = 0;
  ch.end = f.codes.size();
  ch.codes = f.codes.data();
  ch.cells = f.cells.data();
  ch.leaves = f.codes.size();
  std::size_t at = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.find(f.codes[at]));
    at = (at + 2731) & (f.codes.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LeafFindHintMiss);

void BM_BptreeInsert(benchmark::State& state) {
  nvbm::Device dev(std::size_t{1} << 30, bench::device_config());
  nvfs::FileStore fs(dev);
  baseline::Bptree tree(fs, "bench");
  Rng rng(13);
  baseline::OctantRecord rec{};
  rec.level = 5;
  for (auto _ : state) {
    rec.key = rng();
    tree.insert(rec);
  }
}
BENCHMARK(BM_BptreeInsert);

void BM_BptreeFind(benchmark::State& state) {
  nvbm::Device dev(std::size_t{1} << 30, bench::device_config());
  nvfs::FileStore fs(dev);
  baseline::Bptree tree(fs, "bench");
  Rng rng(13);
  baseline::OctantRecord rec{};
  for (int i = 0; i < 50000; ++i) {
    rec.key = static_cast<std::uint64_t>(i) * 97;
    tree.insert(rec);
  }
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find((probe % 50000) * 97));
    probe += 7919;
  }
}
BENCHMARK(BM_BptreeFind);

void BM_EtreeCoverProbe(benchmark::State& state) {
  // The per-access index-probing cost the paper blames for out-of-core
  // slowness on NVBM.
  nvbm::Device dev(std::size_t{1} << 30, bench::device_config());
  baseline::EtreeBackend mesh(dev);
  for (int l = 0; l < 4; ++l) {
    mesh.refine_where([](const LocCode&, const CellData&) { return true; },
                      nullptr);
  }
  Rng rng(17);
  for (auto _ : state) {
    const auto probe = LocCode::from_grid(
        6, static_cast<std::uint32_t>(rng.below(64)),
        static_cast<std::uint32_t>(rng.below(64)),
        static_cast<std::uint32_t>(rng.below(64)));
    benchmark::DoNotOptimize(mesh.cover(probe));
  }
}
BENCHMARK(BM_EtreeCoverProbe);

void BM_SamplerTick(benchmark::State& state) {
  // Full tick() over a representative series set — the guard number for
  // the PR 7 overhead budget. Build with -DPMO_TELEMETRY=OFF and rerun:
  // tick() returns immediately, so the ON/OFF delta IS the sampler cost.
  auto& reg = telemetry::Registry::global();
  reg.counter("micro.sampler.c").add(123);
  reg.gauge("micro.sampler.g").set(4.5);
  auto& h = reg.histogram("micro.sampler.h");
  for (std::uint64_t i = 1; i <= 4096; ++i) h.record(i);
  telemetry::timeseries::MetricSampler sampler(
      reg, {/*capacity=*/64, /*refresh_sources=*/false});
  using telemetry::timeseries::Kind;
  sampler.add({"c", Kind::kCounter, "micro.sampler.c", "", 0.0, true});
  sampler.add({"g", Kind::kGauge, "micro.sampler.g", "", 0.0, true});
  sampler.add(
      {"p99", Kind::kPercentile, "micro.sampler.h", "", 0.99, false});
  sampler.add({"rate", Kind::kRate, "micro.sampler.h", "", 0.0, false});
  for (auto _ : state) {
    sampler.tick();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SamplerTick);

void BM_SamplerTickPointUninstalled(benchmark::State& state) {
  // The library sampling point with no sampler installed: the tax every
  // droplet step / persist pays unconditionally. One relaxed atomic load
  // when telemetry is on; fully compiled out under PMO_TELEMETRY=OFF.
  for (auto _ : state) {
    telemetry::timeseries::tick_point();
  }
}
BENCHMARK(BM_SamplerTickPointUninstalled);

class JsonMirrorReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonMirrorReporter(bench::BenchReport& report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      report_.row({run.benchmark_name(),
                   TablePrinter::num(run.GetAdjustedRealTime(), 1),
                   TablePrinter::num(run.GetAdjustedCPUTime(), 1),
                   benchmark::GetTimeUnitString(run.time_unit),
                   std::to_string(run.iterations)});
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report(
      "micro_ops", "Micro-benchmarks: substrate operations", argc, argv);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg(argv[i]);
    if ((arg == "--json" || arg == "--trace" || arg == "--threads" ||
         arg == "--node-cache" || arg == "--timeseries" ||
         arg == "--simd") &&
        i + 1 < argc) {
      ++i;  // skip the flag and its value
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  report.begin_table(
      {"benchmark", "real_time", "cpu_time", "unit", "iterations"});
  JsonMirrorReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.write();
  return 0;
}
