// Wall-clock benchmark of PM-octree, end to end and layer by layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--cache-dir <dir>]
//
// One run repeats *episodes* of one workload until --seconds have been
// measured. An episode sets up a fresh device, heap and droplet mesh
// (timed as set-up), runs a fixed number of simulation steps through the
// public MeshBackend API, then checks its outputs. Every input the
// program receives — droplet parameter jitter, the serve query stream,
// the crash-survival draws — comes from --seed, so every episode of a
// run is the same computation and modeled counters repeat exactly.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// episodes with episodes that run through TimedBackend (benchmark-side
// attribution, timed_backend.hpp) and prints the per-layer metrics;
// user-facing latencies always come from untraced episodes. The last
// stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the exit code is non-zero when any output check fails.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "amr/droplet.hpp"
#include "amr/pm_backend.hpp"
#include "baseline/incore_backend.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "pmoctree/node.hpp"
#include "serve/reader.hpp"
#include "telemetry/telemetry.hpp"
#include "timed_backend.hpp"

using namespace pmo;
using namespace perfbench;

namespace {

// ---- workloads -------------------------------------------------------------

enum class Kind { kDroplet, kServe, kCrash };

struct Spec {
  const char* name;
  Kind kind;
  int min_level;
  int max_level;
  std::size_t c0_budget;  ///< PmConfig::dram_budget_bytes
  int pool_threads;  ///< exec pool for the droplet (0: none), <= nproc
};

/// Simulation steps per episode. dt = kCrossTime / kSteps moves the jet
/// tip (nozzle_z 0.08 -> 0.94 at jet_speed 0.35) across the domain in
/// one episode, so the leaf set changes on every step.
constexpr int kSteps = 24;
constexpr double kCrossTime = 2.6;
/// Device capacity of every workload: the NVBM image (and, with
/// crash_sim, its durable shadow) stays far below it.
constexpr std::size_t kDeviceBytes = std::size_t{64} << 20;
/// Step-time tail percentile: a run keeps at least kMinSteps untraced
/// steps, so at least 10 lie beyond it.
constexpr double kStepTailPct = 90.0;
constexpr std::size_t kMinSteps = 100;

// Serve: two reader lanes, open loop, each on a fixed schedule.
constexpr int kReaderLanes = 2;
constexpr double kLaneQps = 25000.0;                ///< offered, per lane
constexpr std::uint64_t kLatencyLimitNs = 200'000;  ///< serve SLO objective
constexpr int kRebindEvery = 64;  ///< queries between re-pins of the head
constexpr int kVerifyQueries = 96;
constexpr int kBoxLevel = 3;        ///< query_box side: a level-3 octant
constexpr int kInterfaceLevel = 4;  ///< interface_facets box side

// Crash/restart: every cycle = kPersistedPerCycle persisted steps, one
// step with persist=false, a simulated power failure, recover(), re-run.
constexpr int kPersistedPerCycle = 3;
constexpr double kCrashSurvive = 0.5;

const Spec kSpecs[] = {
    {"droplet_dram", Kind::kDroplet, 3, 6, std::size_t{64} << 20, 4},
    {"droplet_nvbm", Kind::kDroplet, 4, 6, std::size_t{200} << 10, 0},
    {"serve_mixed", Kind::kServe, 3, 6, std::size_t{64} << 20, 0},
    {"crash_restart", Kind::kCrash, 3, 6, std::size_t{64} << 20, 0},
};

/// Droplet inputs from the seed, jittered in the ranges
/// ClusterSim::rank_params uses (amplitude +-8%, wave speed +-4%, growth
/// rate +-3%).
amr::DropletParams make_params(const Spec& spec, std::uint64_t seed) {
  amr::DropletParams p;
  p.min_level = spec.min_level;
  p.max_level = spec.max_level;
  p.dt = kCrossTime / kSteps;
  Rng rng(seed);
  p.initial_amplitude *= rng.uniform(0.92, 1.08);
  p.wave_speed *= rng.uniform(0.96, 1.04);
  p.growth_rate *= rng.uniform(0.97, 1.03);
  return p;
}

/// Independent stream seed per use (query lanes, crash draws, verify).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  return splitmix64(s);
}

// ---- small helpers ---------------------------------------------------------

/// FNV-1a over the logical leaf content (key, level, vof, tracer).
struct LeafHash {
  std::uint64_t h = 1469598103934665603ull;
  std::uint64_t n = 0;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void leaf(const LocCode& c, const CellData& d) {
    u64(c.key());
    u64(static_cast<std::uint64_t>(c.level()));
    u64(std::bit_cast<std::uint64_t>(d.vof));
    u64(std::bit_cast<std::uint64_t>(d.tracer));
    ++n;
  }
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return percentile(v, 50.0); }
/// Highest percentile of the ladder with at least 10 samples beyond it.
double tail_pct(std::size_t n) {
  double best = 50.0;
  for (double p : {90.0, 99.0, 99.9, 99.99})
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) best = p;
  return best;
}
double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// The device counters the report uses, as a delta-friendly value.
struct Dev {
  std::uint64_t lines_read = 0, lines_written = 0, cached_reads = 0,
                flush_spans = 0, barriers = 0, read_ns = 0, write_ns = 0;
  static Dev of(const nvbm::Device& d) {
    const nvbm::Counters& c = d.counters();
    return {c.lines_read,  c.lines_written,   c.cached_reads,
            c.flush_spans, c.barriers,        c.modeled_read_ns,
            c.modeled_write_ns};
  }
  Dev operator-(const Dev& o) const {
    return {lines_read - o.lines_read,     lines_written - o.lines_written,
            cached_reads - o.cached_reads, flush_spans - o.flush_spans,
            barriers - o.barriers,         read_ns - o.read_ns,
            write_ns - o.write_ns};
  }
  Dev& operator+=(const Dev& o) {
    lines_read += o.lines_read;
    lines_written += o.lines_written;
    cached_reads += o.cached_reads;
    flush_spans += o.flush_spans;
    barriers += o.barriers;
    read_ns += o.read_ns;
    write_ns += o.write_ns;
    return *this;
  }
  bool operator==(const Dev&) const = default;
};

/// Registry counters and persist-span histograms read as per-episode
/// deltas. The span paths are the library's own: persist runs inside
/// the droplet's "amr.step" span.
const char* const kRegNames[] = {
    "pmoctree.cow_copies",       "pmoctree.merge.merged_from_dram",
    "pmoctree.merge.tombstoned", "pmoctree.merge.evictions",
    "pmoctree.gc.freed",         "pmoctree.transform.runs",
    "pmoctree.cache.hits",       "pmoctree.cache.misses",
    "pmoctree.cache.evictions",  "pmoctree.linear.promotions",
    "pmoctree.persist.visits",   "pmoctree.persist.pruned_subtrees",
    "amr.neighbor.build_probes", "amr.neighbor.builds",
    "amr.neighbor.reuses",
};
const char* const kPersistSpans[] = {
    "amr.step.pmoctree.persist.merge",
    "amr.step.pmoctree.persist.compact",
    "amr.step.pmoctree.persist.gc",
    "amr.step.pmoctree.persist.transform",
};

struct RegMark {
  std::map<std::string, double> v;
  static RegMark take() {
    auto& reg = telemetry::Registry::global();
    RegMark m;
    for (const char* n : kRegNames)
      m.v[n] = static_cast<double>(reg.counter(n).value());
    for (const char* n : kPersistSpans)
      m.v[n] = static_cast<double>(reg.histogram(n).sum());
    return m;
  }
  double since(const RegMark& o, const std::string& n) const {
    return v.at(n) - o.v.at(n);
  }
};

// ---- run and episode state -------------------------------------------------

/// Fastest repeat of every counted step position across a run's
/// episodes. Every episode runs the same steps on the same inputs, so
/// each position's best time is its cost with the least interference
/// from the rest of the machine; the pooled samples on a shared host
/// spread several times wider between runs (perfbench/README.md).
struct BestOf {
  std::vector<double> ms, leaves;
  void add(const std::vector<double>& step_ms,
           const std::vector<double>& step_leaves) {
    if (ms.empty()) {
      ms = step_ms;
      leaves = step_leaves;
      return;
    }
    for (std::size_t i = 0; i < std::min(ms.size(), step_ms.size()); ++i)
      ms[i] = std::min(ms[i], step_ms[i]);
  }
  double p50() const { return median(ms); }
  double cells_per_s() const {
    double l = 0, t = 0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      l += leaves[i];
      t += ms[i] * 1e-3;
    }
    return ratio(l, t);
  }
};

struct Run {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 16) failures.push_back(what);
    }
  }

  // Untraced episodes: user-facing figures.
  std::vector<double> setup_s, step_ms, recover_ms, resume_ms;
  BestOf best;
  std::vector<double> query_us, service_us[4];  // latency, by-kind service
  double queries_due = 0, queries_late = 0, gen_late_max_us = 0;

  // Deterministic per-episode figures (the last episode's; every episode
  // of a run computes the same ones).
  std::map<std::string, double> counts;
  // serve_mixed only: reader-side figures of the last episode.
  std::map<std::string, double> serve;
  // crash_restart only.
  double lost_lines = 0, resume_lines_read = 0, resume_hit_ratio = 0;

  // Traced episodes: per-layer wall-clock sums, divided at the end.
  BestOf traced_best;
  std::map<std::string, double> layer;
  double traced_episodes = 0, traced_wall_ns = 0, traced_outside_ns = 0;
};

struct Episode {
  Episode(const Spec& s, const amr::DropletParams& p, std::uint64_t sd,
          bool tr, exec::ThreadPool* pl)
      : spec(s), params(p), seed(sd), traced(tr), pool(pl) {}

  const Spec& spec;
  amr::DropletParams params;
  std::uint64_t seed;
  bool traced;
  exec::ThreadPool* pool;

  std::unique_ptr<nvbm::Device> device;
  std::unique_ptr<amr::PmOctreeBackend> pm;
  std::unique_ptr<TimedBackend> timed;
  std::unique_ptr<amr::DropletWorkload> wl;
  amr::MeshBackend* mesh = nullptr;

  // Step records. "Counted" steps are the persisted steps that feed
  // step_ms and cells_per_s; crash_restart keeps its lost and resume
  // steps apart.
  std::vector<double> step_ms, step_leaves, resume_ms, recover_ms;
  double steps = 0;          // every step() call
  std::uint64_t wall_ns = 0;  // summed over every step() call
  std::uint64_t modeled_ns = 0;
  amr::StepStats modeled;  // summed
  Dev step_dev;            // summed per-step device deltas
  Dev other_dev;           // crash, recover and check intervals
  double visits = 0, nodes_total = 0, gc_freed = 0;
  double lost_lines = 0, crashes = 0;
  double resume_lines_read = 0, resume_hits = 0, resume_misses = 0;
};

// ---- reference -------------------------------------------------------------

/// Final-mesh hash of the in-core baseline on the same inputs, cached per
/// (workload, seed) in `cache_dir` when one is given.
std::uint64_t reference_hash(const Spec& spec, const amr::DropletParams& p,
                             std::uint64_t seed,
                             const std::string& cache_dir) {
  std::string path;
  if (!cache_dir.empty()) {
    path = cache_dir + "/ref-" + spec.name + "-" + std::to_string(seed) +
           ".txt";
    std::ifstream in(path);
    std::uint64_t h = 0;
    if (in >> h) return h;
  }
  nvbm::Device snap_dev(kDeviceBytes, nvbm::Config{});
  baseline::InCoreConfig cfg;
  cfg.snapshot_interval = 1 << 30;  // durability is not what is compared
  baseline::InCoreBackend incore(snap_dev, cfg);
  amr::DropletWorkload wl(p);
  wl.initialize(incore);
  for (int s = 0; s < kSteps; ++s) wl.step(incore, s, true);
  LeafHash h;
  incore.visit_leaves(
      [&](const LocCode& c, const CellData& d) { h.leaf(c, d); });
  if (!path.empty()) std::ofstream(path) << h.h << "\n";
  return h.h;
}

// ---- episode phases --------------------------------------------------------

/// Device creation + heap format + DropletWorkload::initialize (+ the
/// first persist on serve_mixed, so readers have an epoch to pin).
double setup(Episode& ep) {
  const std::uint64_t t0 = now_ns();
  nvbm::Config dc;  // Table 2 latencies, modeled (not injected)
  dc.crash_sim = ep.spec.kind == Kind::kCrash;
  ep.device = std::make_unique<nvbm::Device>(kDeviceBytes, dc);
  pmoctree::PmConfig pc;
  pc.dram_budget_bytes = ep.spec.c0_budget;
  ep.pm = std::make_unique<amr::PmOctreeBackend>(*ep.device, pc);
  ep.wl = std::make_unique<amr::DropletWorkload>(ep.params);
  amr::DropletWorkload* wl = ep.wl.get();
  pmoctree::FeatureFn feature = [wl](const LocCode& c, const CellData& d) {
    return wl->hot_feature(c, d);
  };
  ep.mesh = ep.pm.get();
  if (ep.traced) {
    ep.timed = std::make_unique<TimedBackend>(*ep.pm);
    feature = ep.timed->timed_feature(std::move(feature));
    ep.mesh = ep.timed.get();
  }
  ep.pm->register_feature(std::move(feature));
  ep.wl->set_exec(ep.pool);
  ep.wl->initialize(*ep.pm);
  if (ep.spec.kind == Kind::kServe) ep.pm->end_step(-1);
  return (now_ns() - t0) * 1e-9;
}

/// One step through the public API with per-step accounting; `counted`
/// steps feed step_ms and cells_per_s. Returns the wall milliseconds.
double timed_step(Episode& ep, Run& run, int index, bool persist,
                  bool counted) {
  const Dev d0 = Dev::of(*ep.device);
  const std::uint64_t m0 = ep.mesh->modeled_ns();
  const std::uint64_t t0 = now_ns();
  const amr::StepStats st = ep.wl->step(*ep.mesh, index, persist);
  const std::uint64_t t1 = now_ns();
  const std::uint64_t m1 = ep.mesh->modeled_ns();
  ep.step_dev += Dev::of(*ep.device) - d0;
  ep.wall_ns += t1 - t0;
  ep.steps += 1;
  ep.modeled_ns += m1 - m0;
  ep.modeled.advect_ns += st.advect_ns;
  ep.modeled.refine_coarsen_ns += st.refine_coarsen_ns;
  ep.modeled.balance_ns += st.balance_ns;
  ep.modeled.solve_ns += st.solve_ns;
  ep.modeled.persist_ns += st.persist_ns;
  ep.modeled.refined += st.refined;
  ep.modeled.coarsened += st.coarsened;
  ep.modeled.balance_refined += st.balance_refined;
  ep.modeled.leaves += st.leaves;
  run.check(true, "step");
  // Reconciliation: the per-routine modeled times sum exactly to the
  // step's modeled time.
  run.check(st.total_ns() == m1 - m0, "modeled routines sum to the step");
  run.check(st.refined + st.coarsened + st.balance_refined > 0,
            "leaf set changed in step " + std::to_string(index));
  if (persist) {
    const pmoctree::PersistStats& ps = ep.pm->last_persist();
    ep.visits += static_cast<double>(ps.visits);
    ep.nodes_total += static_cast<double>(ps.nodes_total);
    ep.gc_freed += static_cast<double>(ps.gc_freed);
  }
  const double ms = (t1 - t0) * 1e-6;
  if (counted) {
    ep.step_ms.push_back(ms);
    ep.step_leaves.push_back(static_cast<double>(st.leaves));
  }
  return ms;
}

void run_steps(Episode& ep, Run& run) {
  for (int s = 0; s < kSteps; ++s) timed_step(ep, run, s, true, true);
}

/// Leaf hash of the persisted version V_{i-1} (`prev`) or of the working
/// version V_i.
std::uint64_t leaf_hash(Episode& ep, bool prev) {
  LeafHash h;
  const auto fold = [&](const LocCode& c, const CellData& d) {
    h.leaf(c, d);
  };
  if (prev) {
    ep.pm->tree().for_each_leaf_prev(fold);
  } else {
    ep.pm->tree().for_each_leaf(fold);
  }
  return h.h;
}

void run_crash_cycles(Episode& ep, Run& run) {
  Rng crash_rng(stream_seed(ep.seed, 3));
  auto& reg = telemetry::Registry::global();
  for (int s = 0; s < kSteps; ++s) {
    if ((s + 1) % (kPersistedPerCycle + 1) != 0) {
      timed_step(ep, run, s, true, true);
      continue;
    }
    Dev d0 = Dev::of(*ep.device);
    const std::uint64_t want = leaf_hash(ep, true);
    ep.other_dev += Dev::of(*ep.device) - d0;
    // The step whose result the crash destroys: computed, never persisted.
    timed_step(ep, run, s, false, false);
    d0 = Dev::of(*ep.device);
    ep.lost_lines += static_cast<double>(
        ep.device->simulate_crash(crash_rng, kCrashSurvive));
    ep.crashes += 1;
    const std::uint64_t t0 = now_ns();
    const bool ok = ep.mesh->recover();
    ep.recover_ms.push_back((now_ns() - t0) * 1e-6);
    run.check(ok, "recover() succeeded");
    if (!ok) return;
    // The mesh the simulation continues from is the last persisted one.
    run.check(leaf_hash(ep, false) == want,
              "recover() returned the last persisted leaf set");
    ep.other_dev += Dev::of(*ep.device) - d0;
    // Re-run the lost step on the recovered mesh.
    const double h0 = reg.counter("pmoctree.cache.hits").value();
    const double mi0 = reg.counter("pmoctree.cache.misses").value();
    const double lr0 = ep.device->counters().lines_read;
    ep.resume_ms.push_back(timed_step(ep, run, s, true, false));
    ep.resume_lines_read += ep.device->counters().lines_read - lr0;
    ep.resume_hits += reg.counter("pmoctree.cache.hits").value() - h0;
    ep.resume_misses += reg.counter("pmoctree.cache.misses").value() - mi0;
  }
}

// ---- serve -----------------------------------------------------------------

/// Seeded query targets near the jet, where the mesh is refined: x and y
/// within the central fifth of the domain, z anywhere.
struct QueryGen {
  Rng rng;
  explicit QueryGen(std::uint64_t s) : rng(s) {}
  std::uint32_t coord(double lo, double hi) {
    const double side = static_cast<double>(std::uint32_t{1} << kMaxLevel);
    return static_cast<std::uint32_t>(rng.uniform(lo, hi) * side);
  }
  LocCode point() {
    return LocCode::from_grid(kMaxLevel, coord(0.4, 0.6), coord(0.4, 0.6),
                              coord(0.0, 1.0));
  }
  /// The level-`level` octant around a random point, as a box.
  serve::Box box(int level) {
    const Anchor a = point().anchor();
    const std::uint32_t w = std::uint32_t{1} << (kMaxLevel - level);
    serve::Box b;
    b.lo[0] = a.x & ~(w - 1);
    b.lo[1] = a.y & ~(w - 1);
    b.lo[2] = a.z & ~(w - 1);
    for (int i = 0; i < 3; ++i) b.hi[i] = b.lo[i] + w - 1;
    return b;
  }
};

/// The query mix in rotation; index into kQueryKinds.
const char* const kQueryKinds[4] = {"point", "neighbors", "box",
                                    "interface"};
void issue_query(serve::Reader& r, QueryGen& g, std::uint64_t seq) {
  switch (seq % 4) {
    case 0:
      r.locate(g.point());
      break;
    case 1:
      r.face_neighbors(r.locate(g.point()).code, [](const serve::Leaf&) {});
      break;
    case 2:
      r.query_box(g.box(kBoxLevel), [](const serve::Leaf&) {});
      break;
    default:
      r.interface_facets(g.box(kInterfaceLevel),
                         [](const serve::InterfaceFacet&) {});
  }
}

/// Sleeps most of the way to `due`, then yields until it passes.
void wait_until(std::uint64_t due) {
  for (std::uint64_t t = now_ns(); t < due; t = now_ns()) {
    if (due - t > 300'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - t - 200'000));
    } else {
      std::this_thread::yield();
    }
  }
}

/// The mutator steps (and persists every step) while kReaderLanes lanes
/// query the latest pinned snapshot on a fixed open-loop schedule.
void run_serve(Episode& ep, Run& run) {
  amr::PmOctreeBackend& backend = *ep.pm;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> stop{0};
  struct Lane {
    std::vector<double> due_ns, lat_us, service_us;
    std::vector<int> kind;
    std::uint64_t first_due = 0;
    double gen_late_max_us = 0, rebind_ns = 0, rebinds = 0, stale = 0;
    double busy_ns = 0;  // time spent answering queries
    serve::ReadCharges charges;
    double queries = 0, hits = 0, misses = 0;
  };
  std::vector<Lane> lanes(kReaderLanes);
  const auto interval = static_cast<std::uint64_t>(1e9 / kLaneQps);
  const std::uint64_t start = now_ns() + 1'000'000;
  std::vector<exec::ThreadPool::Task> tasks;
  tasks.push_back([&] {
    wait_until(start);
    run_steps(ep, run);
    stop.store(now_ns());
    done.store(true);
  });
  for (int li = 0; li < kReaderLanes; ++li) {
    tasks.push_back([&, li] {
      Lane& lane = lanes[static_cast<std::size_t>(li)];
      QueryGen gen(stream_seed(ep.seed, 100 + static_cast<std::uint64_t>(li)));
      serve::Reader reader(backend.pin_snapshot());
      // Lanes are offset so their arrivals interleave.
      std::uint64_t due =
          start + static_cast<std::uint64_t>(li) * interval / kReaderLanes;
      lane.first_due = due;
      for (std::uint64_t q = 0; !done.load(); ++q, due += interval) {
        if (q % kRebindEvery == 0) {
          const std::uint64_t r0 = now_ns();
          pmoctree::SnapshotHandle snap = backend.pin_snapshot();
          lane.stale += backend.durable_epoch() - snap.epoch();
          reader.rebind(std::move(snap));
          lane.rebind_ns += static_cast<double>(now_ns() - r0);
          lane.rebinds += 1;
        }
        wait_until(due);
        if (done.load()) break;
        const std::uint64_t sent = now_ns();
        issue_query(reader, gen, q);
        const std::uint64_t fin = now_ns();
        lane.gen_late_max_us =
            std::max(lane.gen_late_max_us, (sent - due) * 1e-3);
        lane.due_ns.push_back(static_cast<double>(due));
        lane.lat_us.push_back((fin - due) * 1e-3);
        lane.service_us.push_back((fin - sent) * 1e-3);
        lane.busy_ns += static_cast<double>(fin - sent);
        lane.kind.push_back(static_cast<int>(q % 4));
      }
      lane.charges = reader.charges();
      lane.queries = static_cast<double>(reader.queries());
      lane.hits = static_cast<double>(reader.cache_stats().hits);
      lane.misses = static_cast<double>(reader.cache_stats().misses);
    });
  }
  exec::ThreadPool pool(1 + kReaderLanes);
  pool.run_tasks(tasks);

  const std::uint64_t end = stop.load();
  std::map<std::string, double>& c = run.serve;
  double queries = 0, node_loads = 0, page_loads = 0, hits = 0, misses = 0;
  double rebind_ns = 0, rebinds = 0, stale = 0, busy_ns = 0;
  for (const Lane& lane : lanes) {
    // Every slot due before the mutator finished counts; a slot that was
    // never sent counts as late.
    const std::uint64_t due =
        end > lane.first_due ? (end - lane.first_due + interval - 1) / interval
                             : 0;
    std::uint64_t answered = 0, late = 0;
    for (std::size_t i = 0; i < lane.lat_us.size(); ++i) {
      if (lane.due_ns[i] >= static_cast<double>(end)) continue;
      ++answered;
      if (lane.lat_us[i] * 1e3 > static_cast<double>(kLatencyLimitNs)) ++late;
      if (!ep.traced) {
        run.query_us.push_back(lane.lat_us[i]);
        run.service_us[lane.kind[i]].push_back(lane.service_us[i]);
      }
    }
    run.check(answered > 0, "serve lane answered queries");
    run.attempted += answered;  // every answered query is one operation
    if (!ep.traced) {
      run.queries_due += static_cast<double>(due);
      const std::uint64_t unsent = due - std::min(due, answered);
      run.queries_late += static_cast<double>(late + unsent);
      run.gen_late_max_us =
          std::max(run.gen_late_max_us, lane.gen_late_max_us);
    }
    queries += lane.queries;
    node_loads += static_cast<double>(lane.charges.node_loads);
    page_loads += static_cast<double>(lane.charges.page_loads);
    hits += lane.hits;
    misses += lane.misses;
    rebind_ns += lane.rebind_ns;
    rebinds += lane.rebinds;
    stale += lane.stale;
    busy_ns += lane.busy_ns;
  }
  c["serve.node_loads_per_query"] = ratio(node_loads, queries);
  c["serve.page_loads_per_query"] = ratio(page_loads, queries);
  c["serve.cache_hit_ratio"] = ratio(hits, hits + misses);
  c["serve.rebind_us"] = ratio(rebind_ns * 1e-3, rebinds);
  c["serve.staleness.mean"] = ratio(stale, rebinds);
  c["serve.lane_busy_ratio"] =
      ratio(busy_ns, kReaderLanes * static_cast<double>(end - start));
}

/// Serve answers on the final pinned snapshot vs brute force over
/// for_each_leaf_snapshot: locate, face_neighbors and query_box.
void verify_serve(Episode& ep, Run& run) {
  pmoctree::SnapshotHandle snap = ep.pm->pin_snapshot();
  std::vector<serve::Leaf> all;
  ep.pm->tree().for_each_leaf_snapshot(
      snap, [&](const LocCode& c, const CellData& d) {
        all.push_back({c, d});
      });
  serve::Reader reader(snap);
  QueryGen gen(stream_seed(ep.seed, 7));
  using Key = std::pair<std::uint64_t, int>;
  auto key = [](const serve::Leaf& l) {
    return Key{l.code.key(), l.code.level()};
  };
  auto sorted = [](std::vector<Key> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  bool ok = true;
  for (int q = 0; q < kVerifyQueries && ok; ++q) {
    const LocCode point = gen.point();
    const Anchor p = point.anchor();
    const serve::Leaf got = reader.locate(point);
    const serve::Leaf* want = nullptr;
    for (const serve::Leaf& l : all) {
      const Anchor a = l.code.anchor();
      const std::uint64_t e = l.code.extent();
      if (p.x >= a.x && p.x < a.x + e && p.y >= a.y && p.y < a.y + e &&
          p.z >= a.z && p.z < a.z + e)
        want = &l;
    }
    ok = want != nullptr && key(*want) == key(got) && want->data == got.data;
    // Face neighbors: leaves touching one face of `got` with positive area.
    std::vector<Key> nb_got, nb_want;
    reader.face_neighbors(
        got.code, [&](const serve::Leaf& l) { nb_got.push_back(key(l)); });
    const Anchor a = got.code.anchor();
    const std::uint64_t ea = got.code.extent();
    const std::uint64_t av[3] = {a.x, a.y, a.z};
    for (const serve::Leaf& l : all) {
      const Anchor b = l.code.anchor();
      const std::uint64_t eb = l.code.extent();
      const std::uint64_t bv[3] = {b.x, b.y, b.z};
      int touch = 0, overlap = 0;
      for (int k = 0; k < 3; ++k) {
        if (av[k] + ea == bv[k] || bv[k] + eb == av[k]) ++touch;
        if (std::max(av[k], bv[k]) < std::min(av[k] + ea, bv[k] + eb))
          ++overlap;
      }
      if (touch == 1 && overlap == 2) nb_want.push_back(key(l));
    }
    ok = ok && sorted(nb_got) == sorted(nb_want);
    // Box query: every leaf intersecting the box.
    const serve::Box box = gen.box(kBoxLevel);
    std::vector<Key> bx_got, bx_want;
    reader.query_box(box,
                     [&](const serve::Leaf& l) { bx_got.push_back(key(l)); });
    for (const serve::Leaf& l : all)
      if (box.intersects(l.code.anchor(), l.code.extent()))
        bx_want.push_back(key(l));
    ok = ok && !bx_want.empty() && sorted(bx_got) == sorted(bx_want);
  }
  run.check(ok, "serve answers match brute force on the final snapshot");
}

// ---- end of episode --------------------------------------------------------

void final_checks(Episode& ep, Run& run, std::uint64_t ref_hash) {
  LeafHash work, prev;
  ep.pm->visit_leaves(
      [&](const LocCode& c, const CellData& d) { work.leaf(c, d); });
  ep.pm->tree().for_each_leaf_prev(
      [&](const LocCode& c, const CellData& d) { prev.leaf(c, d); });
  run.check(work.h == ref_hash,
            "final mesh equals the in-core reference on the same inputs");
  run.check(ep.pm->tree().is_balanced(), "PmOctree::is_balanced()");
  run.check(work.h == prev.h && work.n == prev.n,
            "working and persisted leaf sets match after the final persist");
}

/// Deterministic per-step figures of one episode (modeled time, device
/// and registry counters, structure at the end).
void record_counts(Episode& ep, Run& run, const RegMark& r0,
                   const RegMark& r1) {
  std::map<std::string, double>& c = run.counts;
  const double n = std::max(1.0, ep.steps);
  const Dev& d = ep.step_dev;
  c["modeled_ms_per_step"] = ep.modeled_ns * 1e-6 / n;
  c["nvbm.lines_read"] = d.lines_read / n;
  c["nvbm.lines_written"] = d.lines_written / n;
  c["nvbm.cached_reads"] = d.cached_reads / n;
  c["nvbm.flush_spans"] = d.flush_spans / n;
  c["nvbm.barriers"] = d.barriers / n;
  c["nvbm.modeled_read_ms"] = d.read_ns * 1e-6 / n;
  c["nvbm.modeled_write_ms"] = d.write_ns * 1e-6 / n;

  const amr::StepStats& m = ep.modeled;
  c["modeled.advect_ms"] = m.advect_ns * 1e-6 / n;
  c["modeled.refine_coarsen_ms"] = m.refine_coarsen_ns * 1e-6 / n;
  c["modeled.balance_ms"] = m.balance_ns * 1e-6 / n;
  c["modeled.solve_ms"] = m.solve_ns * 1e-6 / n;
  c["modeled.persist_ms"] = m.persist_ns * 1e-6 / n;
  c["amr.refined"] = m.refined / n;
  c["amr.coarsened"] = m.coarsened / n;
  c["amr.balance_refined"] = m.balance_refined / n;
  c["amr.leaves"] = m.leaves / n;

  auto reg = [&](const char* name) { return r1.since(r0, name); };
  c["pmoctree.cow_copies"] = reg("pmoctree.cow_copies") / n;
  c["pmoctree.merge.merged_from_dram"] =
      reg("pmoctree.merge.merged_from_dram") / n;
  c["pmoctree.merge.tombstoned"] = reg("pmoctree.merge.tombstoned") / n;
  c["pmoctree.eviction_merges"] = reg("pmoctree.merge.evictions") / n;
  c["pmoctree.gc.freed"] = reg("pmoctree.gc.freed") / n;
  c["pmoctree.transform.runs"] = reg("pmoctree.transform.runs") / n;
  c["pmoctree.cache.hit_ratio"] =
      ratio(reg("pmoctree.cache.hits"),
            reg("pmoctree.cache.hits") + reg("pmoctree.cache.misses"));
  c["pmoctree.cache.evictions"] = reg("pmoctree.cache.evictions") / n;
  c["pmoctree.linear.promotions"] = reg("pmoctree.linear.promotions") / n;
  c["pmoctree.persist.visit_ratio"] = ratio(ep.visits, ep.nodes_total);
  c["pmoctree.persist.pruned_subtrees"] =
      reg("pmoctree.persist.pruned_subtrees") / n;
  c["amr.neighbor.build_probes"] = reg("amr.neighbor.build_probes") / n;
  c["amr.neighbor.reuse_ratio"] =
      ratio(reg("amr.neighbor.reuses"),
            reg("amr.neighbor.reuses") + reg("amr.neighbor.builds"));
  run.lost_lines = ratio(ep.lost_lines, ep.crashes);
  run.resume_lines_read =
      ratio(ep.resume_lines_read, static_cast<double>(ep.resume_ms.size()));
  run.resume_hit_ratio =
      ratio(ep.resume_hits, ep.resume_hits + ep.resume_misses);

  // Structure and memory at the end of the run (uncharged census).
  pmoctree::PmOctree& tree = ep.pm->tree();
  const pmoctree::PmStats ps = tree.stats();
  const double octant_bytes =
      static_cast<double>(ps.nodes) * sizeof(pmoctree::PNode);
  c["mem_bytes_per_leaf"] =
      ratio(static_cast<double>(ep.pm->memory_bytes()),
            static_cast<double>(ps.leaves));
  c["final.leaves"] = static_cast<double>(ps.leaves);
  c["final.octants"] = static_cast<double>(ps.nodes);
  c["pmoctree.c0_budget_frac"] =
      ratio(static_cast<double>(ep.spec.c0_budget), octant_bytes);
  c["pmoctree.octants_in_nvbm_frac"] = ratio(
      static_cast<double>(ps.nvbm_nodes_vi + ps.linear_records),
      static_cast<double>(ps.nodes));
  c["pmoctree.linear.records"] = static_cast<double>(ps.linear_records);
  const auto& pc = tree.page_cache_stats();
  c["pmoctree.page_cache.hit_ratio"] =
      ratio(static_cast<double>(pc.hits),
            static_cast<double>(pc.hits + pc.misses));
  c["pmoctree.snapshot.deferred_reclaim_hwm"] =
      static_cast<double>(tree.deferred_reclaim_high_water());
  c["pmoctree.snapshot.pins_per_step"] =
      static_cast<double>(tree.snapshot_pins()) / n;
  const nvbm::HeapStats hs = tree.heap().stats();
  c["nvbm.heap.live_mb"] = hs.live_bytes / 1048576.0;
  c["nvbm.heap.high_water_mb"] = hs.high_water / 1048576.0;
  c["nvbm.heap.free_objects"] = static_cast<double>(hs.free_objects);
  c["pmoctree.gc.useful_ratio"] =
      ratio(ep.gc_freed / n,
            static_cast<double>(hs.live_objects + hs.free_objects));
}

/// Per-layer wall time of one traced episode, summed into run.layer as
/// ms per step.
void record_layers(Episode& ep, Run& run, const RegMark& r0,
                   const RegMark& r1) {
  const TimedBackend& tb = *ep.timed;
  const double ms = 1e-6 / std::max(1.0, ep.steps);
  std::map<std::string, double>& l = run.layer;
  auto self = [&](Entry e) {
    return static_cast<double>(tb.probe(e).ns - tb.probe(e).cb_ns) * ms;
  };
  const SoaSplit& soa = tb.soa();
  l["pmoctree.sweep_ms"] += self(kSweep);
  l["pmoctree.refine_ms"] += self(kRefine);
  l["pmoctree.coarsen_ms"] += self(kCoarsen);
  l["pmoctree.balance_ms"] += self(kBalance);
  l["pmoctree.persist_ms"] += self(kPersist);
  l["pmoctree.other_ms"] += self(kOther);
  l["pmoctree.extract_ms"] += static_cast<double>(soa.extract) * ms;
  l["pmoctree.persist.merge_ms"] +=
      r1.since(r0, "amr.step.pmoctree.persist.merge") * ms;
  l["pmoctree.persist.compact_ms"] +=
      r1.since(r0, "amr.step.pmoctree.persist.compact") * ms;
  l["pmoctree.persist.gc_ms"] +=
      r1.since(r0, "amr.step.pmoctree.persist.gc") * ms;
  l["pmoctree.persist.transform_ms"] +=
      r1.since(r0, "amr.step.pmoctree.persist.transform") * ms;
  double cb = 0;
  for (int e = 0; e < kEntries; ++e) cb += tb.probe(Entry(e)).cb_ns;
  l["amr.callback_ms"] += cb * ms;
  l["amr.neighbor_index_ms"] += static_cast<double>(soa.prepare) * ms;
  l["amr.solve_kernel_ms"] += static_cast<double>(soa.kernel_span) * ms;
  l["exec.dispatch_ms"] += (static_cast<double>(tb.probe(kSoa).ns) -
                            static_cast<double>(soa.extract + soa.prepare +
                                                soa.kernel_span)) *
                           ms;
  // Time outside every backend call: the driver's own code, attributed
  // to amr only by elimination (no span inside the library marks it).
  const double outside = static_cast<double>(ep.wall_ns) -
                         static_cast<double>(tb.in_backend_ns());
  l["amr.driver_ms"] += outside * ms;
  const int threads = ep.pool != nullptr ? ep.pool->size() : 1;
  l["exec.busy_ratio"] +=
      ratio(static_cast<double>(soa.chunk_busy),
            threads * static_cast<double>(soa.kernel_span));
  // NVBM lines per step by the entry point that caused them.
  const double n = std::max(1.0, ep.steps);
  const char* const names[kEntries] = {"sweep",   "refine",  "coarsen",
                                       "balance", "extract", "persist",
                                       "other",   "recover"};
  for (int e = 0; e < kRecover; ++e) {
    const Probe& p = tb.probe(Entry(e));
    l[std::string("nvbm.lines_read.") + names[e]] += p.lines_read / n;
    l[std::string("nvbm.lines_written.") + names[e]] += p.lines_written / n;
  }
  run.traced_episodes += 1;
  run.traced_wall_ns += static_cast<double>(ep.wall_ns);
  run.traced_outside_ns += outside;
  run.traced_best.add(ep.step_ms, ep.step_leaves);
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

const char* unit_of(const std::string& name) {
  auto ends = [&](const std::string& t) {
    return name.size() >= t.size() &&
           name.compare(name.size() - t.size(), t.size(), t) == 0;
  };
  if (ends("_ms") || ends("_ms_per_call")) return "ms";
  if (ends("_us")) return "us";
  if (ends("_mb")) return "MB";
  if (ends("_pct")) return "%";
  if (ends("ratio") || ends("_frac")) return "ratio";
  return "count";
}

void print_json(const Run& run, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              run.failed == 0 ? "true" : "false", run.attempted, run.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <droplet_dram|droplet_nvbm|"
               "serve_mixed|crash_restart> --seed <n> --seconds <s> "
               "--trace <0|1> [--cache-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, cache_dir;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::atof(v);
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else if (k == "--cache-dir") {
      cache_dir = v;
    } else {
      return usage();
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (workload == s.name) spec = &s;
  if (spec == nullptr || !(seconds > 0) || (trace != 0 && trace != 1))
    return usage();

  const amr::DropletParams params = make_params(*spec, seed);
  const std::uint64_t ref = reference_hash(*spec, params, seed, cache_dir);
  std::unique_ptr<exec::ThreadPool> pool;
  if (spec->pool_threads > 0) {
    pool = std::make_unique<exec::ThreadPool>(
        std::min(spec->pool_threads, exec::hardware_threads()));
  }

  Run run;
  const std::uint64_t t_begin = now_ns();
  int episodes = 0;
  for (;;) {
    const bool enough_time = (now_ns() - t_begin) * 1e-9 >= seconds;
    const bool enough_steps = run.step_ms.size() >= kMinSteps;
    const bool traced_both = trace == 0 || run.traced_episodes > 0;
    if (enough_time && enough_steps && traced_both) break;
    // Traced runs alternate: untraced, traced, untraced, ...
    const bool traced = trace == 1 && episodes % 2 == 1;
    ++episodes;
    Episode ep(*spec, params, seed, traced, pool.get());
    const double setup_s = setup(ep);
    const RegMark r0 = RegMark::take();
    const Dev dev0 = Dev::of(*ep.device);
    switch (spec->kind) {
      case Kind::kDroplet:
        run_steps(ep, run);
        break;
      case Kind::kServe:
        run_serve(ep, run);
        break;
      case Kind::kCrash:
        run_crash_cycles(ep, run);
        break;
    }
    const Dev dev_total = Dev::of(*ep.device) - dev0;
    const RegMark r1 = RegMark::take();
    Dev summed = ep.step_dev;
    summed += ep.other_dev;
    run.check(summed == dev_total,
              "per-step device deltas sum to the device total");
    record_counts(ep, run, r0, r1);
    // Output checks, outside every timed interval.
    final_checks(ep, run, ref);
    if (spec->kind == Kind::kServe) verify_serve(ep, run);
    std::fprintf(stderr, "episode %d%s: setup %.4f s, step p50 %.3f ms\n",
                 episodes, traced ? " (traced)" : "", setup_s,
                 median(ep.step_ms));
    if (traced) {
      record_layers(ep, run, r0, r1);
      continue;
    }
    run.setup_s.push_back(setup_s);
    run.step_ms.insert(run.step_ms.end(), ep.step_ms.begin(),
                       ep.step_ms.end());
    run.recover_ms.insert(run.recover_ms.end(), ep.recover_ms.begin(),
                          ep.recover_ms.end());
    run.resume_ms.insert(run.resume_ms.end(), ep.resume_ms.begin(),
                         ep.resume_ms.end());
    run.best.add(ep.step_ms, ep.step_leaves);
  }

  // ---- report --------------------------------------------------------------
  std::map<std::string, double>& c = run.counts;
  std::vector<Metric> out;
  // End-to-end figures every workload has (the bounded set).
  const std::vector<Metric> e2e = {
      {"step_ms.p50", run.best.p50(), "ms"},
      {"cells_per_s", run.best.cells_per_s(), "1/s"},
      {"modeled_ms_per_step", c["modeled_ms_per_step"], "ms"},
      {"nvbm_lines_written_per_step", c["nvbm.lines_written"], "count"},
      {"nvbm_lines_read_per_step", c["nvbm.lines_read"], "count"},
      {"mem_bytes_per_leaf", c["mem_bytes_per_leaf"], "B"},
      {"setup_s", median(run.setup_s), "s"},
  };
  // Workload-specific figures: in the report lines only, so that every
  // workload's JSON carries the same metric set.
  std::vector<Metric> specific;
  if (spec->kind == Kind::kCrash) {
    specific = {
        {"recover_ms.p50", median(run.recover_ms), "ms"},
        {"resume_step_ms.p50", median(run.resume_ms), "ms"},
        {"nvbm.crash.lost_lines", run.lost_lines, "count"},
        {"pmoctree.resume.lines_read", run.resume_lines_read, "count"},
        {"pmoctree.resume.cache.hit_ratio", run.resume_hit_ratio, "ratio"},
    };
  }
  if (spec->kind == Kind::kServe) {
    const double qtail = tail_pct(run.query_us.size());
    specific = {
        {"query_us.p50", median(run.query_us), "us"},
        {"query_us.tail", percentile(run.query_us, qtail), "us"},
        {"query_us.tail_pct", qtail, "%"},
        {"query_late_frac", ratio(run.queries_late, run.queries_due),
         "ratio"},
        {"serve.offered_qps", kLaneQps * kReaderLanes, "1/s"},
        {"serve.latency_limit_us", kLatencyLimitNs * 1e-3, "us"},
        {"serve.gen_late_us.max", run.gen_late_max_us, "us"},
    };
    for (int k = 0; k < 4; ++k) {
      specific.push_back(
          {std::string("serve.query_us.") + kQueryKinds[k] + ".p50",
           median(run.service_us[k]), "us"});
    }
    for (const auto& [name, v] : run.serve)
      specific.push_back({name, v, unit_of(name)});
  }
  std::printf("workload %s, seed %" PRIu64 ": %d episodes of %d steps, "
              "%.0f leaves / %.0f octants at the end; step_ms.tail is the "
              "pooled p%.0f\n",
              spec->name, seed, episodes, kSteps, c["final.leaves"],
              c["final.octants"], kStepTailPct);
  for (const Metric& m : e2e)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  for (const Metric& m : specific)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);

  if (trace == 0) {
    out = e2e;
  } else {
    out = {
        {"step_ms.pooled_p50", median(run.step_ms), "ms"},
        {"step_ms.tail", percentile(run.step_ms, kStepTailPct), "ms"},
        {"failed_frac",
         ratio(static_cast<double>(run.failed),
               static_cast<double>(run.attempted)),
         "ratio"},
    };
    for (const auto& [name, v] : c) {
      if (name == "modeled_ms_per_step" || name == "mem_bytes_per_leaf" ||
          name == "nvbm.lines_read" || name == "nvbm.lines_written")
        continue;  // end-to-end metrics, reported by the untraced run
      out.push_back({name, v, unit_of(name)});
    }
    for (const auto& [name, v] : run.layer)
      out.push_back({name, v / run.traced_episodes, unit_of(name)});
    const double outside = ratio(run.traced_outside_ns, run.traced_wall_ns);
    out.push_back({"step.unattributed_pct", 100.0 * outside, "%"});
    out.push_back({"trace.overhead_pct",
                   100.0 * (ratio(run.traced_best.p50(), run.best.p50()) -
                            1.0),
                   "%"});
    // ROADMAP target: named layers cover at least 95% of step wall time.
    if (spec->kind == Kind::kDroplet)
      run.check(outside <= 0.05, "step.unattributed_pct <= 5");
  }
  for (const std::string& f : run.failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  print_json(run, out);
  return run.failed == 0 ? 0 : 1;
}
