// Tests for the persistent heap: allocation, free-list reuse, roots,
// attach-after-restart, sweep.
#include "nvbm/heap.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace pmo::nvbm {
namespace {

Config cfg() {
  Config c;
  c.latency_mode = LatencyMode::kNone;
  return c;
}

TEST(Heap, FormatsFreshDevice) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto s = heap.stats();
  EXPECT_EQ(s.live_objects, 0u);
  EXPECT_EQ(s.capacity, dev.capacity());
  EXPECT_GT(s.available_fraction(), 0.99);
}

TEST(Heap, AllocReturnsDistinctWritableRegions) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc(64);
  const auto b = heap.alloc(64);
  EXPECT_NE(a, b);
  dev.store<std::uint64_t>(a, 1);
  dev.store<std::uint64_t>(b, 2);
  EXPECT_EQ(dev.load<std::uint64_t>(a), 1u);
  EXPECT_EQ(dev.load<std::uint64_t>(b), 2u);
}

TEST(Heap, PayloadSizeRecorded) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc(100);
  EXPECT_EQ(heap.payload_size(a), 100u);
  EXPECT_TRUE(heap.is_allocated(a));
}

TEST(Heap, FreeThenReuseSameClass) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc(144);
  heap.free(a);
  EXPECT_FALSE(heap.is_allocated(a));
  const auto b = heap.alloc(144);
  EXPECT_EQ(a, b);  // exact-size free list reuses the slot
}

TEST(Heap, DoubleFreeDetected) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc(32);
  heap.free(a);
  EXPECT_THROW(heap.free(a), ContractError);
}

TEST(Heap, ExhaustionThrowsOutOfSpace) {
  Device dev(1 << 16, cfg());
  Heap heap(dev);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100000; ++i) heap.alloc(1024);
      },
      OutOfSpaceError);
}

TEST(Heap, FreeMakesSpaceReusableWithoutGrowingHighWater) {
  Device dev(1 << 18, cfg());
  Heap heap(dev);
  // Fill-free cycles must not exhaust the device (paper §3.2: freed NVBM
  // regions are reused before GC).
  std::vector<std::uint64_t> offs;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) offs.push_back(heap.alloc(144));
    for (const auto o : offs) heap.free(o);
    offs.clear();
  }
  const auto s = heap.stats();
  EXPECT_LT(s.high_water, dev.capacity() / 2);
}

TEST(Heap, RootsPersistAndReadBack) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  heap.set_root(0, 12345);
  heap.set_root(kMaxRoots - 1, 999);
  EXPECT_EQ(heap.root(0), 12345u);
  EXPECT_EQ(heap.root(kMaxRoots - 1), 999u);
  EXPECT_EQ(heap.root(5), 0u);
  EXPECT_THROW(heap.root(kMaxRoots), ContractError);
}

TEST(Heap, AttachRecoversObjectsAndFreeLists) {
  Device dev(1 << 20, cfg());
  std::uint64_t live_off = 0, freed_off = 0;
  {
    Heap heap(dev);
    live_off = heap.alloc(64);
    freed_off = heap.alloc(64);
    dev.store<std::uint64_t>(live_off, 0xabcddcba);
    heap.free(freed_off);
    heap.set_root(0, live_off);
  }
  // Re-attach to the same device (process restart).
  Heap heap2(dev);
  EXPECT_EQ(heap2.root(0), live_off);
  EXPECT_TRUE(heap2.is_allocated(live_off));
  EXPECT_FALSE(heap2.is_allocated(freed_off));
  EXPECT_EQ(dev.load<std::uint64_t>(live_off), 0xabcddcbaull);
  // The freed slot is reusable after restart.
  EXPECT_EQ(heap2.alloc(64), freed_off);
}

TEST(Heap, RootSurvivesCrashBecauseSetRootFlushes) {
  Config c = cfg();
  c.crash_sim = true;
  Device dev(1 << 20, c);
  Heap heap(dev);
  const auto off = heap.alloc(64);
  heap.set_root(0, off);
  Rng rng(3);
  dev.simulate_crash(rng, 0.0);  // drop every unflushed line
  Heap heap2(dev);
  EXPECT_EQ(heap2.root(0), off);
}

TEST(Heap, UnflushedPayloadLostButAllocatorConsistentAfterCrash) {
  Config c = cfg();
  c.crash_sim = true;
  Device dev(1 << 20, c);
  Heap heap(dev);
  const auto off = heap.alloc(64);
  dev.store<std::uint64_t>(off, 0x7777);  // payload not flushed
  Rng rng(4);
  dev.simulate_crash(rng, 0.0);
  Heap heap2(dev);
  // Allocation metadata was flushed by alloc(); payload content was not.
  EXPECT_TRUE(heap2.is_allocated(off));
  EXPECT_EQ(dev.load<std::uint64_t>(off), 0u);
}

TEST(Heap, DeferHighWaterWritesTheDurableMarkOnceOnExit) {
  Config c = cfg();
  c.crash_sim = true;
  Device dev(1 << 20, c);
  Heap heap(dev);
  std::vector<std::uint64_t> offs;
  const auto barriers = dev.counters().barriers;
  {
    Heap::DeferHighWater defer(heap);
    for (int i = 0; i < 8; ++i) offs.push_back(heap.alloc(64));
    EXPECT_EQ(dev.counters().barriers, barriers);  // volatile mark only
  }
  EXPECT_EQ(dev.counters().barriers, barriers + 1);
  Rng rng(5);
  dev.simulate_crash(rng, 0.0);
  Heap heap2(dev);
  for (const auto off : offs) EXPECT_TRUE(heap2.is_allocated(off));
}

TEST(Heap, CrashInsideDeferHighWaterTruncatesItsAllocations) {
  Config c = cfg();
  c.crash_sim = true;
  Device dev(1 << 20, c);
  Heap heap(dev);
  const auto kept = heap.alloc(64);
  Heap::DeferHighWater defer(heap);
  const auto lost = heap.alloc(64);
  Rng rng(6);
  dev.simulate_crash(rng, 1.0);  // every dirty line reaches the medium
  // The durable mark was never stored, so attach() drops the allocation
  // made inside the open scope and hands its space out again.
  Heap heap2(dev);
  EXPECT_TRUE(heap2.is_allocated(kept));
  EXPECT_FALSE(heap2.is_allocated(lost));
  EXPECT_EQ(heap2.alloc(64), lost);
}

TEST(Heap, DeferHighWaterClosesOnException) {
  Config c = cfg();
  c.crash_sim = true;
  Device dev(1 << 20, c);
  Heap heap(dev);
  std::vector<std::uint64_t> offs;
  EXPECT_THROW(
      {
        Heap::DeferHighWater defer(heap);
        for (;;) offs.push_back(heap.alloc(4096));
      },
      OutOfSpaceError);
  ASSERT_FALSE(offs.empty());
  Rng rng(7);
  dev.simulate_crash(rng, 0.0);
  Heap heap2(dev);
  for (const auto off : offs) EXPECT_TRUE(heap2.is_allocated(off));
}

TEST(Heap, ForEachObjectVisitsAll) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  std::set<std::uint64_t> expect;
  for (int i = 0; i < 10; ++i) expect.insert(heap.alloc(48));
  std::set<std::uint64_t> seen;
  std::size_t alloc_seen = 0;
  heap.for_each_object(
      [&](std::uint64_t off, std::uint32_t size, bool allocated) {
        seen.insert(off);
        EXPECT_EQ(size, 48u);
        alloc_seen += allocated;
      });
  EXPECT_EQ(seen, expect);
  EXPECT_EQ(alloc_seen, 10u);
}

TEST(Heap, SweepFreesOnlyDeadObjects) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 20; ++i) offs.push_back(heap.alloc(96));
  std::set<std::uint64_t> live(offs.begin(), offs.begin() + 5);
  const auto freed =
      heap.sweep([&](std::uint64_t off) { return live.count(off) != 0; });
  EXPECT_EQ(freed, 15u);
  for (const auto off : offs) {
    EXPECT_EQ(heap.is_allocated(off), live.count(off) != 0);
  }
}

TEST(Heap, StatsTrackLiveAndFree) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc(100);
  heap.alloc(100);
  heap.free(a);
  const auto s = heap.stats();
  EXPECT_EQ(s.live_objects, 1u);
  EXPECT_EQ(s.free_objects, 1u);
  EXPECT_EQ(s.live_bytes, 100u);
}

TEST(Pptr, NullAndRoundTrip) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  pptr<std::uint64_t> null;
  EXPECT_TRUE(null.null());
  EXPECT_FALSE(null);
  pptr<std::uint64_t> p(heap.alloc(8));
  EXPECT_TRUE(static_cast<bool>(p));
  p.store(dev, 909);
  EXPECT_EQ(p.load(dev), 909u);
}

}  // namespace
}  // namespace pmo::nvbm
