// Allocation gate for the simulator tick.
//
// A steady-state tick allocates nothing on the packet path: pools, max-min,
// queues, the pCPU backlog, the pumps and the INT hooks all reuse storage
// that grew on first use.  This binary replaces every form of operator new
// with a per-thread counter (as perfbench's harness does), so it must stay
// a test binary of its own.
//
// The rig is the perfbench dataplane_int machine: the Fig. 8 timeline in
// 2 s phases with the INT attach set (pNIC, NAPI and every per-VM element,
// each guest socket harvesting) and a harvester closing a window every
// 100 ms.  In every phase the first 1,000 ticks warm up and the next 1,000
// are counted.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "cluster/scenarios.h"
#include "perfsight/inband.h"
#include "perfsight/streaming.h"

namespace {
thread_local uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfsight {
namespace {

constexpr Duration kPhase = Duration::seconds(2.0);
constexpr int kPhases = 11;
constexpr Duration kIntWindow = Duration::millis(100);
constexpr int64_t kWarmTicks = 1000;
constexpr int64_t kCountedTicks = 1000;
// Allocations per 1,000 counted ticks of this rig before the tick was made
// allocation-free (std::deque queues, per-call max-min vectors, per-tick
// backlog temporaries, one hop-stack allocation per flight): ~27,400 with
// stamping off and ~37,200 with it on, in every phase.
constexpr uint64_t kBeforeStampingOff = 27000;
constexpr uint64_t kBeforeStampingOn = 37000;

struct Counted {
  uint64_t ticks = 0;   // every allocation of the counted ticks
  uint64_t closes = 0;  // of which inside IntHarvester::close_window
};

struct Rig {
  cluster::Fig8Scenario s;
  inband::IntStamper stamper{inband::IntStamper::Config{8, 16, 4096}};
  StreamCache cache;
  inband::IntHarvester harvester{
      &stamper, &cache,
      inband::IntHarvester::Config{"m0/int", 0, Duration::millis(500)}};
  uint64_t close_allocs = 0;

  explicit Rig(bool stamping) {
    s.schedule_phases(kPhase);
    vm::PhysicalMachine& m = s.machine();
    stamper.attach(*m.pnic());
    stamper.attach(*m.napi());
    for (int i = 0; i < m.num_vms(); ++i) {
      stamper.attach(*m.tun(i));
      stamper.attach(*m.hyperio(i));
      stamper.attach(*m.vnic(i));
      stamper.attach(*m.guest_backlog(i));
      stamper.set_harvest(stamper.attach(*m.guest_socket(i)), true);
    }
    stamper.enable_all(stamping);
    cache.set_retention(4);
    s.sim().every(SimTime(), s.sim().tick(),
                  [this] { stamper.set_now(s.sim().now()); });
    s.sim().every(SimTime() + kIntWindow, kIntWindow, [this] {
      const uint64_t a0 = t_allocs;
      harvester.close_window(s.sim().now() - kIntWindow);
      close_allocs += t_allocs - a0;
    });
  }

  // Runs the whole timeline; returns the counted ticks of each phase.
  std::vector<Counted> per_phase() {
    std::vector<Counted> out(kPhases);
    const Duration tick = s.sim().tick();
    for (int p = 0; p < kPhases; ++p) {
      s.sim().run_until(SimTime::nanos(kPhase.ns() * p) +
                        Duration::nanos(tick.ns() * kWarmTicks));
      const uint64_t a0 = t_allocs;
      const uint64_t c0 = close_allocs;
      s.sim().run_for(Duration::nanos(tick.ns() * kCountedTicks));
      out[p].ticks = t_allocs - a0;
      out[p].closes = close_allocs - c0;
      std::printf("phase %2d: %5llu allocations in %lld ticks, %5llu of them "
                  "in window closes\n",
                  p, static_cast<unsigned long long>(out[p].ticks),
                  static_cast<long long>(kCountedTicks),
                  static_cast<unsigned long long>(out[p].closes));
    }
    return out;
  }
};

TEST(SimAllocTest, StampingOffTickAllocatesNothing) {
  // Attached but disabled: the hooks, the empty window closes and the whole
  // packet path run on storage grown during warm-up.
  Rig rig(false);
  const std::vector<Counted> counted = rig.per_phase();
  for (int p = 0; p < kPhases; ++p) {
    EXPECT_EQ(counted[p].ticks, 0u)
        << "phase " << p << " (" << kBeforeStampingOff
        << " before the allocation-free tick)";
  }
}

TEST(SimAllocTest, StampingOnAllocatesOnlyInWindowCloses) {
  // With 1-in-8 stamping the packet path reuses the hop stacks of harvested
  // and expired flights, so it allocates nothing either.  What is left is
  // the harvester's ten window closes: their kInband records move into the
  // StreamCache, about four allocations per record (~1.3 per tick).
  Rig rig(true);
  const std::vector<Counted> counted = rig.per_phase();
  for (int p = 0; p < kPhases; ++p) {
    EXPECT_EQ(counted[p].ticks - counted[p].closes, 0u) << "phase " << p;
    EXPECT_LE(counted[p].ticks, kBeforeStampingOn / 10) << "phase " << p;
  }
}

}  // namespace
}  // namespace perfsight
