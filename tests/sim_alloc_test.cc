// Allocation gates for the simulator tick and the stream cache's apply.
//
// A steady-state tick allocates nothing on the packet path: pools, max-min,
// queues, the pCPU backlog, the pumps and the INT hooks all reuse storage
// that grew on first use.  An in-order stream frame costs the cache what
// decoding it costs, plus the shared frame and its map node: the decoded
// records are stored, not copied.  This binary replaces every form of
// operator new with a per-thread counter (as perfbench's harness does), so
// it must stay a test binary of its own.
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
#include <string>

#include "cluster/scenarios.h"
#include "perfsight/inband.h"
#include "perfsight/streaming.h"
#include "perfsight/wire.h"

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

// --- stream cache apply ------------------------------------------------------

// One agent's 1,024-element capture at window `k`: twelve attrs per record,
// counters advancing by small integers from window to window and the rest
// sitting still — the steady state a delta frame encodes.
wire::StreamDataMsg capture(uint64_t k) {
  wire::StreamDataMsg m;
  m.agent = "a0";
  m.seq = k;
  m.window_start = SimTime::millis(100 * static_cast<int64_t>(k));
  m.responses.resize(1024);
  for (size_t i = 0; i < m.responses.size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof name, "m0/vm%02zu/element%04zu", i / 64, i);
    QueryResponse& r = m.responses[i];
    r.record.timestamp = m.window_start;
    r.record.element = ElementId{name};
    r.attempts = 1;
    for (int a = 0; a < 12; ++a) {
      const double v = a < 6 ? static_cast<double>((i + 1) * k * (a + 1)) : a;
      r.record.attrs.push_back({"attr" + std::to_string(a), v});
    }
  }
  return m;
}

TEST(StreamAllocTest, InOrderDeltaApplyStoresTheDecodedFrame) {
  const wire::StreamDataMsg w1 = capture(1);
  const wire::StreamDataMsg w2 = capture(2);
  const std::string snapshot = wire::encode_stream_data(w1, nullptr).value();
  const std::string delta = wire::encode_stream_data(w2, &w1).value();
  StreamCache cache;
  ASSERT_TRUE(cache.apply(snapshot).ok());

  uint64_t a0 = t_allocs;
  const bool decoded = wire::decode_stream_data(delta, &w1).ok();
  const uint64_t decode = t_allocs - a0;
  a0 = t_allocs;
  Result<StreamCache::ApplyResult> applied = cache.apply(delta);
  const uint64_t apply = t_allocs - a0;
  std::printf("1,024-record delta frame: decode %llu allocations, apply %llu\n",
              static_cast<unsigned long long>(decode),
              static_cast<unsigned long long>(apply));
  ASSERT_TRUE(decoded);
  ASSERT_TRUE(applied.ok() && applied.value().applied);
  // The shared frame and the window's map node; copying the records into
  // the window and again into the delta base would double `decode`.
  constexpr uint64_t kFrameAndNode = 2;
  EXPECT_LE(apply, decode + kFrameAndNode);
}

}  // namespace
}  // namespace perfsight
