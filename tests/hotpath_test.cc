// Hotpath overhead harness: counter correctness under instrumentation,
// determinism of the work models, and the per-update cost probes.
#include "perfsight/hotpath.h"

#include <gtest/gtest.h>

#include "perfsight/agent.h"

namespace perfsight {
namespace {

TEST(HotpathTest, CountsPacketsAndBytes) {
  HotpathConfig cfg;
  cfg.kind = MbWorkKind::kProxy;
  cfg.packet_bytes = 1500;
  cfg.simple_counters = true;
  HotpathResult r = run_hotpath(cfg, 100);
  EXPECT_EQ(r.packets, 100u);
  EXPECT_EQ(r.stats.pkts_in.value(), 100u);
  EXPECT_EQ(r.stats.bytes_in.value(), 150000u);
  EXPECT_EQ(r.stats.pkts_out.value(), 100u);
  EXPECT_GT(r.wall_ns, 0u);
}

TEST(HotpathTest, NoCountersMeansNoCounts) {
  HotpathConfig cfg;
  cfg.simple_counters = false;
  HotpathResult r = run_hotpath(cfg, 50);
  EXPECT_EQ(r.stats.pkts_in.value(), 0u);
}

TEST(HotpathTest, TimeCountersAccumulateIoTime) {
  HotpathConfig cfg;
  cfg.time_counters = true;
  HotpathResult r = run_hotpath(cfg, 200);
  EXPECT_GT(r.stats.in_time.nanos(), 0u);
  EXPECT_GT(r.stats.out_time.nanos(), 0u);
  // I/O time is a subset of wall time.
  EXPECT_LE(r.stats.in_time.nanos() + r.stats.out_time.nanos(), r.wall_ns * 2);
}

TEST(HotpathTest, ChecksumDeterministicPerKind) {
  for (MbWorkKind kind :
       {MbWorkKind::kProxy, MbWorkKind::kLoadBalancer, MbWorkKind::kCache,
        MbWorkKind::kRedundancyElim, MbWorkKind::kIps}) {
    HotpathConfig cfg;
    cfg.kind = kind;
    HotpathResult a = run_hotpath(cfg, 300);
    HotpathResult b = run_hotpath(cfg, 300);
    EXPECT_EQ(a.checksum, b.checksum) << to_string(kind);
  }
}

TEST(HotpathTest, InstrumentationDoesNotChangeResults) {
  // Counters must be observers: same processing outcome with and without.
  HotpathConfig plain;
  plain.kind = MbWorkKind::kIps;
  HotpathConfig instrumented = plain;
  instrumented.simple_counters = true;
  instrumented.time_counters = true;
  EXPECT_EQ(run_hotpath(plain, 500).checksum,
            run_hotpath(instrumented, 500).checksum);
}

TEST(HotpathTest, WorkKindsHaveDistinctCosts) {
  // The payload-inspecting kinds do more work per packet than pure
  // forwarding (they are the "high utilization yet healthy" middleboxes).
  // Compared by the harness's deterministic work count, not wall-clock,
  // so a loaded host cannot flip the verdict.
  auto worked_per_packet = [](MbWorkKind kind) {
    HotpathConfig cfg;
    cfg.kind = kind;
    const HotpathResult r = run_hotpath(cfg, 400);
    return r.payload_bytes_worked / r.packets;
  };
  const uint64_t proxy = worked_per_packet(MbWorkKind::kProxy);
  EXPECT_EQ(proxy, 1500u);  // the copy alone
  EXPECT_GT(worked_per_packet(MbWorkKind::kIps), proxy);
  EXPECT_GT(worked_per_packet(MbWorkKind::kCache), proxy);
  EXPECT_GT(worked_per_packet(MbWorkKind::kRedundancyElim), proxy);
  EXPECT_GT(worked_per_packet(MbWorkKind::kLoadBalancer), proxy);
}

TEST(HotpathTest, CounterCostProbesReturnSaneValues) {
  double simple_ns = measure_simple_counter_ns(500000);
  double timer_ns = measure_time_counter_ns(50000);
  EXPECT_GT(simple_ns, 0.0);
  EXPECT_LT(simple_ns, 100.0);  // an add, not a syscall
  EXPECT_GT(timer_ns, simple_ns);  // two clock reads cost more than an add
  EXPECT_LT(timer_ns, 5000.0);
}

TEST(HotpathStatsSourceTest, ExportsLiveCounters) {
  ElementStats stats;
  stats.pkts_in.add(7);
  stats.bytes_in.add(10500);
  HotpathStatsSource src(ElementId{"mb0"}, &stats);
  EXPECT_EQ(src.channel_kind(), ChannelKind::kMbSocket);
  StatsRecord r = src.collect(SimTime::millis(1));
  EXPECT_EQ(r.get(attr::kRxPkts), 7.0);
  EXPECT_EQ(r.get(attr::kRxBytes), 10500.0);
  // Live: later updates visible on the next collect.
  stats.pkts_in.add(3);
  EXPECT_EQ(src.collect(SimTime::millis(2)).get(attr::kRxPkts), 10.0);
}

}  // namespace
}  // namespace perfsight
