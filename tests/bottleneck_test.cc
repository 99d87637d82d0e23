// §5.1 bottleneck-middlebox detection: the suspicious set comes from
// utilization, the verdict from drop statistics — so a busy-waiting
// transcoder is exonerated while a genuinely overloaded forwarder (or a
// CPU-starved VM) is confirmed.
#include "perfsight/bottleneck.h"

#include <gtest/gtest.h>

#include "cluster/deployment.h"
#include "perfsight/faults.h"
#include "sim/simulator.h"
#include "vm/machine.h"

namespace perfsight {
namespace {

using namespace literals;

struct Rig {
  sim::Simulator sim{Duration::millis(1)};
  vm::PhysicalMachine m{"m0", dp::StackParams{}, &sim};
  cluster::Deployment dep{&sim};
  static constexpr TenantId kTenant{1};

  void wire() {
    Agent* a = dep.add_agent("a0");
    dep.attach(&m, a);
    PS_CHECK(dep.assign(kTenant, m.tun(0)->id(), a).is_ok());
  }
  SuspectVm suspect(int vm, const std::string& name) {
    return SuspectVm{
        name, {m.tun(vm)->id(), m.guest_socket(vm)->id()}};
  }
  FlowSpec flow(uint32_t id) {
    FlowSpec f;
    f.id = FlowId{id};
    f.packet_size = 1500;
    return f;
  }
};

TEST(BottleneckDetectorTest, BusyTranscoderExonerated) {
  Rig rig;
  int v = rig.m.add_vm({"transcoder", 1.0});
  rig.m.set_busy_wait_sink_app(v);
  FlowSpec f = rig.flow(1);
  rig.m.route_flow_to_vm(f, v);
  rig.m.add_ingress_source("s", f, 300_mbps);
  rig.wire();
  rig.sim.run_for(3_s);

  BottleneckDetector det(rig.dep.controller());
  BottleneckReport r = det.diagnose(
      Rig::kTenant, rig.m.utilization_snapshot(),
      {rig.suspect(v, "transcoder")}, Duration::seconds(1.0));
  // Suspicious (100% CPU) but exonerated (no loss anywhere on its path).
  ASSERT_EQ(r.verdicts.size(), 1u);
  EXPECT_GT(r.verdicts[0].cpu_utilization, 0.9);
  EXPECT_FALSE(r.verdicts[0].confirmed);
  EXPECT_EQ(r.exonerated, std::vector<std::string>{"transcoder"});
  EXPECT_TRUE(r.confirmed.empty());
}

TEST(BottleneckDetectorTest, StarvedVmConfirmed) {
  Rig rig;
  int victim = rig.m.add_vm({"victim", 1.0});
  rig.m.set_sink_app(victim);
  FlowSpec f = rig.flow(1);
  rig.m.route_flow_to_vm(f, victim);
  rig.m.add_ingress_source("s", f, 500_mbps);
  rig.m.add_vm_cpu_hog(victim)->set_demand_cores(1.0);
  rig.wire();
  rig.sim.run_for(2_s);

  BottleneckDetector det(rig.dep.controller());
  BottleneckReport r =
      det.diagnose(Rig::kTenant, rig.m.utilization_snapshot(),
                   {rig.suspect(victim, "victim")}, Duration::seconds(1.0));
  ASSERT_EQ(r.verdicts.size(), 1u);
  EXPECT_TRUE(r.verdicts[0].confirmed);
  EXPECT_GT(r.verdicts[0].loss_pkts, 1000);
  EXPECT_EQ(r.confirmed, std::vector<std::string>{"victim"});
}

// Counters the detector could not read never exonerate a suspect: a starved
// VM whose TUN reads always fail is neither confirmed nor "busy-but-healthy"
// (its drops are exactly the ones the failed reads hide) but unmeasured.
TEST(BottleneckDetectorTest, UnreadableDatapathIsUnmeasuredNotExonerated) {
  Rig rig;
  int victim = rig.m.add_vm({"victim", 1.0});
  rig.m.set_sink_app(victim);
  FlowSpec f = rig.flow(1);
  rig.m.route_flow_to_vm(f, victim);
  rig.m.add_ingress_source("s", f, 500_mbps);
  rig.m.add_vm_cpu_hog(victim)->set_demand_cores(1.0);
  rig.wire();
  FaultPlan plan(7);
  ChannelFaultSpec dead;
  dead.transient_p = 1.0;
  plan.set_element_faults(rig.m.tun(victim)->id(), dead);
  rig.dep.set_fault_plan(&plan);
  rig.sim.run_for(2_s);

  BottleneckDetector det(rig.dep.controller());
  BottleneckReport r =
      det.diagnose(Rig::kTenant, rig.m.utilization_snapshot(),
                   {rig.suspect(victim, "victim")}, Duration::seconds(1.0));
  ASSERT_EQ(r.verdicts.size(), 1u);
  EXPECT_TRUE(r.verdicts[0].unmeasured);
  EXPECT_FALSE(r.verdicts[0].confirmed);
  EXPECT_TRUE(r.confirmed.empty());
  EXPECT_TRUE(r.exonerated.empty());
  EXPECT_EQ(r.unmeasured, std::vector<std::string>{"victim"});
  const std::string text = to_text(r);
  EXPECT_NE(text.find("victim: cpu="), std::string::npos) << text;
  EXPECT_NE(text.find("-> unmeasured"), std::string::npos) << text;
  EXPECT_EQ(text.find("busy-but-healthy"), std::string::npos) << text;
}

TEST(BottleneckDetectorTest, LowUtilizationVmsSkippedUnlessDegenerate) {
  Rig rig;
  int idle = rig.m.add_vm({"idle", 1.0});
  rig.m.set_sink_app(idle);
  rig.wire();
  rig.sim.run_for(1_s);

  BottleneckDetector det(rig.dep.controller());
  BottleneckReport strict = det.diagnose(
      Rig::kTenant, rig.m.utilization_snapshot(),
      {rig.suspect(idle, "idle")}, Duration::millis(100));
  EXPECT_TRUE(strict.verdicts.empty());  // never suspicious

  BottleneckReport degenerate = det.diagnose(
      Rig::kTenant, rig.m.utilization_snapshot(),
      {rig.suspect(idle, "idle")}, Duration::millis(100),
      /*degenerate=*/true);
  ASSERT_EQ(degenerate.verdicts.size(), 1u);  // included, then exonerated
  EXPECT_FALSE(degenerate.verdicts[0].confirmed);
}

TEST(BottleneckDetectorTest, MixedPopulationSeparatesCleanly) {
  Rig rig;
  // A slow forwarder (true bottleneck), a busy transcoder (healthy), and a
  // quiet sink — all offered comparable load.
  int slow = rig.m.add_vm({"slow-fw", 1.0});
  dp::ForwardApp::Config fwd;
  fwd.capacity = 100_mbps;
  fwd.egress_flow = FlowId{99};
  rig.m.set_forward_app(slow, fwd);
  rig.m.route_flow_to_wire(FlowId{99}, "fw-out");
  int busy = rig.m.add_vm({"transcoder", 1.0});
  rig.m.set_busy_wait_sink_app(busy);
  int quiet = rig.m.add_vm({"quiet", 1.0});
  rig.m.set_sink_app(quiet);
  for (int i = 0; i < 3; ++i) {
    FlowSpec f = rig.flow(static_cast<uint32_t>(i + 1));
    rig.m.route_flow_to_vm(f, i);
    rig.m.add_ingress_source("s" + std::to_string(i), f, 300_mbps);
  }
  rig.wire();
  rig.sim.run_for(3_s);

  BottleneckDetector det(rig.dep.controller());
  BottleneckReport r = det.diagnose(
      Rig::kTenant, rig.m.utilization_snapshot(),
      {rig.suspect(slow, "slow-fw"), rig.suspect(busy, "transcoder"),
       rig.suspect(quiet, "quiet")},
      Duration::seconds(1.0), /*degenerate=*/true);
  ASSERT_EQ(r.verdicts.size(), 3u);
  EXPECT_EQ(r.confirmed, std::vector<std::string>{"slow-fw"});
  ASSERT_EQ(r.exonerated.size(), 2u);

  std::string text = to_text(r);
  EXPECT_NE(text.find("slow-fw"), std::string::npos);
  EXPECT_NE(text.find("BOTTLENECK"), std::string::npos);
}

}  // namespace
}  // namespace perfsight
