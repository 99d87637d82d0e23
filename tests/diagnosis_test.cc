// Integration tests of the two diagnostic applications against full
// scenarios: Algorithm 1 (contention / bottleneck, rule book) on the
// packet-path machine, Algorithm 2 (root cause in a chain) on the stream
// chains of Fig. 12, and the multi-tenant operator workflow of Fig. 13/14.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "cluster/deployment.h"
#include "cluster/scenarios.h"
#include "perfsight/contention.h"
#include "perfsight/faults.h"
#include "perfsight/rootcause.h"

namespace perfsight {
namespace {

using namespace literals;
using cluster::Deployment;
using cluster::MultiTenantScenario;
using cluster::PropagationScenario;

bool has_resource(const std::vector<ResourceKind>& v, ResourceKind r) {
  return std::find(v.begin(), v.end(), r) != v.end();
}

// --- Algorithm 1 over the packet path --------------------------------------

struct PacketRig {
  sim::Simulator sim{Duration::millis(1)};
  std::unique_ptr<vm::PhysicalMachine> machine;
  std::unique_ptr<Deployment> deployment;
  static constexpr TenantId kTenant{1};

  explicit PacketRig(dp::StackParams params = {}) {
    machine = std::make_unique<vm::PhysicalMachine>("m0", params, &sim);
    deployment = std::make_unique<Deployment>(&sim);
  }

  // Call once the topology is built.
  void wire_perfsight() {
    Agent* agent = deployment->add_agent("agent-m0");
    deployment->attach(machine.get(), agent);
    // Tenant owns one element so the controller can find the machine.
    PS_CHECK(
        deployment->assign(kTenant, machine->tun(0)->id(), agent).is_ok());
  }

  ContentionReport diagnose() {
    ContentionDetector detector(deployment->controller(),
                                RuleBook::standard());
    detector.set_loss_threshold(50);
    return detector.diagnose(kTenant, Duration::seconds(1.0),
                             machine->aux_signals());
  }
};

FlowSpec flow(uint32_t id, uint32_t pkt_size = 1500) {
  FlowSpec f;
  f.id = FlowId{id};
  f.packet_size = pkt_size;
  return f;
}

TEST(Algorithm1Test, HealthySystemReportsNothing) {
  PacketRig rig;
  int v = rig.machine->add_vm({"vm0", 1.0});
  rig.machine->set_sink_app(v);
  FlowSpec f = flow(1);
  rig.machine->route_flow_to_vm(f, v);
  rig.machine->add_ingress_source("s", f, 500_mbps);
  rig.wire_perfsight();
  rig.sim.run_for(2_s);

  ContentionReport r = rig.diagnose();
  EXPECT_FALSE(r.problem_found);
}

TEST(Algorithm1Test, IncomingOverloadBlamesPNicAndBandwidth) {
  PacketRig rig;
  for (int i = 0; i < 2; ++i) {
    int v = rig.machine->add_vm({"vm" + std::to_string(i), 1.0});
    rig.machine->set_sink_app(v);
    FlowSpec f = flow(i + 1);
    rig.machine->route_flow_to_vm(f, i);
    rig.machine->add_ingress_source("s" + std::to_string(i), f, 7_gbps);
  }
  rig.wire_perfsight();
  rig.sim.run_for(2_s);

  ContentionReport r = rig.diagnose();
  ASSERT_TRUE(r.problem_found);
  EXPECT_EQ(r.primary_location, ElementKind::kPNic);
  EXPECT_TRUE(r.is_contention);
  EXPECT_TRUE(
      has_resource(r.candidate_resources, ResourceKind::kIncomingBandwidth));
}

TEST(Algorithm1Test, VmBottleneckClassifiedSingleVm) {
  PacketRig rig;
  int victim = rig.machine->add_vm({"vm0", 1.0});
  int healthy = rig.machine->add_vm({"vm1", 1.0});
  rig.machine->set_sink_app(victim);
  rig.machine->set_sink_app(healthy);
  FlowSpec fv = flow(1), fh = flow(2);
  rig.machine->route_flow_to_vm(fv, victim);
  rig.machine->route_flow_to_vm(fh, healthy);
  rig.machine->add_ingress_source("sv", fv, 500_mbps);
  rig.machine->add_ingress_source("sh", fh, 500_mbps);
  rig.machine->add_vm_cpu_hog(victim)->set_demand_cores(1.0);
  rig.wire_perfsight();
  rig.sim.run_for(2_s);

  ContentionReport r = rig.diagnose();
  ASSERT_TRUE(r.problem_found);
  EXPECT_EQ(r.primary_location, ElementKind::kTun);
  EXPECT_EQ(r.spread, LossSpread::kSingleVm);
  EXPECT_FALSE(r.is_contention);  // bottleneck, not contention
  ASSERT_EQ(r.candidate_resources.size(), 1u);
  EXPECT_EQ(r.candidate_resources[0], ResourceKind::kVmLocal);
  EXPECT_EQ(r.affected_vms, std::vector<int>{victim});
}

TEST(Algorithm1Test, MemoryContentionBlamesMembusAcrossVms) {
  PacketRig rig;
  for (int i = 0; i < 2; ++i) {
    int v = rig.machine->add_vm({"vm" + std::to_string(i), 1.0});
    rig.machine->set_sink_app(v);
    FlowSpec f = flow(i + 1);
    rig.machine->route_flow_to_vm(f, i);
    rig.machine->add_ingress_source("s" + std::to_string(i), f,
                                    DataRate::gbps(1.6));
  }
  rig.machine->add_mem_hog("hog")->set_demand_bytes_per_sec(24e9);
  rig.wire_perfsight();
  rig.sim.run_for(3_s);

  ContentionReport r = rig.diagnose();
  ASSERT_TRUE(r.problem_found);
  EXPECT_EQ(r.primary_location, ElementKind::kTun);
  EXPECT_EQ(r.spread, LossSpread::kMultiVm);
  EXPECT_TRUE(r.is_contention);
  // Aux signals (CPU not hot, NIC not saturated) leave memory bandwidth.
  EXPECT_TRUE(
      has_resource(r.candidate_resources, ResourceKind::kMemoryBandwidth));
  EXPECT_FALSE(has_resource(r.candidate_resources, ResourceKind::kCpu));
}

TEST(Algorithm1Test, SmallPacketFloodBlamesBacklog) {
  dp::StackParams params;
  params.pnic_rate = 1_gbps;
  params.softirq_cost_per_pkt = 3.2e-6;
  params.qemu_cost_per_pkt = 0.25e-6;
  PacketRig rig(params);
  int rx_vm = rig.machine->add_vm({"vm0", 1.0});
  int flood_vm = rig.machine->add_vm({"vm1", 1.0});
  rig.machine->set_sink_app(rx_vm);
  FlowSpec fin = flow(1);
  rig.machine->route_flow_to_vm(fin, rx_vm);
  rig.machine->add_ingress_source("rx", fin, 500_mbps);
  FlowSpec fl = flow(2, 64);
  dp::SourceApp::Config cfg;
  cfg.flow = fl;
  cfg.rate = 1_gbps;
  cfg.cost_per_pkt = 0.05e-6;
  rig.machine->set_source_app(flood_vm, cfg);
  rig.machine->route_flow_to_wire(fl.id, "flood");
  rig.machine->pin_flow_to_core(fin.id, 0);
  rig.machine->pin_flow_to_core(fl.id, 0);
  rig.wire_perfsight();
  rig.sim.run_for(2_s);

  ContentionReport r = rig.diagnose();
  ASSERT_TRUE(r.problem_found);
  EXPECT_EQ(r.primary_location, ElementKind::kPCpuBacklog);
  EXPECT_EQ(r.spread, LossSpread::kSharedElement);
  EXPECT_TRUE(r.is_contention);
  EXPECT_TRUE(
      has_resource(r.candidate_resources, ResourceKind::kBacklogQueue));
}

// --- Algorithm 2 over stream chains (Fig. 12) --------------------------------

MbState state_of(const RootCauseReport& r, const mbox::StreamApp* app) {
  for (const MbObservation& o : r.observations) {
    if (o.id == app->id()) return o.state;
  }
  ADD_FAILURE() << "no observation for " << app->id().name;
  return MbState::kNormal;
}

TEST(Algorithm2Test, OverloadedServerIdentified) {
  PropagationScenario s(PropagationScenario::Case::kOverloadedServer);
  s.settle();
  RootCauseReport r = s.diagnose();

  EXPECT_EQ(state_of(r, s.lb), MbState::kWriteBlocked);
  EXPECT_EQ(state_of(r, s.cf1), MbState::kWriteBlocked);
  EXPECT_EQ(state_of(r, s.nfs), MbState::kReadBlocked);
  ASSERT_EQ(r.root_causes.size(), 1u);
  EXPECT_EQ(r.root_causes[0], s.server1->id());
  EXPECT_EQ(r.root_cause_roles[0], MbRole::kOverloaded);
}

TEST(Algorithm2Test, UnderloadedClientIdentified) {
  PropagationScenario s(PropagationScenario::Case::kUnderloadedClient);
  s.settle();
  RootCauseReport r = s.diagnose();

  EXPECT_EQ(state_of(r, s.lb), MbState::kReadBlocked);
  EXPECT_EQ(state_of(r, s.cf1), MbState::kReadBlocked);
  ASSERT_EQ(r.root_causes.size(), 1u);
  EXPECT_EQ(r.root_causes[0], s.client->id());
  EXPECT_EQ(r.root_cause_roles[0], MbRole::kUnderloaded);
}

TEST(Algorithm2Test, BuggyNfsIdentifiedThroughPropagation) {
  PropagationScenario s(PropagationScenario::Case::kBuggyNfs);
  s.settle(Duration::seconds(4.0));
  RootCauseReport r = s.diagnose();

  EXPECT_EQ(state_of(r, s.cf1), MbState::kWriteBlocked);
  EXPECT_EQ(state_of(r, s.lb), MbState::kWriteBlocked);
  EXPECT_EQ(state_of(r, s.server1), MbState::kReadBlocked);
  ASSERT_EQ(r.root_causes.size(), 1u);
  EXPECT_EQ(r.root_causes[0], s.nfs->id());
  EXPECT_EQ(r.root_cause_roles[0], MbRole::kOverloaded);
}

// --- Fig. 13/14 multi-tenant workflow ----------------------------------------

// The all-dark rule: when no element of the scan set answers the first
// sweep, Algorithms 1 and 2 report nothing measured — coverage 0, every
// element a blind spot — and wait out no window.
TEST(AllDarkScanTest, NoFirstSampleMeansNoWindowAndZeroCoverage) {
  PropagationScenario s(PropagationScenario::Case::kOverloadedServer);
  s.settle();
  std::optional<FaultPlan> plan =
      FaultPlan::parse("seed=3,outage=agent-m0@0-60000");
  ASSERT_TRUE(plan.has_value());
  s.deployment().set_fault_plan(&*plan);
  Controller* ctl = s.deployment().controller();
  const SimTime before = s.sim().now();

  ContentionDetector det(ctl, RuleBook::standard());
  ContentionReport a1 = det.diagnose(PropagationScenario::kTenant, 1_s);
  const size_t scan = ctl->stack_elements_for(PropagationScenario::kTenant)
                          .size();
  ASSERT_GT(scan, 0u);
  EXPECT_EQ(a1.coverage, 0.0);
  EXPECT_EQ(a1.blind_spots.size(), scan);
  EXPECT_TRUE(a1.ranked.empty());
  EXPECT_FALSE(a1.problem_found);
  EXPECT_EQ(s.sim().now(), before);

  RootCauseAnalyzer rca(ctl);
  RootCauseReport a2 = rca.analyze(PropagationScenario::kTenant, 1_s);
  const size_t mbs = ctl->middleboxes(PropagationScenario::kTenant).size();
  ASSERT_GT(mbs, 0u);
  EXPECT_EQ(a2.coverage, 0.0);
  EXPECT_EQ(a2.blind_spots.size(), mbs);
  for (const MbObservation& o : a2.blind_spots) {
    EXPECT_EQ(o.quality, DataQuality::kMissing) << o.id.name;
  }
  EXPECT_EQ(s.sim().now(), before);
}

TEST(MultiTenantTest, BottleneckThenContentionThenScaleOut) {
  MultiTenantScenario s;
  const Duration phase = Duration::seconds(2.0);

  // Phase 1: tenant 2 capped by its LB's 200 Mbps processing capacity.
  s.sim().run_for(phase);
  s.tenant1_throughput(phase);  // reset counters
  s.tenant2_throughput(phase);
  s.sim().run_for(phase);
  double t1 = s.tenant1_throughput(phase).mbits_per_sec();
  double t2 = s.tenant2_throughput(phase).mbits_per_sec();
  EXPECT_NEAR(t1, 180, 20);
  EXPECT_NEAR(t2, 200, 25);
  // The LB2 VM's TUN is dropping (its app can't keep up).
  EXPECT_GT(s.lb2_vm->tun()->stats().drop_pkts.value(), 100u);

  // Phase 2: memory-intensive management task hurts both tenants.
  s.start_management_task(24.5e9);
  s.sim().run_for(phase);
  s.tenant1_throughput(phase);
  s.tenant2_throughput(phase);
  s.sim().run_for(phase);
  double t1_hog = s.tenant1_throughput(phase).mbits_per_sec();
  double t2_hog = s.tenant2_throughput(phase).mbits_per_sec();
  EXPECT_LT(t1_hog, 0.8 * t1);
  EXPECT_LT(t2_hog, 0.8 * t2);
  EXPECT_GT(s.lb1_vm->tun()->stats().drop_pkts.value(), 100u);

  // Phase 3: migrate the task away -> recovery.
  s.stop_management_task();
  s.sim().run_for(phase);
  s.tenant1_throughput(phase);
  s.tenant2_throughput(phase);
  s.sim().run_for(phase);
  EXPECT_NEAR(s.tenant1_throughput(phase).mbits_per_sec(), 180, 20);
  EXPECT_NEAR(s.tenant2_throughput(phase).mbits_per_sec(), 200, 25);

  // Phase 4: scale out tenant 2's LB -> full 360 Mbps.
  s.scale_out_tenant2();
  s.sim().run_for(phase);
  s.tenant1_throughput(phase);
  s.tenant2_throughput(phase);
  s.sim().run_for(phase);
  EXPECT_NEAR(s.tenant2_throughput(phase).mbits_per_sec(), 360, 40);
}

}  // namespace
}  // namespace perfsight
