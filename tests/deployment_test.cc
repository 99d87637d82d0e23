// Deployment / controller integration: tenant isolation, multi-agent
// resolution, registration error paths, and the controller's view of
// chains spanning machines.
#include "cluster/deployment.h"

#include <gtest/gtest.h>

#include "cluster/fabric.h"
#include "mbox/presets.h"
#include "sim/simulator.h"

namespace perfsight::cluster {
namespace {

using namespace literals;

TEST(DeploymentTest, AssignRejectsUnknownElement) {
  sim::Simulator sim(Duration::millis(1));
  Deployment dep(&sim);
  Agent* a = dep.add_agent("a0");
  Status st = dep.assign(TenantId{1}, ElementId{"ghost"}, a);
  EXPECT_FALSE(st.is_ok());
}

TEST(DeploymentTest, ControllerAdvanceDrivesSimulator) {
  sim::Simulator sim(Duration::millis(1));
  Deployment dep(&sim);
  SimTime before = sim.now();
  dep.controller()->advance(Duration::millis(250));
  EXPECT_EQ((sim.now() - before).ms(), 250.0);
  EXPECT_EQ(dep.controller()->now().ns(), sim.now().ns());
}

TEST(DeploymentTest, TenantsSeeOnlyTheirElements) {
  sim::Simulator sim(Duration::millis(1));
  vm::PhysicalMachine m("m0", dp::StackParams{}, &sim);
  Deployment dep(&sim);
  int v0 = m.add_vm({"vm0", 1.0});
  int v1 = m.add_vm({"vm1", 1.0});
  Agent* a = dep.add_agent("a0");
  dep.attach(&m, a);
  PS_CHECK(dep.assign(TenantId{1}, m.tun(v0)->id(), a).is_ok());
  PS_CHECK(dep.assign(TenantId{2}, m.tun(v1)->id(), a).is_ok());

  auto t1 = dep.controller()->elements_of(TenantId{1});
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1[0], m.tun(v0)->id());
  auto t2 = dep.controller()->elements_of(TenantId{2});
  ASSERT_EQ(t2.size(), 1u);
  EXPECT_EQ(t2[0], m.tun(v1)->id());
  EXPECT_TRUE(dep.controller()->elements_of(TenantId{99}).empty());
}

TEST(DeploymentTest, StackScanCoversOnlyHostingMachines) {
  sim::Simulator sim(Duration::millis(1));
  vm::PhysicalMachine m0("m0", dp::StackParams{}, &sim);
  vm::PhysicalMachine m1("m1", dp::StackParams{}, &sim);
  Deployment dep(&sim);
  m0.add_vm({"vm0", 1.0});
  m1.add_vm({"vm0", 1.0});
  Agent* a0 = dep.add_agent("a0");
  Agent* a1 = dep.add_agent("a1");
  dep.attach(&m0, a0);
  dep.attach(&m1, a1);
  // Tenant 1 lives only on m0.
  PS_CHECK(dep.assign(TenantId{1}, m0.tun(0)->id(), a0).is_ok());

  auto scan = dep.controller()->stack_elements_for(TenantId{1});
  ASSERT_FALSE(scan.empty());
  for (const ElementId& id : scan) {
    EXPECT_EQ(id.name.substr(0, 3), "m0/") << id.name;
  }
}

TEST(DeploymentTest, CrossAgentElementResolution) {
  sim::Simulator sim(Duration::millis(1));
  vm::PhysicalMachine m0("m0", dp::StackParams{}, &sim);
  vm::PhysicalMachine m1("m1", dp::StackParams{}, &sim);
  Deployment dep(&sim);
  m0.add_vm({"vm0", 1.0});
  m1.add_vm({"vm0", 1.0});
  Agent* a0 = dep.add_agent("a0");
  Agent* a1 = dep.add_agent("a1");
  dep.attach(&m0, a0);
  dep.attach(&m1, a1);
  PS_CHECK(dep.assign(TenantId{1}, m0.tun(0)->id(), a0).is_ok());
  PS_CHECK(dep.assign(TenantId{1}, m1.tun(0)->id(), a1).is_ok());

  // Each machine's element resolves to its agent, a shared stack element
  // resolves even without tenant ownership, and an unknown element fails
  // cleanly.
  auto got = dep.controller()->get_attr_many(
      TenantId{1},
      {m0.tun(0)->id(), m1.tun(0)->id(), m1.pnic()->id(), ElementId{"m7/pnic"}},
      {attr::kRxPkts, attr::kCapacityMbps});
  ASSERT_EQ(got.size(), 4u);
  EXPECT_TRUE(got[0].ok());
  EXPECT_TRUE(got[1].ok());
  EXPECT_TRUE(got[2].ok());
  EXPECT_FALSE(got[3].ok());
}

TEST(DeploymentTest, StreamChainRegistrationBuildsTopology) {
  sim::Simulator sim(Duration::millis(1));
  mbox::StreamMachine m(mbox::StreamMachineConfig{"m0", 8, 25e9, 16}, &sim);
  Deployment dep(&sim);
  auto vm = [&](const char* n) {
    mbox::StreamVmConfig cfg;
    cfg.name = n;
    cfg.vnic = 100_mbps;
    return m.add_vm(cfg);
  };
  auto* va = vm("a");
  auto* vb = vm("b");
  auto* c = m.connect(va, vb, {"a-b"});
  auto* src = m.add_app(va, "src", mbox::presets::client(50_mbps));
  src->add_output(c, 1.0);
  auto* dst = m.add_app(vb, "dst", mbox::presets::server(1_gbps));
  dst->add_input(c);
  Agent* a = dep.add_agent("a0");
  dep.attach(&m, a);
  PS_CHECK(dep.add_middlebox(TenantId{1}, src, a).is_ok());
  PS_CHECK(dep.add_middlebox(TenantId{1}, dst, a).is_ok());
  dep.chain(TenantId{1}, src, dst);

  EXPECT_EQ(dep.controller()->middleboxes(TenantId{1}).size(), 2u);
  EXPECT_TRUE(
      dep.controller()->chain(TenantId{1}).successors(src->id()).count(
          dst->id()));
  // Middlebox registration implies element assignment (GETATTR works).
  auto r = dep.controller()->get_attr_many(TenantId{1}, {dst->id()},
                                           {attr::kCapacityMbps});
  ASSERT_TRUE(r[0].ok());
  EXPECT_EQ(r[0].value().record.get(attr::kCapacityMbps), 100.0);
}

TEST(DeploymentTest, DuplicateMiddleboxRegistrationFails) {
  sim::Simulator sim(Duration::millis(1));
  mbox::StreamMachine m(mbox::StreamMachineConfig{"m0", 8, 25e9, 16}, &sim);
  Deployment dep(&sim);
  mbox::StreamVmConfig cfg;
  cfg.name = "a";
  auto* va = m.add_vm(cfg);
  auto* app = m.add_app(va, "app", mbox::presets::server(1_gbps));
  Agent* a0 = dep.add_agent("a0");
  Agent* a1 = dep.add_agent("a1");
  dep.attach(&m, a0);
  // Registering with an agent that does not serve the element fails.
  EXPECT_FALSE(dep.add_middlebox(TenantId{1}, app, a1).is_ok());
  EXPECT_TRUE(dep.add_middlebox(TenantId{1}, app, a0).is_ok());
}

}  // namespace
}  // namespace perfsight::cluster
