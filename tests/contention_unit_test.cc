// Algorithm 1 unit tests with scripted element statistics: loss ranking,
// spread classification (shared element / multi-VM / single-VM), rule-book
// candidate mapping and aux-signal disambiguation.
#include "perfsight/contention.h"

#include <gtest/gtest.h>

#include "perfsight/agent.h"
#include "perfsight/controller.h"

namespace perfsight {
namespace {

struct ScriptedElement : StatsSource {
  ScriptedElement(std::string n, ElementKind k, int vm_index)
      : id_{std::move(n)}, kind(k), vm(vm_index) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kProcFs; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = {{attr::kDropPkts, drops},
               {attr::kRxPkts, in_pkts},
               {attr::kTxPkts, out_pkts},
               {attr::kType, static_cast<double>(static_cast<int>(kind))},
               {attr::kVm, static_cast<double>(vm)}};
    return r;
  }

  ElementId id_;
  ElementKind kind;
  int vm;
  double drops = 0, in_pkts = 0, out_pkts = 0;
  double drop_rate = 0;  // drops added per second of advance
};

class ContentionUnit : public ::testing::Test {
 protected:
  ContentionUnit()
      : agent_("a0"),
        controller_([this](Duration d) { return advance(d); },
                    [this] { return now_; }) {
    controller_.register_agent(&agent_);
  }

  ScriptedElement* element(const std::string& name, ElementKind k, int vm) {
    elems_.push_back(std::make_unique<ScriptedElement>(name, k, vm));
    ScriptedElement* e = elems_.back().get();
    PS_CHECK(agent_.add_element(e).is_ok());
    controller_.register_stack_element(&agent_, e->id());
    return e;
  }
  void own(ScriptedElement* e) {
    PS_CHECK(
        controller_.register_element(kTenant, e->id(), &agent_).is_ok());
  }
  SimTime advance(Duration d) {
    now_ = now_ + d;
    for (auto& e : elems_) e->drops += e->drop_rate * d.sec();
    if (advance_hook_) advance_hook_(d.sec());
    return now_;
  }
  ContentionReport diagnose(const AuxSignals& aux = {}) {
    ContentionDetector det(&controller_, RuleBook::standard());
    det.set_loss_threshold(10);
    return det.diagnose(kTenant, Duration::seconds(1.0), aux);
  }

  static constexpr TenantId kTenant{1};
  SimTime now_;
  Agent agent_;
  Controller controller_;
  std::vector<std::unique_ptr<ScriptedElement>> elems_;
  std::function<void(double)> advance_hook_;
};

TEST_F(ContentionUnit, NoLossNoProblem) {
  auto* tun = element("m0/vm0/tun", ElementKind::kTun, 0);
  own(tun);
  ContentionReport r = diagnose();
  EXPECT_FALSE(r.problem_found);
  EXPECT_FALSE(r.ranked.empty());  // scanned, just not lossy
}

TEST_F(ContentionUnit, RanksElementsByLoss) {
  auto* a = element("m0/vm0/tun", ElementKind::kTun, 0);
  auto* b = element("m0/vm1/tun", ElementKind::kTun, 1);
  auto* c = element("m0/pnic", ElementKind::kPNic, -1);
  own(a);
  a->drop_rate = 100;
  b->drop_rate = 900;
  c->drop_rate = 50;
  ContentionReport r = diagnose();
  ASSERT_TRUE(r.problem_found);
  ASSERT_EQ(r.ranked.size(), 3u);
  EXPECT_EQ(r.ranked[0].id, b->id());
  EXPECT_EQ(r.ranked[1].id, a->id());
  EXPECT_EQ(r.ranked[2].id, c->id());
}

// The ranking is loss descending, equal losses by ascending id, whatever
// order the stack elements were registered in and whichever agent owns
// them: the scan set arrives ascending and unique, and the sort keeps it.
TEST_F(ContentionUnit, RanksEqualLossesByIdAcrossAgents) {
  Agent second("a1", 2);
  controller_.register_agent(&second);
  struct Spec {
    const char* name;
    Agent* agent;
    ElementKind kind;
    int vm;
    double drop_rate;
  };
  const Spec specs[] = {
      {"m1/vm2/tun", &second, ElementKind::kTun, 2, 300},
      {"m0/vm3/tun", &agent_, ElementKind::kTun, 3, 300},
      {"m1/vm0/tun", &second, ElementKind::kTun, 0, 300},
      {"m0/pnic", &agent_, ElementKind::kPNic, -1, 700},
      {"m0/vm1/tun", &agent_, ElementKind::kTun, 1, 300},
      {"m1/pnic", &second, ElementKind::kPNic, -1, 0},
      {"m0/vm0/tun", &agent_, ElementKind::kTun, 0, 0},
  };
  for (const Spec& s : specs) {
    elems_.push_back(std::make_unique<ScriptedElement>(s.name, s.kind, s.vm));
    ScriptedElement* e = elems_.back().get();
    e->drop_rate = s.drop_rate;
    PS_CHECK(s.agent->add_element(e).is_ok());
    controller_.register_stack_element(s.agent, e->id());
  }
  PS_CHECK(controller_.register_element(kTenant, ElementId{"m0/vm0/tun"},
                                        &agent_)
               .is_ok());
  PS_CHECK(controller_.register_element(kTenant, ElementId{"m1/pnic"},
                                        &second)
               .is_ok());

  ContentionReport r = diagnose();
  std::vector<std::string> ranked;
  for (const ElementLossEntry& e : r.ranked) {
    ranked.push_back(e.id.name + " " + std::to_string(e.loss_pkts));
  }
  EXPECT_EQ(ranked, (std::vector<std::string>{
                        "m0/pnic 700", "m0/vm1/tun 300", "m0/vm3/tun 300",
                        "m1/vm0/tun 300", "m1/vm2/tun 300", "m0/vm0/tun 0",
                        "m1/pnic 0"}));
}

TEST_F(ContentionUnit, SingleVmTunLossIsBottleneck) {
  auto* a = element("m0/vm0/tun", ElementKind::kTun, 0);
  auto* b = element("m0/vm1/tun", ElementKind::kTun, 1);
  own(a);
  (void)b;
  a->drop_rate = 500;
  ContentionReport r = diagnose();
  ASSERT_TRUE(r.problem_found);
  EXPECT_EQ(r.spread, LossSpread::kSingleVm);
  EXPECT_FALSE(r.is_contention);
  ASSERT_EQ(r.candidate_resources.size(), 1u);
  EXPECT_EQ(r.candidate_resources[0], ResourceKind::kVmLocal);
}

TEST_F(ContentionUnit, MultiVmTunLossIsContention) {
  auto* a = element("m0/vm0/tun", ElementKind::kTun, 0);
  auto* b = element("m0/vm1/tun", ElementKind::kTun, 1);
  own(a);
  a->drop_rate = 500;
  b->drop_rate = 480;
  ContentionReport r = diagnose();
  ASSERT_TRUE(r.problem_found);
  EXPECT_EQ(r.spread, LossSpread::kMultiVm);
  EXPECT_TRUE(r.is_contention);
  EXPECT_EQ(r.affected_vms, (std::vector<int>{0, 1}));
  EXPECT_GE(r.candidate_resources.size(), 2u);  // ambiguous without aux
}

TEST_F(ContentionUnit, SharedElementLossIsContention) {
  auto* tun = element("m0/vm0/tun", ElementKind::kTun, 0);
  auto* bl = element("m0/pcpu-backlog", ElementKind::kPCpuBacklog, -1);
  own(tun);
  bl->drop_rate = 1000;
  ContentionReport r = diagnose();
  ASSERT_TRUE(r.problem_found);
  EXPECT_EQ(r.primary_location, ElementKind::kPCpuBacklog);
  EXPECT_EQ(r.spread, LossSpread::kSharedElement);
  EXPECT_TRUE(r.is_contention);
}

TEST_F(ContentionUnit, AuxSignalsNarrowTheAmbiguousSet) {
  auto* a = element("m0/vm0/tun", ElementKind::kTun, 0);
  auto* b = element("m0/vm1/tun", ElementKind::kTun, 1);
  own(a);
  a->drop_rate = 500;
  b->drop_rate = 500;

  AuxSignals cpu_hot;
  cpu_hot.host_cpu_utilization = 0.99;
  cpu_hot.nic_capacity = DataRate::gbps(10);
  cpu_hot.nic_tx_throughput = DataRate::gbps(1);
  ContentionReport r = diagnose(cpu_hot);
  // CPU stays a candidate; egress and memory-space are ruled out.
  bool has_cpu = false, has_egress = false;
  for (ResourceKind res : r.candidate_resources) {
    has_cpu |= res == ResourceKind::kCpu;
    has_egress |= res == ResourceKind::kOutgoingBandwidth;
  }
  EXPECT_TRUE(has_cpu);
  EXPECT_FALSE(has_egress);
}

// An element exposing only in/out counters (no explicit drop counter), as
// some legacy kernel elements do; the detector must use the paper's
// (in - out) growth fallback.
struct MinimalElement : StatsSource {
  ElementId id_{"m0/legacy-tun"};
  double in = 0, out = 0;
  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kProcFs; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = {{attr::kRxPkts, in},
               {attr::kTxPkts, out},
               {attr::kType,
                static_cast<double>(static_cast<int>(ElementKind::kTun))},
               {attr::kVm, 0}};
    return r;
  }
};

TEST_F(ContentionUnit, FallsBackToInMinusOutWithoutDropCounter) {
  MinimalElement minimal;
  PS_CHECK(agent_.add_element(&minimal).is_ok());
  controller_.register_stack_element(&agent_, minimal.id());
  auto* owned = element("m0/vm0/tun", ElementKind::kTun, 0);
  own(owned);

  // During the measurement window, in grows faster than out: 200 pkts/s of
  // inferred loss.
  advance_hook_ = [&](double s) {
    minimal.in += 1000 * s;
    minimal.out += 800 * s;
  };
  ContentionReport r = diagnose();
  ASSERT_TRUE(r.problem_found);
  EXPECT_EQ(r.ranked[0].id, minimal.id());
  EXPECT_NEAR(static_cast<double>(r.ranked[0].loss_pkts), 200, 2);
}

TEST_F(ContentionUnit, NegativeInOutGrowthClampedToZero) {
  MinimalElement minimal;
  minimal.id_ = ElementId{"m0/draining"};
  PS_CHECK(agent_.add_element(&minimal).is_ok());
  controller_.register_stack_element(&agent_, minimal.id());
  auto* owned = element("m0/vm0/tun", ElementKind::kTun, 0);
  own(owned);

  // A draining queue emits more than it receives: not loss.
  minimal.in = 5000;
  advance_hook_ = [&](double s) { minimal.out += 1000 * s; };
  ContentionReport r = diagnose();
  EXPECT_FALSE(r.problem_found);
}

}  // namespace
}  // namespace perfsight
