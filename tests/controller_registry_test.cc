// How the controller finds the agent that answers for an element (locate):
// a tenant element goes to the agent it was registered on, a stack element
// to the first agent it was registered on, and only an id registered
// nowhere is looked for among the agents.  A registered element is never
// probed with has_element, and it stays with its owner when it leaves it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "perfsight/agent.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"

namespace perfsight {
namespace {

class FixedSource : public StatsSource {
 public:
  FixedSource(std::string id, double rx) : id_{std::move(id)}, rx_(rx) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kProcFs; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = {{attr::kDropPkts, 0},
               {attr::kRxPkts, rx_},
               {attr::kTxPkts, rx_},
               {attr::kType,
                static_cast<double>(static_cast<int>(ElementKind::kPNic))},
               {attr::kVm, -1}};
    return r;
  }

 private:
  ElementId id_;
  double rx_;
};

// Forwards to an agent and counts the has_element probes it is asked.
class ProbeCounter : public AgentClient {
 public:
  explicit ProbeCounter(AgentClient* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  bool has_element(const ElementId& id) const override {
    ++probes;
    return inner_->has_element(id);
  }
  std::vector<ElementId> element_ids() const override {
    return inner_->element_ids();
  }
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool) override {
    return inner_->query_batch(ids, now, pool);
  }

  mutable size_t probes = 0;

 private:
  AgentClient* inner_;
};

// Two agents behind probe counters, each hosting one tenant element.
class RegistryRig : public ::testing::Test {
 protected:
  RegistryRig()
      : controller_([this](Duration d) { return now_ = now_ + d; },
                    [this] { return now_; }) {
    controller_.register_agent(&c0_);
    controller_.register_agent(&c1_);
    EXPECT_TRUE(a0_.add_element(source("m0/vm0/tun", 10)).is_ok());
    EXPECT_TRUE(a1_.add_element(source("m1/vm0/tun", 11)).is_ok());
    EXPECT_TRUE(controller_.register_element(kTenant, ElementId{"m0/vm0/tun"},
                                             &c0_)
                    .is_ok());
    EXPECT_TRUE(controller_.register_element(kTenant, ElementId{"m1/vm0/tun"},
                                             &c1_)
                    .is_ok());
  }

  const StatsSource* source(const std::string& id, double rx) {
    sources_.push_back(std::make_unique<FixedSource>(id, rx));
    return sources_.back().get();
  }
  // `id` served by `agent` and registered as its stack element.
  void stack(Agent& agent, ProbeCounter& client, const std::string& id,
             double rx) {
    EXPECT_TRUE(agent.add_element(source(id, rx)).is_ok());
    controller_.register_stack_element(&client, ElementId{id});
  }
  Result<Controller::QualifiedRecord> read(const std::string& id) {
    return controller_.get_attr_q(kTenant, ElementId{id}, {attr::kRxPkts});
  }
  size_t probes() const { return c0_.probes + c1_.probes; }
  void reset_probes() { c0_.probes = c1_.probes = 0; }

  static constexpr TenantId kTenant{1};
  SimTime now_;
  std::vector<std::unique_ptr<FixedSource>> sources_;
  Agent a0_{"a0", 1};
  Agent a1_{"a1", 2};
  ProbeCounter c0_{&a0_};
  ProbeCounter c1_{&a1_};
  Controller controller_;
};

TEST_F(RegistryRig, StackElementRoutesToItsOwnerWithoutProbing) {
  stack(a0_, c0_, "m0/pnic", 100);
  stack(a1_, c1_, "m1/pnic", 200);
  reset_probes();

  std::vector<Result<Controller::QualifiedRecord>> got =
      controller_.get_attr_many(
          kTenant, {ElementId{"m1/pnic"}, ElementId{"m0/pnic"}},
          {attr::kRxPkts});
  ASSERT_TRUE(got[0].ok() && got[1].ok());
  EXPECT_EQ(got[0].value().record.get(attr::kRxPkts), 200.0);
  EXPECT_EQ(got[1].value().record.get(attr::kRxPkts), 100.0);

  ContentionDetector det(&controller_, RuleBook::standard());
  ContentionReport r = det.diagnose(kTenant, Duration::millis(100));
  EXPECT_EQ(r.ranked.size(), 2u);
  EXPECT_TRUE(r.blind_spots.empty());
  EXPECT_EQ(probes(), 0u);
}

TEST_F(RegistryRig, ElementOnTwoAgentsRoutesToTheFirstRegistrant) {
  // Served by both; registered on a1 first, though a0 is the first agent.
  EXPECT_TRUE(a0_.add_element(source("shared/vswitch", 1)).is_ok());
  EXPECT_TRUE(a1_.add_element(source("shared/vswitch", 2)).is_ok());
  controller_.register_stack_element(&c1_, ElementId{"shared/vswitch"});
  controller_.register_stack_element(&c0_, ElementId{"shared/vswitch"});
  reset_probes();

  Result<Controller::QualifiedRecord> got = read("shared/vswitch");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().record.get(attr::kRxPkts), 2.0);  // a1's copy
  EXPECT_EQ(controller_.stack_elements_for(kTenant),
            std::vector<ElementId>{ElementId{"shared/vswitch"}});
  EXPECT_EQ(probes(), 0u);
}

TEST_F(RegistryRig, ElementLeavingItsOwnerIsABlindSpotWithTheOwnersStatus) {
  stack(a0_, c0_, "m0/pnic", 100);
  stack(a0_, c0_, "m0/napi", 100);
  // a1 serves an element of the same id, but does not answer for a0's.
  EXPECT_TRUE(a1_.add_element(source("m0/pnic", 7)).is_ok());
  ASSERT_TRUE(a0_.remove_element(ElementId{"m0/pnic"}).is_ok());
  reset_probes();

  Result<Controller::QualifiedRecord> got = read("m0/pnic");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(got.status().message(),
            no_element_status("a0", ElementId{"m0/pnic"}).message());

  ContentionDetector det(&controller_, RuleBook::standard());
  ContentionReport r = det.diagnose(kTenant, Duration::millis(100));
  ASSERT_EQ(r.blind_spots.size(), 1u);
  EXPECT_EQ(r.blind_spots[0].id, ElementId{"m0/pnic"});
  EXPECT_EQ(r.blind_spots[0].quality, DataQuality::kMissing);
  ASSERT_EQ(r.ranked.size(), 1u);
  EXPECT_EQ(r.ranked[0].id, ElementId{"m0/napi"});
  EXPECT_EQ(probes(), 0u);
}

TEST_F(RegistryRig, UnregisteredIdsFallBackToTheAgentsThatServeThem) {
  EXPECT_TRUE(a1_.add_element(source("m1/mb", 5)).is_ok());
  reset_probes();

  Result<Controller::QualifiedRecord> got = read("m1/mb");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().record.get(attr::kRxPkts), 5.0);
  EXPECT_EQ(c0_.probes, 1u);  // asked in agent order until one serves it
  EXPECT_EQ(c1_.probes, 1u);

  Result<Controller::QualifiedRecord> ghost = read("ghost");
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ghost.status().message(), "no agent serves element ghost");
}

}  // namespace
}  // namespace perfsight
