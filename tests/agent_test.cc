#include "perfsight/agent.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "perfsight/controller.h"
#include "perfsight/rulebook.h"
#include "perfsight/wire.h"

namespace perfsight {
namespace {

// A scriptable element: tests bump its counters between samples.
class FakeSource : public StatsSource {
 public:
  FakeSource(std::string id, ChannelKind kind)
      : id_{std::move(id)}, kind_(kind) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = attrs;
    return r;
  }

  std::vector<Attr> attrs;

 private:
  ElementId id_;
  ChannelKind kind_;
};

TEST(AgentTest, QueryReturnsRecordWithLatency) {
  Agent agent("a0");
  FakeSource s("m0/pnic", ChannelKind::kNetDeviceFile);
  s.attrs = {{"rxPkts", 10}};
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  auto resp = agent.query(ElementId{"m0/pnic"}, SimTime::millis(1));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().record.get("rxPkts"), 10.0);
  // net_device channel: ~2 ms per Fig. 9.
  EXPECT_GT(resp.value().response_time.us(), 1000);
  EXPECT_LT(resp.value().response_time.us(), 3000);
}

TEST(AgentTest, NonNetDeviceChannelsAreSubMillisecond) {
  Agent agent("a0");
  FakeSource proc("m0/backlog", ChannelKind::kProcFs);
  FakeSource ovs("m0/vswitch", ChannelKind::kOvsChannel);
  FakeSource qemu("m0/vm0/qemu", ChannelKind::kQemuLog);
  FakeSource mb("m0/vm0/app", ChannelKind::kMbSocket);
  for (auto* s : {&proc, &ovs, &qemu, &mb}) {
    ASSERT_TRUE(agent.add_element(s).is_ok());
    auto resp = agent.query(s->id(), SimTime{});
    ASSERT_TRUE(resp.ok());
    EXPECT_LT(resp.value().response_time.us(), 500) << s->id().name;
  }
}

TEST(AgentTest, DuplicateRegistrationRejected) {
  Agent agent("a0");
  FakeSource s1("x", ChannelKind::kProcFs), s2("x", ChannelKind::kProcFs);
  EXPECT_TRUE(agent.add_element(&s1).is_ok());
  EXPECT_FALSE(agent.add_element(&s2).is_ok());
}

// Ids travel as u16-length strings: one the wire cannot carry is refused
// where it enters, not discovered when a hello or batch fails to encode.
TEST(AgentTest, IdTheWireCannotCarryRejected) {
  Agent agent("a0");
  FakeSource edge(std::string(0xffff, 'e'), ChannelKind::kProcFs);
  FakeSource over(std::string(70000, 'o'), ChannelKind::kProcFs);
  EXPECT_TRUE(agent.add_element(&edge).is_ok());
  Status st = agent.add_element(&over);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("65535-byte wire limit"), std::string::npos)
      << st.message();
  EXPECT_EQ(agent.element_ids(), std::vector<ElementId>{edge.id()});
}

TEST(AgentTest, UnknownElementNotFound) {
  Agent agent("a0");
  EXPECT_FALSE(agent.query(ElementId{"nope"}, SimTime{}).ok());
}

TEST(AgentTest, QueryAttrsProjects) {
  Agent agent("a0");
  FakeSource s("e", ChannelKind::kProcFs);
  s.attrs = {{"a", 1}, {"b", 2}, {"c", 3}};
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  auto resp = agent.query_attrs(ElementId{"e"}, {"b"}, SimTime{});
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.value().record.attrs.size(), 1u);
  EXPECT_EQ(resp.value().record.attrs[0].name, "b");
}

TEST(AgentTest, PollAllCoversEveryElement) {
  Agent agent("a0");
  FakeSource a("a", ChannelKind::kProcFs), b("b", ChannelKind::kMbSocket);
  ASSERT_TRUE(agent.add_element(&a).is_ok());
  ASSERT_TRUE(agent.add_element(&b).is_ok());
  auto all = agent.poll_all(SimTime{});
  EXPECT_EQ(all.size(), 2u);
}

// An element whose collect() announces itself, then holds until released.
class GateSource : public StatsSource {
 public:
  explicit GateSource(std::string id) : id_{std::move(id)} {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kProcFs; }
  StatsRecord collect(SimTime now) const override {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    done.store(true);
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    return r;
  }

  mutable std::atomic<bool> entered{false}, release{false}, done{false};

 private:
  ElementId id_;
};

// remove_element returns only once no collect() of the element is in
// flight, so a caller may free the source on return.  The remover gets
// 200 ms to return early; the assertion holds whatever the wait.
TEST(AgentDrainTest, RemoveElementWaitsForAnInFlightCollect) {
  Agent agent("a0");
  GateSource gate("m0/gate");
  ASSERT_TRUE(agent.add_element(&gate).is_ok());

  std::thread poller([&] { (void)agent.query_batch({gate.id()}, SimTime{}); });
  while (!gate.entered.load()) std::this_thread::yield();
  std::atomic<bool> removed{false};
  bool done_at_return = false;
  std::thread remover([&] {
    EXPECT_TRUE(agent.remove_element(gate.id()).is_ok());
    done_at_return = gate.done.load();
    removed.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (!removed.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.release.store(true);
  remover.join();
  poller.join();
  EXPECT_TRUE(done_at_return);
  EXPECT_FALSE(agent.has_element(gate.id()));
}

// An agent's batch crosses the wire as one PSB2 stream and decodes back
// record for record.
TEST(WireBatchTest, RoundTripsMultipleRecords) {
  Agent agent("a0");
  std::vector<std::unique_ptr<FakeSource>> sources;
  for (int i = 0; i < 3; ++i) {
    sources.push_back(std::make_unique<FakeSource>(
        "el" + std::to_string(i), ChannelKind::kProcFs));
    sources.back()->attrs = {{"v", static_cast<double>(i * 10)}};
    ASSERT_TRUE(agent.add_element(sources.back().get()).is_ok());
  }
  BatchResponse b = agent.query_batch(agent.element_ids(), SimTime::millis(2));
  wire::DecodeStats st;
  Result<BatchResponse> back =
      wire::decode_batch(wire::encode_batch(b).value(), &st);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(st.complete());
  ASSERT_EQ(back.value().responses.size(), 3u);
  EXPECT_EQ(back.value().responses[2].record.element.name, "el2");
  EXPECT_EQ(back.value().responses[2].record.get("v"), 20.0);
  EXPECT_EQ(back.value().channel_time.ns(), b.channel_time.ns());
}

// --- Controller over fake agents ------------------------------------------

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : agent_("a0"),
        src_("m0/vm0/tun", ChannelKind::kNetDeviceFile),
        controller_([this](Duration d) { return advance(d); },
                    [this] { return now_; }) {
    src_.attrs = {{attr::kRxPkts, 0},
                  {attr::kTxPkts, 0},
                  {attr::kTxBytes, 0},
                  {attr::kDropPkts, 0}};
    EXPECT_TRUE(agent_.add_element(&src_).is_ok());
    controller_.register_agent(&agent_);
    EXPECT_TRUE(
        controller_.register_element(TenantId{1}, src_.id(), &agent_)
            .is_ok());
  }

  SimTime advance(Duration d) {
    now_ = now_ + d;
    if (on_advance_) on_advance_();
    return now_;
  }

  SimTime now_;
  Agent agent_;
  FakeSource src_;
  Controller controller_;
  std::function<void()> on_advance_;
};

TEST_F(ControllerTest, GetAttrResolvesTenantElement) {
  auto r = controller_.get_attr_many(TenantId{1}, {src_.id()},
                                     {attr::kRxPkts});
  ASSERT_EQ(r.size(), 1u);
  ASSERT_TRUE(r[0].ok());
  EXPECT_EQ(r[0].value().record.get(attr::kRxPkts), 0.0);
}

TEST_F(ControllerTest, GetThroughputUsesTwoSamples) {
  // 125000 bytes over 10 ms -> 100 Mbps.
  on_advance_ = [this] { src_.attrs[2].value += 125000; };
  auto w = controller_.sample_window(TenantId{1}, {src_.id()},
                                     kThroughputAttrs, Duration::millis(10));
  ASSERT_TRUE(w[0].ok());
  EXPECT_NEAR(throughput(w[0]).mbits_per_sec(), 100.0, 1e-6);
}

TEST_F(ControllerTest, GetPktLossPrefersDropCounter) {
  on_advance_ = [this] { src_.attrs[3].value += 42; };
  auto w = controller_.sample_window(TenantId{1}, {src_.id()}, kLossAttrs,
                                     Duration::millis(10));
  ASSERT_TRUE(w[0].ok());
  EXPECT_EQ(pkt_loss(w[0]), 42);
}

TEST_F(ControllerTest, GetPktLossFallsBackToInMinusOut) {
  src_.attrs = {{attr::kRxPkts, 100}, {attr::kTxPkts, 100}};
  on_advance_ = [this] {
    src_.attrs[0].value += 50;  // in grows 50
    src_.attrs[1].value += 30;  // out grows 30 -> loss 20
  };
  auto w = controller_.sample_window(TenantId{1}, {src_.id()}, kLossAttrs,
                                     Duration::millis(10));
  ASSERT_TRUE(w[0].ok());
  EXPECT_EQ(pkt_loss(w[0]), 20);
}

TEST_F(ControllerTest, GetAvgPktSize) {
  src_.attrs = {{attr::kTxBytes, 0}, {attr::kTxPkts, 0}};
  on_advance_ = [this] {
    src_.attrs[0].value += 150000;
    src_.attrs[1].value += 100;
  };
  auto w = controller_.sample_window(TenantId{1}, {src_.id()},
                                     kAvgPktSizeAttrs, Duration::millis(10));
  ASSERT_TRUE(w[0].ok());
  EXPECT_NEAR(avg_pkt_size(w[0]), 1500.0, 1e-9);
}

TEST_F(ControllerTest, IntervalWaitsOutWindowOnlyWhenSomethingIsMeasurable) {
  const SimTime start = now_;
  auto dark = controller_.sample_window(TenantId{1}, {ElementId{"ghost"}},
                                        kLossAttrs, Duration::millis(10));
  ASSERT_EQ(dark.size(), 1u);
  EXPECT_FALSE(dark[0].ok());
  EXPECT_EQ(dark[0].quality, DataQuality::kMissing);
  EXPECT_EQ(now_, start);  // no first sample succeeded: no window, no sweep

  // One measurable element is enough to wait the window out.
  on_advance_ = [this] { src_.attrs[3].value += 5; };
  auto mixed = controller_.sample_window(TenantId{1},
                                         {ElementId{"ghost"}, src_.id()},
                                         kLossAttrs, Duration::millis(10));
  EXPECT_EQ(now_, start + Duration::millis(10));
  EXPECT_FALSE(mixed[0].ok());
  EXPECT_EQ(mixed[0].quality, DataQuality::kMissing);
  ASSERT_TRUE(mixed[1].ok());
  EXPECT_EQ(pkt_loss(mixed[1]), 5);
  EXPECT_EQ(mixed[1].quality, DataQuality::kFresh);
}

TEST_F(ControllerTest, ChainRegistrationAndLookup) {
  ElementId lb{"lb"}, cf{"cf"}, server{"server"};
  controller_.register_middlebox(TenantId{1}, lb);
  controller_.register_middlebox(TenantId{1}, cf);
  controller_.register_middlebox(TenantId{1}, server);
  controller_.add_chain_edge(TenantId{1}, lb, cf);
  controller_.add_chain_edge(TenantId{1}, cf, server);
  EXPECT_EQ(controller_.middleboxes(TenantId{1}).size(), 3u);
  EXPECT_TRUE(controller_.chain(TenantId{1}).successors(lb).count(server));
}

// --- Rule book -----------------------------------------------------------

TEST(RuleBookTest, Table1ForwardMappings) {
  RuleBook rb = RuleBook::standard();
  auto has = [](const std::vector<ElementKind>& v, ElementKind k) {
    return std::find(v.begin(), v.end(), k) != v.end();
  };
  EXPECT_TRUE(has(rb.symptom_locations(ResourceKind::kIncomingBandwidth),
                  ElementKind::kPNic));
  EXPECT_TRUE(has(rb.symptom_locations(ResourceKind::kBacklogQueue),
                  ElementKind::kPCpuBacklog));
  EXPECT_TRUE(
      has(rb.symptom_locations(ResourceKind::kCpu), ElementKind::kTun));
  EXPECT_TRUE(has(rb.symptom_locations(ResourceKind::kMemoryBandwidth),
                  ElementKind::kTun));
  EXPECT_TRUE(
      has(rb.symptom_locations(ResourceKind::kVmLocal), ElementKind::kTun));
}

TEST(RuleBookTest, TunMultiVmIsAmbiguousUntilDisambiguated) {
  RuleBook rb = RuleBook::standard();
  auto cands = rb.candidates(ElementKind::kTun, LossSpread::kMultiVm);
  EXPECT_GE(cands.size(), 3u);  // CPU / membw / egress (+ mem space)

  AuxSignals aux;
  aux.host_cpu_utilization = 0.3;             // CPU not contended
  aux.nic_capacity = DataRate::gbps(10);
  aux.nic_tx_throughput = DataRate::gbps(2);  // NIC far from saturated
  aux.memory_pressure = false;
  auto refined = RuleBook::disambiguate(cands, aux);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0], ResourceKind::kMemoryBandwidth);
}

TEST(RuleBookTest, SingleVmTunIsVmBottleneck) {
  RuleBook rb = RuleBook::standard();
  auto cands = rb.candidates(ElementKind::kTun, LossSpread::kSingleVm);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], ResourceKind::kVmLocal);
}

}  // namespace
}  // namespace perfsight
