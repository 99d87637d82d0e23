// The collection runtime: batched agent polling bills one trip per channel
// kind, controller fan-outs must be byte-identical to the sequential path,
// and the shared state they touch must be thread-safe (these tests are the
// ThreadSanitizer targets in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/hotpath.h"
#include "perfsight/monitor.h"
#include "perfsight/trace.h"

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

std::unique_ptr<FakeSource> make_source(size_t i) {
  const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                               ChannelKind::kNetDeviceFile,
                               ChannelKind::kOvsChannel};
  auto s =
      std::make_unique<FakeSource>("m0/el" + std::to_string(i), kinds[i % 4]);
  s->attrs = {{attr::kRxPkts, static_cast<double>(100 * i)},
              {attr::kTxPkts, static_cast<double>(90 * i)}};
  return s;
}

std::vector<std::unique_ptr<FakeSource>> make_sources(size_t n) {
  std::vector<std::unique_ptr<FakeSource>> out;
  for (size_t i = 0; i < n; ++i) out.push_back(make_source(i));
  return out;
}

void register_all(Agent& agent,
                  const std::vector<std::unique_ptr<FakeSource>>& sources) {
  for (const auto& s : sources) {
    ASSERT_TRUE(agent.add_element(s.get()).is_ok());
  }
}

TEST(ParallelPollTest, QueryBatchAmortizesOneTripPerChannelKind) {
  Agent agent("a0");
  // Zero jitter so the modelled delays are exact.
  agent.set_latency(ChannelKind::kProcFs,
                    {Duration::micros(100), Duration::nanos(0)});
  agent.set_latency(ChannelKind::kMbSocket,
                    {Duration::micros(200), Duration::nanos(0)});
  FakeSource p1("p1", ChannelKind::kProcFs), p2("p2", ChannelKind::kProcFs);
  FakeSource p3("p3", ChannelKind::kProcFs), m1("m1", ChannelKind::kMbSocket);
  FakeSource m2("m2", ChannelKind::kMbSocket);
  for (auto* s : {&p1, &p2, &p3, &m1, &m2}) {
    ASSERT_TRUE(agent.add_element(s).is_ok());
  }

  BatchResponse batch = agent.query_batch(
      {ElementId{"p1"}, ElementId{"p2"}, ElementId{"p3"}, ElementId{"m1"},
       ElementId{"m2"}},
      SimTime::millis(1));
  ASSERT_EQ(batch.responses.size(), 5u);
  EXPECT_EQ(batch.unknown_ids, 0u);
  // One round trip per kind, not per element: 100us + 200us.
  EXPECT_EQ(batch.channel_time.us(), 300);
  // Responses ordered by id; every element of a kind shares its trip.
  EXPECT_EQ(batch.responses[0].record.element.name, "m1");
  EXPECT_EQ(batch.responses[0].response_time.us(), 200);
  EXPECT_EQ(batch.responses[2].record.element.name, "p1");
  EXPECT_EQ(batch.responses[2].response_time.us(), 100);
  // The histograms saw one observe per kind (the trips actually paid).
  EXPECT_EQ(agent.channel_latency(ChannelKind::kProcFs).count(), 1u);
  EXPECT_EQ(agent.channel_latency(ChannelKind::kMbSocket).count(), 1u);
}

TEST(ParallelPollTest, QueryBatchCountsUnknownIds) {
  Agent agent("a0");
  FakeSource s("known", ChannelKind::kProcFs);
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  BatchResponse batch = agent.query_batch(
      {ElementId{"known"}, ElementId{"ghost1"}, ElementId{"ghost2"}},
      SimTime{});
  EXPECT_EQ(batch.responses.size(), 1u);
  EXPECT_EQ(batch.unknown_ids, 2u);
}

// TSan/ASan target: a poll sweep racing element churn must not corrupt
// agent state.  remove_element drains an in-flight collect(), so the churn
// thread destroys each removed source as soon as the call returns and
// registers a fresh heap copy in its place.
TEST(ParallelPollTest, ConcurrentPollAllAndRemoveElement) {
  auto sources = make_sources(16);
  Agent agent("a0");
  register_all(agent, sources);

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE(agent.remove_element(sources[i]->id()).is_ok());
        sources[i] = make_source(i);  // frees the removed source
        EXPECT_TRUE(agent.add_element(sources[i].get()).is_ok());
      }
    }
  });
  for (int round = 0; round < 200; ++round) {
    std::vector<QueryResponse> out = agent.poll_all(SimTime::millis(round));
    // Elements not mid-churn are always present.
    EXPECT_GE(out.size(), 12u);
    EXPECT_LE(out.size(), 16u);
  }
  stop.store(true);
  churn.join();
}

class ParallelRig {
 public:
  explicit ParallelRig(size_t elements)
      : controller_([this](Duration d) { return advance(d); },
                    [this] { return now_; }),
        agent_("agent-a", 42),
        sources_(make_sources(elements)) {
    for (const auto& s : sources_) {
      EXPECT_TRUE(agent_.add_element(s.get()).is_ok());
    }
    controller_.register_agent(&agent_);
    for (const auto& s : sources_) {
      EXPECT_TRUE(
          controller_.register_element(tenant_, s->id(), &agent_).is_ok());
      controller_.register_stack_element(&agent_, s->id());
    }
  }

  SimTime advance(Duration d) {
    now_ = now_ + d;
    // Counters move while time passes, like a live dataplane.
    for (auto& s : sources_) {
      s->attrs[0].value += 1000;  // rxPkts
      s->attrs[1].value += 900;   // txPkts -> every element "loses" 100
    }
    return now_;
  }

  SimTime now_;
  Controller controller_;
  Agent agent_;
  std::vector<std::unique_ptr<FakeSource>> sources_;
  const TenantId tenant_{1};
};

TEST(ParallelMonitorTest, ParallelSampleMatchesSequentialGolden) {
  ParallelRig seq_rig(8), par_rig(8);
  Monitor seq_mon(&seq_rig.controller_, seq_rig.tenant_);
  Monitor par_mon(&par_rig.controller_, par_rig.tenant_);
  for (const auto& s : seq_rig.sources_) {
    seq_mon.watch(s->id(), attr::kRxPkts);
    par_mon.watch(s->id(), attr::kRxPkts);
  }

  ThreadPool pool(4);
  par_rig.controller_.set_pool(&pool);
  for (int tick = 0; tick < 5; ++tick) {
    seq_mon.sample();
    par_mon.sample();
    seq_rig.advance(Duration::seconds(1));
    par_rig.advance(Duration::seconds(1));
  }

  for (const auto& s : seq_rig.sources_) {
    const Monitor::Series& a = seq_mon.values(s->id(), attr::kRxPkts);
    const Monitor::Series& b = par_mon.values(s->id(), attr::kRxPkts);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
      EXPECT_EQ(a.points[i].t, b.points[i].t);
      EXPECT_DOUBLE_EQ(a.points[i].value, b.points[i].value);
    }
  }
}

TEST(ParallelContentionTest, ParallelDiagnosisIsByteIdenticalToSequential) {
  ParallelRig seq_rig(10), par_rig(10);
  ContentionDetector seq_det(&seq_rig.controller_, RuleBook::standard());
  ContentionDetector par_det(&par_rig.controller_, RuleBook::standard());
  ThreadPool pool(4);
  par_rig.controller_.set_pool(&pool);

  ContentionReport a = seq_det.diagnose(seq_rig.tenant_, Duration::seconds(1));
  ContentionReport b = par_det.diagnose(par_rig.tenant_, Duration::seconds(1));
  EXPECT_EQ(to_text(a), to_text(b));
  EXPECT_EQ(a.ranked.size(), b.ranked.size());
  EXPECT_EQ(a.problem_found, b.problem_found);
}

TEST(ParallelMetricsTest, ParallelExposeIsByteIdenticalToSequential) {
  auto sources = make_sources(6);
  std::vector<std::unique_ptr<Agent>> seq_agents, par_agents;
  MetricsRegistry seq_reg, par_reg;
  for (int a = 0; a < 4; ++a) {
    seq_agents.push_back(
        std::make_unique<Agent>("agent-" + std::to_string(a), a + 1));
    par_agents.push_back(
        std::make_unique<Agent>("agent-" + std::to_string(a), a + 1));
    for (const auto& s : sources) {
      ASSERT_TRUE(seq_agents.back()->add_element(s.get()).is_ok());
      ASSERT_TRUE(par_agents.back()->add_element(s.get()).is_ok());
    }
    seq_reg.add_agent(seq_agents.back().get());
    par_reg.add_agent(par_agents.back().get());
  }
  ThreadPool pool(4);
  par_reg.set_pool(&pool);

  std::string a = seq_reg.expose(SimTime::seconds(1));
  std::string b = par_reg.expose(SimTime::seconds(1));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("perfsight_element_stat"), std::string::npos);
}

}  // namespace
}  // namespace perfsight
