// Fleet chaos campaigns: scheduled outage windows (agent / correlated host /
// rolling upgrade), the strict PERFSIGHT_FAULTS campaign grammar, the
// rolling-upgrade differential gate (pooled scatter byte-identical to the
// sequential oracle while agents go down and come back), reconnect-aware
// hello diffing (departed / added element sets), controller
// quorum reads over mirrored elements, and a churn variant for TSan.  ChaosMatrixTest is the CI chaos-matrix entry point.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/faults.h"
#include "perfsight/remote_agent.h"
#include "perfsight/transport.h"
#include "per_id_reference.h"

namespace perfsight {
namespace {

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

std::string fmt(const Result<Controller::QualifiedRecord>& r) {
  if (!r.ok()) {
    return "ERR(" + std::to_string(static_cast<int>(r.status().code())) +
           ") " + r.status().message() + "\n";
  }
  return "OK " + to_text(r.value().record) + " q=" +
         to_string(r.value().quality) + "\n";
}

// Outage forcing, not breaker behaviour, is under test in most of this file:
// a threshold no campaign can reach keeps the per-kind breakers closed so
// repeated sweeps over the same agents stay comparable.
CircuitBreakerConfig no_breakers() {
  CircuitBreakerConfig cb;
  cb.failure_threshold = 1u << 30;
  return cb;
}

size_t count_occurrences(const std::string& hay, const std::string& needle) {
  size_t n = 0, pos = 0;
  while ((pos = hay.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

// --- campaign schedules ------------------------------------------------------

TEST(CampaignPlanTest, OutageWindowIsHalfOpenAndDeterministic) {
  FaultPlan plan(7);
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.has_campaign());
  plan.schedule_outage("a0", SimTime::millis(100), SimTime::millis(200));
  EXPECT_TRUE(plan.enabled());  // a campaign alone arms the fault path
  EXPECT_TRUE(plan.has_campaign());

  EXPECT_FALSE(plan.agent_down("a0", SimTime::millis(99)));
  EXPECT_TRUE(plan.agent_down("a0", SimTime::millis(100)));  // closed start
  EXPECT_TRUE(plan.agent_down("a0", SimTime::millis(199)));
  EXPECT_FALSE(plan.agent_down("a0", SimTime::millis(200)));  // open end
  EXPECT_FALSE(plan.agent_down("other", SimTime::millis(150)));

  EXPECT_FALSE(plan.campaign_active(SimTime::millis(50)));
  EXPECT_TRUE(plan.campaign_active(SimTime::millis(150)));
  EXPECT_FALSE(plan.campaign_active(SimTime::millis(250)));
}

TEST(CampaignPlanTest, HostOutageTakesDownEveryTaggedAgentTogether) {
  FaultPlan plan(7);
  plan.set_host("a0", "rack1");
  plan.set_host("a1", "rack1");
  plan.set_host("a2", "rack2");
  EXPECT_EQ(plan.host_of("a0"), "rack1");
  EXPECT_EQ(plan.host_of("unknown"), "");
  plan.schedule_host_outage("rack1", SimTime::millis(10), SimTime::millis(20));

  const SimTime mid = SimTime::millis(15);
  EXPECT_TRUE(plan.agent_down("a0", mid));   // correlated: both rack1 agents
  EXPECT_TRUE(plan.agent_down("a1", mid));
  EXPECT_FALSE(plan.agent_down("a2", mid));  // other rack untouched
  EXPECT_FALSE(plan.agent_down("a0", SimTime::millis(25)));
}

TEST(CampaignPlanTest, RollingUpgradeSequencesOneAgentAtATime) {
  FaultPlan plan(7);
  std::vector<std::string> agents = {"h0", "h1", "h2", "h3"};
  plan.schedule_rolling_upgrade(agents, SimTime::millis(1000),
                                Duration::millis(500));
  // Agent i is down for exactly [1000 + i*500, 1000 + (i+1)*500); at any
  // instant inside the campaign exactly one agent is down.
  for (int t = 900; t < 3200; t += 50) {
    const SimTime now = SimTime::millis(t);
    size_t down = 0;
    for (size_t i = 0; i < agents.size(); ++i) {
      const bool expect_down = t >= 1000 + static_cast<int>(i) * 500 &&
                               t < 1000 + static_cast<int>(i + 1) * 500;
      EXPECT_EQ(plan.agent_down(agents[i], now), expect_down)
          << agents[i] << " at t=" << t;
      if (plan.agent_down(agents[i], now)) ++down;
    }
    EXPECT_LE(down, 1u) << "overlapping rolling windows at t=" << t;
  }
}

TEST(CampaignPlanTest, DecideIgnoresCampaignsEntirely) {
  // Campaigns are pure schedule: a plan whose only content is outage windows
  // never produces a Bernoulli fault decision, so the RNG-facing surface of
  // the plan is untouched (the byte-identity tests below lean on this).
  FaultPlan plan(7);
  plan.schedule_outage("a0", SimTime::millis(0), SimTime::millis(1000));
  for (int t = 0; t < 50; ++t) {
    FaultDecision d = plan.decide(ElementId{"e"}, ChannelKind::kProcFs,
                                  SimTime::millis(t), 1);
    EXPECT_EQ(static_cast<int>(d.kind), static_cast<int>(FaultKind::kNone));
  }
}

// --- PERFSIGHT_FAULTS campaign grammar ---------------------------------------

TEST(CampaignEnvTest, FromEnvParsesCampaignGrammar) {
  setenv("PERFSIGHT_FAULTS",
         "seed=7,outage=a0@100-200,host=a1:rack1,host=a2:rack1,"
         "host_outage=rack1@300-400,rolling=h*3@1000+500",
         1);
  std::optional<FaultPlan> plan = FaultPlan::from_env();
  unsetenv("PERFSIGHT_FAULTS");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed(), 7u);
  EXPECT_TRUE(plan->has_campaign());

  EXPECT_TRUE(plan->agent_down("a0", SimTime::millis(150)));
  EXPECT_FALSE(plan->agent_down("a0", SimTime::millis(250)));
  // host_outage reaches agents through their tag.
  EXPECT_TRUE(plan->agent_down("a1", SimTime::millis(350)));
  EXPECT_TRUE(plan->agent_down("a2", SimTime::millis(350)));
  EXPECT_FALSE(plan->agent_down("a0", SimTime::millis(350)));
  // rolling=h*3@1000+500 desugars to h0,h1,h2 in sequence.
  EXPECT_TRUE(plan->agent_down("h0", SimTime::millis(1100)));
  EXPECT_TRUE(plan->agent_down("h1", SimTime::millis(1600)));
  EXPECT_TRUE(plan->agent_down("h2", SimTime::millis(2100)));
  EXPECT_FALSE(plan->agent_down("h3", SimTime::millis(1100)));
  EXPECT_FALSE(plan->agent_down("h0", SimTime::millis(1600)));
}

TEST(CampaignEnvTest, FromEnvRejectsMalformedCampaignItems) {
  // Every item here is a strict-grammar violation; none may half-apply.
  const char* bad[] = {
      "outage=a0@200-100",     // inverted window
      "outage=a0@100",         // no window
      "outage=@100-200",       // empty name
      "outage=a0@10x-200",     // trailing garbage in T0
      "host_outage=rack@5-5",  // empty window (T0 == T1)
      "host=a0:",              // empty tag
      "host=:rack",            // empty name
      "rolling=h*0@0+5",       // N == 0
      "rolling=h*2@10+0",      // W == 0
      "rolling=*2@10+5",       // empty prefix
      "rolling=h*2@10",        // no window length
      "rolling=h@10+5",        // no count
  };
  for (const char* spec : bad) {
    setenv("PERFSIGHT_FAULTS", spec, 1);
    std::optional<FaultPlan> plan = FaultPlan::from_env();
    unsetenv("PERFSIGHT_FAULTS");
    ASSERT_TRUE(plan.has_value()) << spec;
    EXPECT_FALSE(plan->has_campaign()) << spec << " half-applied";
    EXPECT_FALSE(plan->enabled()) << spec;
  }
  // Rejected campaign items do not poison the valid keys around them.
  setenv("PERFSIGHT_FAULTS", "seed=9,outage=a0@200-100,outage=a1@10-20", 1);
  std::optional<FaultPlan> plan = FaultPlan::from_env();
  unsetenv("PERFSIGHT_FAULTS");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed(), 9u);
  EXPECT_FALSE(plan->agent_down("a0", SimTime::millis(150)));
  EXPECT_TRUE(plan->agent_down("a1", SimTime::millis(15)));
}

// --- outage forcing through the query paths ----------------------------------

TEST(OutageForcingTest, WindowForcesMissingInAllPathsAndRecovers) {
  FakeSource s0("m0/el0", ChannelKind::kProcFs);
  s0.attrs = {{attr::kRxPkts, 10}, {attr::kTxPkts, 9}};
  FakeSource s1("m0/el1", ChannelKind::kMbSocket);
  s1.attrs = {{attr::kRxPkts, 20}};

  FaultPlan plan(7);
  plan.schedule_outage("a0", SimTime::millis(10), SimTime::millis(20));

  Agent agent("a0", 3);
  ASSERT_TRUE(agent.add_element(&s0).is_ok());
  ASSERT_TRUE(agent.add_element(&s1).is_ok());
  agent.set_fault_plan(&plan);
  RetryPolicy p;
  p.max_attempts = 3;
  agent.set_retry_policy(p);
  agent.set_breaker_config(no_breakers());

  // Before the window: fresh.
  Result<QueryResponse> before = agent.query(s0.id(), SimTime::millis(5));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().quality, DataQuality::kFresh);

  // Inside the window: the single path fails unavailable after all retries
  // (the schedule forces every attempt), and the batch + poll paths report
  // the identical outcome for every element.
  Result<QueryResponse> in = agent.query(s0.id(), SimTime::millis(15));
  ASSERT_FALSE(in.ok());
  EXPECT_EQ(in.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(in.status().message().find("unavailable after 3 attempt(s)"),
            std::string::npos)
      << in.status().message();

  BatchResponse batch =
      agent.query_batch({s0.id(), s1.id()}, SimTime::millis(15));
  ASSERT_EQ(batch.responses.size(), 2u);
  for (const QueryResponse& r : batch.responses) {
    EXPECT_EQ(r.quality, DataQuality::kMissing);
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_EQ(r.fail_code, StatusCode::kUnavailable);
  }
  for (const QueryResponse& r : agent.poll_all(SimTime::millis(15))) {
    EXPECT_EQ(r.quality, DataQuality::kMissing);
    EXPECT_EQ(r.attempts, 3u);
  }

  // After the window: the agent serves again (the window, not a breaker,
  // was the authority — no cooldown owed).
  Result<QueryResponse> after = agent.query(s0.id(), SimTime::millis(25));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().quality, DataQuality::kFresh);
}

// --- the rolling-upgrade differential gate -----------------------------------

// A 16-agent world under a rolling-upgrade campaign.  Two identical copies
// of every agent (same name, same seed, shared sources) let the sequential
// oracle and the pooled runs sweep without sharing RNG state; the campaign
// itself draws no RNG, so record bytes, qualities and failure text are
// RNG-independent and the fmt()-folded sweeps must match byte for byte.
struct RollingWorld {
  static constexpr size_t kAgents = 16;
  static constexpr size_t kPerAgent = 3;

  std::vector<std::unique_ptr<FakeSource>> sources;
  std::vector<std::unique_ptr<Agent>> seq_agents, par_agents;
  std::vector<std::vector<ElementId>> ids_of;
  std::vector<ElementId> all_ids;
  FaultPlan plan{7};

  explicit RollingWorld(bool mirrored = false) {
    const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                                 ChannelKind::kNetDeviceFile,
                                 ChannelKind::kOvsChannel};
    std::vector<std::string> names;
    for (size_t a = 0; a < kAgents; ++a) {
      names.push_back("host" + std::to_string(a));
      seq_agents.push_back(std::make_unique<Agent>(names.back(), a + 1));
      par_agents.push_back(std::make_unique<Agent>(names.back(), a + 1));
      ids_of.emplace_back();
      for (size_t e = 0; e < kPerAgent; ++e) {
        const size_t i = a * kPerAgent + e;
        auto s = std::make_unique<FakeSource>(
            "host" + std::to_string(a) + "/el" + std::to_string(e),
            kinds[i % 4]);
        s->attrs = {{attr::kRxPkts, static_cast<double>(100 * (i + 1))},
                    {attr::kTxPkts, static_cast<double>(90 * (i + 1))}};
        EXPECT_TRUE(seq_agents[a]->add_element(s.get()).is_ok());
        EXPECT_TRUE(par_agents[a]->add_element(s.get()).is_ok());
        ids_of[a].push_back(s->id());
        all_ids.push_back(s->id());
        sources.push_back(std::move(s));
      }
    }
    if (mirrored) {
      // Agent a's elements are also served by agent (a+1) % kAgents: under
      // a rolling upgrade (one agent down at a time) every element always
      // has a live replica.
      for (size_t a = 0; a < kAgents; ++a) {
        const size_t replica = (a + 1) % kAgents;
        for (size_t e = 0; e < kPerAgent; ++e) {
          FakeSource* s = sources[a * kPerAgent + e].get();
          EXPECT_TRUE(seq_agents[replica]->add_element(s).is_ok());
          EXPECT_TRUE(par_agents[replica]->add_element(s).is_ok());
        }
      }
    }
    plan.schedule_rolling_upgrade(names, SimTime::millis(1000),
                                  Duration::millis(500));
    RetryPolicy p;
    p.max_attempts = 2;
    for (size_t a = 0; a < kAgents; ++a) {
      for (Agent* ag : {seq_agents[a].get(), par_agents[a].get()}) {
        ag->set_fault_plan(&plan);
        ag->set_retry_policy(p);
        ag->set_breaker_config(no_breakers());
      }
    }
  }

  // One controller sweep over every element at `at`, folded to a string.
  // `agents` selects the world copy; null pool + `reference` (every agent
  // behind a PerIdReference) is the sequential oracle.
  std::string sweep(std::vector<std::unique_ptr<Agent>>& agents, SimTime at,
                    bool reference, ThreadPool* pool, bool mirrored) {
    SimTime now = at;
    Controller c(
        [&now](Duration d) {
          now = now + d;
          return now;
        },
        [&now] { return now; });
    c.set_pool(pool);
    std::vector<std::unique_ptr<PerIdReference>> refs;
    std::vector<AgentClient*> clients;
    for (auto& a : agents) {
      AgentClient* client = a.get();
      if (reference) {
        refs.push_back(std::make_unique<PerIdReference>(client));
        client = refs.back().get();
      }
      clients.push_back(client);
    }
    const TenantId tenant{1};
    for (size_t a = 0; a < kAgents; ++a) {
      c.register_agent(clients[a]);
      for (const ElementId& id : ids_of[a]) {
        EXPECT_TRUE(c.register_element(tenant, id, clients[a]).is_ok());
      }
    }
    if (mirrored) {
      for (size_t a = 0; a < kAgents; ++a) {
        const size_t replica = (a + 1) % kAgents;
        for (const ElementId& id : ids_of[a]) {
          EXPECT_TRUE(c.register_mirror(tenant, id, clients[replica]).is_ok());
        }
      }
    }
    std::string out;
    for (const auto& r :
         c.get_attr_many(tenant, all_ids, {attr::kRxPkts, attr::kTxPkts})) {
      out += fmt(r);
    }
    return out;
  }
};

TEST(RollingUpgradeDifferentialTest, PooledSweepMatchesSequentialOracle) {
  RollingWorld world;
  ThreadPool pool2(2), pool8(8);
  // Before / first window / mid-campaign / last window / after.
  const int64_t times[] = {500, 1100, 3250, 8700, 9500};
  for (int64_t t : times) {
    const SimTime at = SimTime::millis(t);
    const std::string oracle =
        world.sweep(world.seq_agents, at, /*reference=*/true, nullptr,
                    /*mirrored=*/false);
    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
      const std::string got = world.sweep(world.par_agents, at,
                                          /*reference=*/false, pool,
                                          /*mirrored=*/false);
      EXPECT_EQ(got, oracle)
          << "t=" << t << " pool=" << (pool ? pool->workers() : 0);
    }
    // Exactly one agent's elements are blind spots inside the campaign.
    const size_t expect_down =
        (t >= 1000 && t < 1000 + 16 * 500) ? RollingWorld::kPerAgent : 0;
    EXPECT_EQ(count_occurrences(oracle, "ERR("), expect_down) << "t=" << t;
  }
}

TEST(RollingUpgradeDifferentialTest, MirrorsEraseRollingBlindSpots) {
  RollingWorld plain;
  RollingWorld mirrored(/*mirrored=*/true);
  ThreadPool pool8(8);
  const int64_t times[] = {1100, 3250, 8700};
  for (int64_t t : times) {
    const SimTime at = SimTime::millis(t);
    const std::string plain_sweep =
        plain.sweep(plain.seq_agents, at, true, nullptr, false);
    const std::string seq =
        mirrored.sweep(mirrored.seq_agents, at, true, nullptr, true);
    const std::string par =
        mirrored.sweep(mirrored.par_agents, at, false, &pool8, true);
    // The quorum second round preserves the pooled-vs-sequential contract.
    EXPECT_EQ(par, seq) << "t=" << t;
    // Strictly fewer blind spots than the unmirrored run: the one down
    // agent's elements are served by its replica, annotated kReplica.
    EXPECT_EQ(count_occurrences(plain_sweep, "ERR("), RollingWorld::kPerAgent)
        << "t=" << t;
    EXPECT_LT(count_occurrences(seq, "ERR("),
              count_occurrences(plain_sweep, "ERR("))
        << "t=" << t;
    EXPECT_EQ(count_occurrences(seq, "ERR("), 0u) << "t=" << t;
    EXPECT_EQ(count_occurrences(seq, "q=replica"), RollingWorld::kPerAgent)
        << "t=" << t;
  }
}

// --- quorum goldens ----------------------------------------------------------

TEST(QuorumTest, ReplicaServesWhenPrimaryFailsAndDoubleFailureKeepsStatus) {
  FakeSource s0("m0/el0", ChannelKind::kProcFs);
  s0.attrs = {{attr::kRxPkts, 42}};
  FaultPlan primary_down(7);
  primary_down.schedule_outage("primary", SimTime::millis(0),
                               SimTime::millis(100));

  Agent primary("primary", 1), replica("replica", 2);
  ASSERT_TRUE(primary.add_element(&s0).is_ok());
  ASSERT_TRUE(replica.add_element(&s0).is_ok());
  primary.set_fault_plan(&primary_down);
  primary.set_breaker_config(no_breakers());
  replica.set_breaker_config(no_breakers());

  SimTime now = SimTime::millis(10);
  Controller c(
      [&now](Duration d) {
        now = now + d;
        return now;
      },
      [&now] { return now; });
  const TenantId tenant{1};
  c.register_agent(&primary);
  c.register_agent(&replica);
  ASSERT_TRUE(c.register_element(tenant, s0.id(), &primary).is_ok());

  // Unmirrored golden: the primary's failure text.
  Result<Controller::QualifiedRecord> plain =
      c.get_attr_many(tenant, {s0.id()}, {attr::kRxPkts}).front();
  ASSERT_FALSE(plain.ok());
  const std::string golden = fmt(plain);

  // Mirrored: the replica answers, annotated kReplica.
  ASSERT_TRUE(c.register_mirror(tenant, s0.id(), &replica).is_ok());
  Result<Controller::QualifiedRecord> q =
      c.get_attr_many(tenant, {s0.id()}, {attr::kRxPkts}).front();
  ASSERT_TRUE(q.ok()) << q.status().message();
  EXPECT_EQ(q.value().quality, DataQuality::kReplica);
  EXPECT_EQ(q.value().record.get_or(attr::kRxPkts, -1), 42);

  // Double failure: take the replica down too — the PRIMARY's Status comes
  // back, byte-identical to the unmirrored run.
  FaultPlan replica_down(7);
  replica_down.schedule_outage("replica", SimTime::millis(0),
                               SimTime::millis(100));
  replica.set_fault_plan(&replica_down);
  Result<Controller::QualifiedRecord> dbl =
      c.get_attr_many(tenant, {s0.id()}, {attr::kRxPkts}).front();
  ASSERT_FALSE(dbl.ok());
  EXPECT_EQ(fmt(dbl), golden);

  // A mirror must actually serve the element.
  Agent stranger("stranger", 3);
  EXPECT_EQ(c.register_mirror(tenant, s0.id(), &stranger).code(),
            StatusCode::kNotFound);
}

TEST(QuorumTest, MirrorIsNotConsultedWhenElementIsUnknown) {
  // kNotFound is a config error, not a collection failure: no quorum read.
  FakeSource s0("m0/el0", ChannelKind::kProcFs);
  s0.attrs = {{attr::kRxPkts, 1}};
  Agent a("a0", 1);
  ASSERT_TRUE(a.add_element(&s0).is_ok());
  SimTime now;
  Controller c(
      [&now](Duration d) {
        now = now + d;
        return now;
      },
      [&now] { return now; });
  c.register_agent(&a);
  Result<Controller::QualifiedRecord> r =
      c.get_attr_many(TenantId{1}, {ElementId{"m0/ghost"}}, {attr::kRxPkts})
          .front();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// Whichever side of a quorum pair fails first, once both are down the
// re-raised Status is the PRIMARY's — byte-identical between the two onset
// orders and to an unmirrored run.  The paths differ before the double
// failure (replica-first leaves the primary serving fresh; primary-first
// has the replica serving kReplica), which must leave no residue in the
// error.
TEST(QuorumTest, DoubleFailureReRaisesPrimaryStatusRegardlessOfOrder) {
  auto build = [](Agent& primary, Agent& replica, FakeSource& s0,
                  SimTime& now, FaultPlan* plan) {
    s0.attrs = {{attr::kRxPkts, 42}};
    ASSERT_TRUE(primary.add_element(&s0).is_ok());
    ASSERT_TRUE(replica.add_element(&s0).is_ok());
    for (Agent* a : {&primary, &replica}) {
      a->set_fault_plan(plan);
      a->set_breaker_config(no_breakers());
    }
    now = SimTime::millis(100);
  };
  auto controller_for = [](Agent& primary, SimTime& now) {
    auto c = std::make_unique<Controller>(
        [&now](Duration d) {
          now = now + d;
          return now;
        },
        [&now] { return now; });
    c->register_agent(&primary);
    return c;
  };
  const TenantId tenant{1};

  // Golden: unmirrored primary-down failure text.
  std::string golden;
  {
    FakeSource s0("m0/el0", ChannelKind::kProcFs);
    FaultPlan plan(7);
    plan.schedule_outage("primary", SimTime::millis(0), SimTime::millis(5000));
    Agent primary("primary", 1), replica("replica", 2);
    SimTime now;
    build(primary, replica, s0, now, &plan);
    auto c = controller_for(primary, now);
    ASSERT_TRUE(c->register_element(tenant, s0.id(), &primary).is_ok());
    Result<Controller::QualifiedRecord> q =
        c->get_attr_many(tenant, {s0.id()}, {attr::kRxPkts}).front();
    ASSERT_FALSE(q.ok());
    golden = fmt(q);
  }

  auto run = [&](bool primary_first) {
    FakeSource s0("m0/el0", ChannelKind::kProcFs);
    FaultPlan plan(7);
    plan.schedule_outage(primary_first ? "primary" : "replica",
                         SimTime::millis(0), SimTime::millis(5000));
    plan.schedule_outage(primary_first ? "replica" : "primary",
                         SimTime::millis(400), SimTime::millis(5000));
    Agent primary("primary", 1), replica("replica", 2);
    SimTime now;
    build(primary, replica, s0, now, &plan);
    auto c = controller_for(primary, now);
    c->register_agent(&replica);
    EXPECT_TRUE(c->register_element(tenant, s0.id(), &primary).is_ok());
    EXPECT_TRUE(c->register_mirror(tenant, s0.id(), &replica).is_ok());

    // Single-failure phase: one side down, the element still answers.
    Result<Controller::QualifiedRecord> single =
        c->get_attr_many(tenant, {s0.id()}, {attr::kRxPkts}).front();
    EXPECT_TRUE(single.ok()) << single.status().message();
    if (single.ok()) {
      EXPECT_EQ(static_cast<int>(single.value().quality),
                static_cast<int>(primary_first ? DataQuality::kReplica
                                               : DataQuality::kFresh));
      EXPECT_EQ(single.value().record.get_or(attr::kRxPkts, -1), 42);
    }

    // Both down: the re-raised error.
    now = SimTime::millis(450);
    Result<Controller::QualifiedRecord> dbl =
        c->get_attr_many(tenant, {s0.id()}, {attr::kRxPkts}).front();
    EXPECT_FALSE(dbl.ok());
    return fmt(dbl);
  };

  EXPECT_EQ(run(/*primary_first=*/true), golden);
  EXPECT_EQ(run(/*primary_first=*/false), golden);
}

// A mirrored stack element is registered on its primary AND its replica
// agent; the diagnosis scan set must still count it once.  Mid-rolling-
// upgrade — primary down, quorum serving kReplica — a double-counted
// element would both inflate the coverage denominator and rank its loss
// twice.
TEST(QuorumTest, MirroredStackElementCountsOnceInCoverageMidRollingUpgrade) {
  FakeSource mirrored("h0/el0", ChannelKind::kProcFs);
  mirrored.attrs = {{attr::kRxPkts, 5000}, {attr::kTxPkts, 5000}};
  FakeSource plain("h1/el0", ChannelKind::kProcFs);
  plain.attrs = {{attr::kRxPkts, 3000}, {attr::kTxPkts, 3000}};

  FaultPlan plan(7);
  // h0 down [1000, 1500), h1 down [1500, 2000): mid-upgrade at 1200ms the
  // mirrored element is quorum-served by h1.
  plan.schedule_rolling_upgrade({"h0", "h1"}, SimTime::millis(1000),
                                Duration::millis(500));

  Agent h0("h0", 1), h1("h1", 2);
  ASSERT_TRUE(h0.add_element(&mirrored).is_ok());
  ASSERT_TRUE(h1.add_element(&mirrored).is_ok());
  ASSERT_TRUE(h1.add_element(&plain).is_ok());
  for (Agent* a : {&h0, &h1}) {
    a->set_fault_plan(&plan);
    a->set_breaker_config(no_breakers());
  }

  SimTime now = SimTime::millis(1050);
  Controller c(
      [&now](Duration d) {
        now = now + d;
        return now;
      },
      [&now] { return now; });
  const TenantId tenant{1};
  c.register_agent(&h0);
  c.register_agent(&h1);
  ASSERT_TRUE(c.register_element(tenant, mirrored.id(), &h0).is_ok());
  ASSERT_TRUE(c.register_element(tenant, plain.id(), &h1).is_ok());
  ASSERT_TRUE(c.register_mirror(tenant, mirrored.id(), &h1).is_ok());
  c.register_stack_element(&h0, mirrored.id());
  c.register_stack_element(&h1, mirrored.id());  // replica's stack view
  c.register_stack_element(&h1, plain.id());

  ContentionDetector det(&c, RuleBook::standard());
  ContentionReport report = det.diagnose(tenant, Duration::millis(100));

  // Two distinct elements, each once: the mirrored one served kReplica by
  // h1 while h0 is down, the plain one fresh.
  EXPECT_TRUE(report.blind_spots.empty());
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  ASSERT_EQ(report.ranked.size(), 2u);
  EXPECT_NE(report.ranked[0].id, report.ranked[1].id);
}

// --- reconnect-aware hello diffing -------------------------------------------

// Keeps sources alive across server generations (agents reference them).
struct SourceKeeper {
  std::vector<std::unique_ptr<FakeSource>> keep;

  FakeSource* source(const std::string& id) {
    auto s = std::make_unique<FakeSource>(id, ChannelKind::kProcFs);
    s->attrs = {{attr::kRxPkts, static_cast<double>(keep.size() + 1)}};
    keep.push_back(std::move(s));
    return keep.back().get();
  }
};

TEST(ReconnectDiffTest, DepartedAndAddedElementsSurfaceWithoutRedial) {
  SourceKeeper world;
  const ElementId el0{"f/el0"}, el1{"f/el1"}, el2{"f/el2"}, el3{"f/el3"};

  auto gen1 = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(gen1->add_element(world.source(el0.name)).is_ok());
  ASSERT_TRUE(gen1->add_element(world.source(el1.name)).is_ok());
  ASSERT_TRUE(gen1->add_element(world.source(el2.name)).is_ok());
  auto server1 = std::make_unique<RemoteAgentServer>(
      gen1.get(), transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server1->start().is_ok());
  const transport::Endpoint ep = server1->endpoint();

  RemoteAgent client(ep);
  ASSERT_TRUE(client.connect().is_ok());
  EXPECT_TRUE(client.departed_elements().empty());

  // Restart with a mutated element set: el0 removed, el3 added.  The first
  // batch after the restart rides the reconnect (its request predates the
  // diff); it settles the departed set for everything that follows.
  server1->stop();
  auto gen2 = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(gen2->add_element(world.source(el1.name)).is_ok());
  ASSERT_TRUE(gen2->add_element(world.source(el2.name)).is_ok());
  ASSERT_TRUE(gen2->add_element(world.source(el3.name)).is_ok());
  auto server2 = std::make_unique<RemoteAgentServer>(gen2.get(), ep);
  ASSERT_TRUE(server2->start().is_ok());
  (void)client.query_batch({el1}, SimTime::millis(1));

  // The departed element is answered locally (never travels the wire) while
  // the added one serves — all without a full redial.
  BatchResponse b =
      client.query_batch({el0, el1, el2, el3}, SimTime::millis(2));
  ASSERT_EQ(b.responses.size(), 4u);
  EXPECT_EQ(b.responses[0].record.element, el0);
  EXPECT_EQ(b.responses[0].quality, DataQuality::kMissing);
  EXPECT_EQ(b.responses[0].fail_code, StatusCode::kFailedPrecondition);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(b.responses[i].quality, DataQuality::kFresh)
        << b.responses[i].record.element.name;
  }
  EXPECT_EQ(b.degraded, 1u);

  EXPECT_EQ(client.departed_elements(), std::vector<ElementId>{el0});
  EXPECT_TRUE(client.has_element(el3));  // added: servable, no extra dial

  RemoteAgent::TransportStats stats = client.transport_stats();
  EXPECT_EQ(stats.connects, 2u);
  EXPECT_EQ(stats.reconnects, 1u);

  // The single path fails fast with the departure status — no wire trip.
  Result<QueryResponse> gone =
      client.query_attrs(el0, {attr::kRxPkts}, SimTime::millis(3));
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(gone.status().message().find("departed at reconnect"),
            std::string::npos)
      << gone.status().message();

  // Third generation re-adds el0: the departure is forgiven at the next
  // reconnect and the element serves again.
  server2->stop();
  auto gen3 = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(gen3->add_element(world.source(el0.name)).is_ok());
  ASSERT_TRUE(gen3->add_element(world.source(el1.name)).is_ok());
  ASSERT_TRUE(gen3->add_element(world.source(el2.name)).is_ok());
  ASSERT_TRUE(gen3->add_element(world.source(el3.name)).is_ok());
  auto server3 = std::make_unique<RemoteAgentServer>(gen3.get(), ep);
  ASSERT_TRUE(server3->start().is_ok());
  (void)client.query_batch({el1}, SimTime::millis(4));

  BatchResponse b3 = client.query_batch({el0, el3}, SimTime::millis(5));
  ASSERT_EQ(b3.responses.size(), 2u);
  EXPECT_EQ(b3.responses[0].quality, DataQuality::kFresh);
  EXPECT_TRUE(client.departed_elements().empty());
}

// A batch whose every id the adapter answers itself — departed at a
// reconnect, or too long for the wire — makes no trip: against a dead
// server it neither redials nor records a breaker failure.  The single
// query, a batch of one, inherits that.
TEST(ReconnectDiffTest, LocallyAnsweredBatchMakesNoTrip) {
  SourceKeeper world;
  const ElementId el0{"f/el0"}, el1{"f/el1"};
  auto gen1 = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(gen1->add_element(world.source(el0.name)).is_ok());
  ASSERT_TRUE(gen1->add_element(world.source(el1.name)).is_ok());
  auto server1 = std::make_unique<RemoteAgentServer>(
      gen1.get(), transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server1->start().is_ok());
  const transport::Endpoint ep = server1->endpoint();

  RemoteAgent client(ep);
  CircuitBreakerConfig breaker;
  breaker.failure_threshold = 1;  // one failed redial loop would open it
  client.set_breaker_config(breaker);
  ASSERT_TRUE(client.connect().is_ok());

  // el0 departs at a reconnect; then the server goes away for good.
  server1->stop();
  auto gen2 = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(gen2->add_element(world.source(el1.name)).is_ok());
  auto server2 = std::make_unique<RemoteAgentServer>(gen2.get(), ep);
  ASSERT_TRUE(server2->start().is_ok());
  (void)client.query_batch({el1}, SimTime::millis(1));
  ASSERT_EQ(client.departed_elements(), std::vector<ElementId>{el0});
  server2->stop();

  const ElementId oversize{std::string(70000, 'x')};
  BatchResponse b = client.query_batch({el0, oversize}, SimTime::millis(2));
  ASSERT_EQ(b.responses.size(), 1u);
  EXPECT_EQ(b.responses[0].record.element, el0);
  EXPECT_EQ(b.responses[0].quality, DataQuality::kMissing);
  EXPECT_EQ(b.responses[0].fail_code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(b.unknown_ids, 1u);

  Result<QueryResponse> gone =
      client.query_attrs(el0, {attr::kRxPkts}, SimTime::millis(3));
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kFailedPrecondition);

  EXPECT_EQ(client.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(client.transport_stats().fast_fails, 0u);
}

TEST(ReconnectDiffTest, UnchangedElementSetDepartsNothing) {
  SourceKeeper world;
  const ElementId el0{"f/el0"}, el1{"f/el1"};
  auto gen1 = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(gen1->add_element(world.source(el0.name)).is_ok());
  ASSERT_TRUE(gen1->add_element(world.source(el1.name)).is_ok());
  auto server1 = std::make_unique<RemoteAgentServer>(
      gen1.get(), transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server1->start().is_ok());
  const transport::Endpoint ep = server1->endpoint();

  RemoteAgent client(ep);
  ASSERT_TRUE(client.connect().is_ok());

  // Same name, same element set, fresh process: the diff finds no change,
  // and nothing departs.
  server1->stop();
  auto gen2 = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(gen2->add_element(world.source(el0.name)).is_ok());
  ASSERT_TRUE(gen2->add_element(world.source(el1.name)).is_ok());
  auto server2 = std::make_unique<RemoteAgentServer>(gen2.get(), ep);
  ASSERT_TRUE(server2->start().is_ok());

  BatchResponse b = client.query_batch({el0, el1}, SimTime::millis(1));
  ASSERT_EQ(b.responses.size(), 2u);
  EXPECT_EQ(b.responses[0].quality, DataQuality::kFresh);
  RemoteAgent::TransportStats stats = client.transport_stats();
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_TRUE(client.departed_elements().empty());
}

// An unbound adapter binds the first roster entry once; a reconnect keeps
// that agent even when a restarted server lists another agent first, for
// every request carries the bound name.
TEST(ReconnectDiffTest, UnboundAdapterKeepsItsAgentWhenTheRosterReorders) {
  SourceKeeper world;
  const ElementId a0{"a/el0"}, b0{"b/el0"};
  Agent a1("agent-a", 1), b1("agent-b", 2);
  ASSERT_TRUE(a1.add_element(world.source(a0.name)).is_ok());
  ASSERT_TRUE(b1.add_element(world.source(b0.name)).is_ok());
  auto server1 = std::make_unique<RemoteAgentServer>(
      std::vector<Agent*>{&a1, &b1},
      transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server1->start().is_ok());
  const transport::Endpoint ep = server1->endpoint();

  RemoteAgent client(ep);
  ASSERT_TRUE(client.connect().is_ok());
  ASSERT_EQ(client.name(), "agent-a");

  server1->stop();
  auto server2 = std::make_unique<RemoteAgentServer>(
      std::vector<Agent*>{&b1, &a1}, ep);
  ASSERT_TRUE(server2->start().is_ok());

  BatchResponse b = client.query_batch({a0}, SimTime::millis(1));
  ASSERT_EQ(b.responses.size(), 1u);
  EXPECT_EQ(b.responses[0].quality, DataQuality::kFresh);
  EXPECT_EQ(client.name(), "agent-a");
  EXPECT_EQ(client.roster_names(),
            (std::vector<std::string>{"agent-b", "agent-a"}));
  EXPECT_EQ(client.transport_stats().reconnects, 1u);
  EXPECT_TRUE(client.departed_elements().empty());
}

TEST(ReconnectDiffTest, ControllerMergeCarriesDepartureStatusBothPaths) {
  // A two-id fan-in and per-id reads reconstruct the identical "departed at
  // reconnect" Status from the synthesized batch responses — the
  // byte-identity contract extends to departures.
  SourceKeeper world;
  const ElementId el0{"f/el0"}, el1{"f/el1"};
  auto gen1 = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(gen1->add_element(world.source(el0.name)).is_ok());
  ASSERT_TRUE(gen1->add_element(world.source(el1.name)).is_ok());
  auto server1 = std::make_unique<RemoteAgentServer>(
      gen1.get(), transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server1->start().is_ok());
  const transport::Endpoint ep = server1->endpoint();

  RemoteAgent client(ep);
  ASSERT_TRUE(client.connect().is_ok());

  SimTime now;
  Controller c(
      [&now](Duration d) {
        now = now + d;
        return now;
      },
      [&now] { return now; });
  const TenantId tenant{1};
  c.register_agent(&client);
  ASSERT_TRUE(c.register_element(tenant, el0, &client).is_ok());
  ASSERT_TRUE(c.register_element(tenant, el1, &client).is_ok());

  server1->stop();
  auto gen2 = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(gen2->add_element(world.source(el1.name)).is_ok());
  auto server2 = std::make_unique<RemoteAgentServer>(gen2.get(), ep);
  ASSERT_TRUE(server2->start().is_ok());
  (void)client.query_batch({el1}, SimTime::millis(1));  // settle the diff

  std::string batched;
  for (const auto& r : c.get_attr_many(tenant, {el0, el1}, {attr::kRxPkts})) {
    batched += fmt(r);
  }
  std::string sequential;
  for (const ElementId& id : {el0, el1}) {
    sequential += fmt(c.get_attr_many(tenant, {id}, {attr::kRxPkts}).front());
  }
  EXPECT_EQ(batched, sequential);
  EXPECT_NE(batched.find("departed at reconnect"), std::string::npos)
      << batched;
  EXPECT_NE(batched.find("ERR(4)"), std::string::npos) << batched;
}

// --- CI chaos matrix ---------------------------------------------------------

// CI runs this test under the three campaign presets (brownout,
// rolling-upgrade, correlated host loss); standalone runs use a
// representative default so the invariants always execute.  Agents are
// named host0..host3 and tagged rack0/rack1 to match the presets.
TEST(ChaosMatrixTest, CampaignSweepInvariantsHoldUnderAnyPlan) {
  std::optional<FaultPlan> env = FaultPlan::from_env();
  FaultPlan fallback(11);
  fallback.schedule_rolling_upgrade({"host0", "host1", "host2", "host3"},
                                    SimTime::millis(100),
                                    Duration::millis(200));
  FaultPlan& plan = env.has_value() ? *env : fallback;
  plan.set_host("host0", "rack0");
  plan.set_host("host1", "rack0");
  plan.set_host("host2", "rack1");
  plan.set_host("host3", "rack1");

  constexpr size_t kAgents = 4, kPerAgent = 4;
  const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                               ChannelKind::kNetDeviceFile,
                               ChannelKind::kOvsChannel};
  std::vector<std::unique_ptr<FakeSource>> sources;
  std::vector<std::unique_ptr<Agent>> agents;
  RetryPolicy p;
  p.max_attempts = 2;
  p.element_budget = Duration::millis(8);
  for (size_t a = 0; a < kAgents; ++a) {
    agents.push_back(
        std::make_unique<Agent>("host" + std::to_string(a), a + 1));
    for (size_t e = 0; e < kPerAgent; ++e) {
      const size_t i = a * kPerAgent + e;
      auto s = std::make_unique<FakeSource>(
          "host" + std::to_string(a) + "/el" + std::to_string(e),
          kinds[i % 4]);
      s->attrs = {{attr::kRxPkts, static_cast<double>(i + 1)},
                  {attr::kTxPkts, 1.0}};
      ASSERT_TRUE(agents[a]->add_element(s.get()).is_ok());
      sources.push_back(std::move(s));
    }
    agents[a]->set_fault_plan(&plan);
    agents[a]->set_retry_policy(p);
  }

  bool saw_outage = false;
  for (int round = 0; round < 30; ++round) {
    const SimTime now = SimTime::millis(round * 50);
    if (plan.campaign_active(now)) saw_outage = true;
    for (size_t a = 0; a < kAgents; ++a) {
      std::vector<QueryResponse> rs =
          agents[a]->query_batch(agents[a]->element_ids(), now).responses;
      ASSERT_EQ(rs.size(), kPerAgent);
      const bool down =
          plan.has_campaign() && plan.agent_down(agents[a]->name(), now);
      for (size_t i = 0; i < rs.size(); ++i) {
        // At any campaign intensity budgets hold and a down agent reports
        // every element missing.
        EXPECT_LE(rs[i].response_time.ns(), p.element_budget.ns());
        if (down) {
          EXPECT_EQ(rs[i].quality, DataQuality::kMissing);
        }
        const int q = static_cast<int>(rs[i].quality);
        EXPECT_GE(q, static_cast<int>(DataQuality::kFresh));
        EXPECT_LE(q, static_cast<int>(DataQuality::kReplica));
      }
    }
  }
  // The fallback plan (and every CI preset) schedules real windows inside
  // the swept range; a preset that never fired would gut this test.
  if (plan.has_campaign()) {
    EXPECT_TRUE(saw_outage);
  }
}

// --- churn under campaigns (TSan target) -------------------------------------

TEST(ChaosChurnTest, ReconnectsRosterDrainsAndCampaignSweepsRace) {
  SourceKeeper world;
  const ElementId el0{"f/el0"}, el1{"f/el1"};
  auto agent = std::make_unique<Agent>("fleet-0", 1);
  ASSERT_TRUE(agent->add_element(world.source(el0.name)).is_ok());
  ASSERT_TRUE(agent->add_element(world.source(el1.name)).is_ok());
  FaultPlan plan(7);
  // Windows pepper the whole swept range so queries race the forcing path.
  for (int w = 0; w < 50; ++w) {
    plan.schedule_outage("fleet-0", SimTime::millis(w * 20),
                         SimTime::millis(w * 20 + 10));
  }
  agent->set_fault_plan(&plan);
  agent->set_breaker_config(no_breakers());

  auto server = std::make_unique<RemoteAgentServer>(
      agent.get(), transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server->start().is_ok());

  RemoteAgent client(server->endpoint());
  ASSERT_TRUE(client.connect().is_ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Batches race the server's own campaign-forced polls.
  threads.emplace_back([&] {
    int t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      BatchResponse b = client.query_batch({el0, el1}, SimTime::millis(++t));
      EXPECT_LE(b.responses.size(), 2u);
    }
  });
  // Roster bookkeeping readers race the reconnect path.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)client.departed_elements();
      (void)client.transport_stats();
    }
  });
  // Server-side campaign sweeps.
  threads.emplace_back([&] {
    int t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)agent->poll_all(SimTime::millis(++t));
    }
  });
  // Churner: dials and hangs up, forcing the event loop to juggle accepts
  // and reaps while the steady client's batches are in flight.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      RemoteAgent ephemeral(server->endpoint());
      if (ephemeral.connect().is_ok()) {
        (void)ephemeral.query_batch({el0}, SimTime::millis(1));
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(server->accept_errors(), 0u);
}

}  // namespace
}  // namespace perfsight
