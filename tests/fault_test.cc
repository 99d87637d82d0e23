// Fault-tolerant collection: fault-plan determinism, retry/backoff budgets,
// circuit breakers, agent crash/restart absorption, and partial-data
// diagnosis.  The byte-identity tests double as the parallel-vs-sequential
// contract check under faults, and the churn test is a TSan target.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/deployment.h"
#include "common/rng.h"
#include "perfsight/agent.h"
#include "perfsight/alert.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/faults.h"
#include "perfsight/monitor.h"
#include "perfsight/remote_agent.h"
#include "perfsight/rootcause.h"
#include "perfsight/trace.h"
#include "perfsight/transport.h"

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

std::vector<std::unique_ptr<FakeSource>> make_sources(size_t n) {
  std::vector<std::unique_ptr<FakeSource>> out;
  const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                               ChannelKind::kNetDeviceFile,
                               ChannelKind::kOvsChannel};
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<FakeSource>("m0/el" + std::to_string(i),
                                          kinds[i % 4]);
    s->attrs = {{attr::kRxPkts, static_cast<double>(100 * i)},
                {attr::kTxPkts, static_cast<double>(90 * i)}};
    out.push_back(std::move(s));
  }
  return out;
}

ChannelFaultSpec mixed_spec() {
  ChannelFaultSpec s;
  s.transient_p = 0.15;
  s.timeout_p = 0.10;
  s.stale_p = 0.10;
  s.torn_p = 0.10;
  return s;
}

FaultPlan mixed_plan(uint64_t seed = 7) {
  FaultPlan plan(seed);
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    plan.set_channel_faults(static_cast<ChannelKind>(k), mixed_spec());
  }
  return plan;
}

RetryPolicy lenient_retry() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.element_budget = Duration::millis(8);
  return p;
}

// --- fault plan -------------------------------------------------------------

TEST(FaultPlanTest, SameSeedSameScheduleAnyCallOrder) {
  FaultPlan a = mixed_plan(42), b = mixed_plan(42);
  const ElementId ids[] = {ElementId{"x"}, ElementId{"y"}, ElementId{"z"}};
  std::vector<FaultDecision> forward, backward;
  for (int t = 0; t < 200; ++t) {
    for (const ElementId& id : ids) {
      forward.push_back(
          a.decide(id, ChannelKind::kProcFs, SimTime::millis(t), 1));
    }
  }
  for (int t = 199; t >= 0; --t) {
    for (size_t i = 3; i-- > 0;) {
      backward.push_back(
          b.decide(ids[i], ChannelKind::kProcFs, SimTime::millis(t), 1));
    }
  }
  // Reverse-order calls see the exact same schedule: decide() is pure.
  ASSERT_EQ(forward.size(), backward.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    const FaultDecision& f = forward[i];
    const FaultDecision& r = backward[backward.size() - 1 - i];
    EXPECT_EQ(static_cast<int>(f.kind), static_cast<int>(r.kind));
    EXPECT_EQ(f.torn_salt, r.torn_salt);
  }
  // The mix actually produces every configured fault class.
  size_t counts[5] = {};
  for (const FaultDecision& d : forward) ++counts[static_cast<int>(d.kind)];
  EXPECT_GT(counts[static_cast<int>(FaultKind::kNone)], 0u);
  EXPECT_GT(counts[static_cast<int>(FaultKind::kTransient)], 0u);
  EXPECT_GT(counts[static_cast<int>(FaultKind::kTimeout)], 0u);
  EXPECT_GT(counts[static_cast<int>(FaultKind::kStale)], 0u);
  EXPECT_GT(counts[static_cast<int>(FaultKind::kTorn)], 0u);
}

TEST(FaultPlanTest, DifferentSeedsDiffer) {
  FaultPlan a = mixed_plan(1), b = mixed_plan(2);
  size_t differ = 0;
  for (int t = 0; t < 500; ++t) {
    FaultDecision da =
        a.decide(ElementId{"e"}, ChannelKind::kProcFs, SimTime::millis(t), 1);
    FaultDecision db =
        b.decide(ElementId{"e"}, ChannelKind::kProcFs, SimTime::millis(t), 1);
    if (da.kind != db.kind) ++differ;
  }
  EXPECT_GT(differ, 0u);
}

TEST(FaultPlanTest, EmptyPlanDisabledAndNeverFires) {
  FaultPlan plan(9);
  EXPECT_FALSE(plan.enabled());
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(static_cast<int>(plan.decide(ElementId{"e"},
                                           ChannelKind::kMbSocket,
                                           SimTime::millis(t), 1)
                                   .kind),
              static_cast<int>(FaultKind::kNone));
  }
  plan.schedule_crash("a0", SimTime::seconds(1));
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.crashes_between("a0", SimTime{}, SimTime::seconds(2)), 1u);
  EXPECT_EQ(plan.crashes_between("a0", SimTime::seconds(1),
                                 SimTime::seconds(2)),
            0u);  // (since, until]: consumed once
  EXPECT_EQ(plan.crashes_between("other", SimTime{}, SimTime::seconds(2)), 0u);
}

TEST(FaultPlanTest, TornReadIsDeterministicAndPartial) {
  StatsRecord r;
  r.element = ElementId{"e"};
  r.timestamp = SimTime::millis(3);
  r.attrs = {{attr::kRxPkts, 1}, {attr::kTxPkts, 2}, {attr::kDropPkts, 3},
             {attr::kRxBytes, 4}};
  StatsRecord t1 = apply_torn_read(r, 0xdeadbeef);
  StatsRecord t2 = apply_torn_read(r, 0xdeadbeef);
  EXPECT_EQ(to_text(t1), to_text(t2));
  EXPECT_GE(t1.attrs.size(), 1u);
  EXPECT_LT(t1.attrs.size(), r.attrs.size());
  // Single-attr records cannot tear.
  StatsRecord one;
  one.attrs = {{attr::kRxPkts, 1}};
  EXPECT_EQ(apply_torn_read(one, 5).attrs.size(), 1u);
}

TEST(FaultPlanTest, FromEnvParsesSpec) {
  setenv("PERFSIGHT_FAULTS", "seed=13,transient=0.5,timeout=0.1", 1);
  std::optional<FaultPlan> plan = FaultPlan::from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed(), 13u);
  EXPECT_TRUE(plan->enabled());
  unsetenv("PERFSIGHT_FAULTS");
  EXPECT_FALSE(FaultPlan::from_env().has_value());
}

// Regression (lossy-atof bugfix): std::atof turned "0.05x" into 0.05 and any
// typo into 0.0, silently running a different experiment than the operator
// asked for.  Parsing is now strict — malformed items are rejected whole —
// and probabilities clamp to [0,1].
TEST(FaultPlanTest, FromEnvRejectsMalformedAndClamps) {
  const ElementId e{"e"};

  // Trailing garbage on a value: the item is rejected, not parsed as 0.05.
  setenv("PERFSIGHT_FAULTS", "transient=0.05x", 1);
  std::optional<FaultPlan> plan = FaultPlan::from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->spec_for(e, ChannelKind::kProcFs).transient_p, 0.0);
  EXPECT_FALSE(plan->enabled());

  // Typo'd key: rejected (was silently skipped — same outcome, but now with
  // a warning); the plan must not gain faults from it.
  setenv("PERFSIGHT_FAULTS", "transiet=0.05", 1);
  plan = FaultPlan::from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->enabled());

  // Empty seed value: rejected; the default seed survives and well-formed
  // items later in the string still apply.
  setenv("PERFSIGHT_FAULTS", "seed=,transient=0.25", 1);
  plan = FaultPlan::from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed(), 1u);
  EXPECT_EQ(plan->spec_for(e, ChannelKind::kProcFs).transient_p, 0.25);

  // Probability above 1: clamped to 1.0 (atof let 1.5 skew the cumulative
  // threshold draw in decide()).
  setenv("PERFSIGHT_FAULTS", "torn=1.5", 1);
  plan = FaultPlan::from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->spec_for(e, ChannelKind::kProcFs).torn_p, 1.0);
  EXPECT_TRUE(plan->enabled());

  // Negative probability: clamped to 0.
  setenv("PERFSIGHT_FAULTS", "stale=-0.3", 1);
  plan = FaultPlan::from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->spec_for(e, ChannelKind::kProcFs).stale_p, 0.0);

  unsetenv("PERFSIGHT_FAULTS");
}

// --- retry / budgets --------------------------------------------------------

TEST(RetryTest, RetryAbsorbsTransientFault) {
  FaultPlan plan(3);
  ChannelFaultSpec spec;
  spec.transient_p = 0.5;
  plan.set_element_faults(ElementId{"e"}, spec);

  // decide() is pure: find a query time where attempt 1 fails and attempt 2
  // succeeds, then issue the query there.
  SimTime when;
  bool found = false;
  for (int t = 1; t < 2000; ++t) {
    SimTime now = SimTime::millis(t);
    if (plan.decide(ElementId{"e"}, ChannelKind::kProcFs, now, 1).kind ==
            FaultKind::kTransient &&
        plan.decide(ElementId{"e"}, ChannelKind::kProcFs, now, 2).kind ==
            FaultKind::kNone) {
      when = now;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  Agent agent("a0", 7);
  FakeSource s("e", ChannelKind::kProcFs);
  s.attrs = {{attr::kRxPkts, 5}};
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);
  agent.set_retry_policy(lenient_retry());

  ScopedTraceRecorder scoped;
  Result<QueryResponse> r = agent.query(ElementId{"e"}, when);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().attempts, 2u);
  EXPECT_TRUE(is_fresh(r.value().quality));
  AgentFaultStats fs = agent.fault_stats();
  EXPECT_EQ(fs.retries, 1u);
  EXPECT_GE(fs.faults_injected, 1u);
  EXPECT_EQ(fs.exhausted, 0u);

  // The retry shows up on the element's flight-recorder timeline.
  bool saw_retry = false;
  for (const TraceEvent& e : scoped.recorder().events_for(ElementId{"e"})) {
    if (e.kind == TraceEventKind::kAgentRetry) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_STREQ(to_string(TraceEventKind::kAgentRetry), "agent_retry");
}

TEST(RetryTest, ExhaustionFailsUnavailable) {
  FaultPlan plan(3);
  ChannelFaultSpec spec;
  spec.transient_p = 1.0;  // every attempt fails
  plan.set_element_faults(ElementId{"e"}, spec);

  Agent agent("a0");
  FakeSource s("e", ChannelKind::kProcFs);
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);
  RetryPolicy p = lenient_retry();
  agent.set_retry_policy(p);

  Result<QueryResponse> r = agent.query(ElementId{"e"}, SimTime::millis(1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(static_cast<int>(r.status().code()),
            static_cast<int>(StatusCode::kUnavailable));
  AgentFaultStats fs = agent.fault_stats();
  EXPECT_EQ(fs.exhausted, 1u);
  EXPECT_EQ(fs.retries, p.max_attempts - 1);
}

TEST(RetryTest, TimeoutRoutesDeadlineExceeded) {
  FaultPlan plan(3);
  ChannelFaultSpec spec;
  spec.timeout_p = 1.0;
  plan.set_element_faults(ElementId{"e"}, spec);

  Agent agent("a0");
  FakeSource s("e", ChannelKind::kProcFs);
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);  // default policy: one attempt, no budget

  Result<QueryResponse> r = agent.query(ElementId{"e"}, SimTime::millis(1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(static_cast<int>(r.status().code()),
            static_cast<int>(StatusCode::kDeadlineExceeded));
}

TEST(RetryTest, ElementBudgetBoundsResponseTime) {
  FaultPlan plan(5);
  ChannelFaultSpec spec;
  spec.timeout_p = 0.5;
  spec.transient_p = 0.3;
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    plan.set_channel_faults(static_cast<ChannelKind>(k), spec);
  }
  plan.set_timeout_spike(Duration::millis(10));

  auto sources = make_sources(12);
  Agent agent("a0", 11);
  for (const auto& s : sources) ASSERT_TRUE(agent.add_element(s.get()).is_ok());
  agent.set_fault_plan(&plan);
  RetryPolicy p;
  p.max_attempts = 4;
  p.element_budget = Duration::millis(3);
  agent.set_retry_policy(p);

  bool saw_deadline = false;
  for (int round = 0; round < 20; ++round) {
    for (const QueryResponse& r : agent.poll_all(SimTime::millis(round))) {
      // The sweep never runs past its per-element deadline budget.
      EXPECT_LE(r.response_time.ns(), p.element_budget.ns())
          << r.record.element.name;
    }
  }
  saw_deadline = agent.fault_stats().deadline_hits > 0;
  EXPECT_TRUE(saw_deadline);
}

// --- circuit breaker --------------------------------------------------------

TEST(BreakerTest, OpensFastFailsHalfOpensAndCloses) {
  FaultPlan plan(3);
  ChannelFaultSpec spec;
  spec.transient_p = 1.0;
  plan.set_element_faults(ElementId{"bad"}, spec);

  Agent agent("a0");
  FakeSource bad("bad", ChannelKind::kProcFs);
  FakeSource good("good", ChannelKind::kProcFs);
  good.attrs = {{attr::kRxPkts, 1}};
  ASSERT_TRUE(agent.add_element(&bad).is_ok());
  ASSERT_TRUE(agent.add_element(&good).is_ok());
  agent.set_fault_plan(&plan);
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.cooldown = Duration::millis(20);
  agent.set_breaker_config(cfg);

  // Three consecutive failures trip the kProcFs breaker.
  for (int t = 1; t <= 3; ++t) {
    EXPECT_FALSE(agent.query(ElementId{"bad"}, SimTime::millis(t)).ok());
  }
  EXPECT_EQ(static_cast<int>(agent.breaker_state(ChannelKind::kProcFs)),
            static_cast<int>(BreakerState::kOpen));
  EXPECT_EQ(agent.fault_stats().breaker_opened, 1u);

  // While cooling down, even the healthy element fast-fails with zero
  // channel time and zero attempts.
  Result<QueryResponse> ff = agent.query(ElementId{"good"}, SimTime::millis(5));
  ASSERT_FALSE(ff.ok());
  EXPECT_EQ(agent.fault_stats().breaker_fast_fails, 1u);

  // After the cooldown the next query runs as a half-open probe; it
  // succeeds and the breaker closes.
  Result<QueryResponse> probe =
      agent.query(ElementId{"good"}, SimTime::millis(30));
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(static_cast<int>(agent.breaker_state(ChannelKind::kProcFs)),
            static_cast<int>(BreakerState::kClosed));
  EXPECT_EQ(agent.fault_stats().breaker_closed, 1u);
  EXPECT_STREQ(to_string(BreakerState::kHalfOpen), "half_open");
}

TEST(BreakerTest, FailedProbeReopens) {
  FaultPlan plan(3);
  ChannelFaultSpec spec;
  spec.transient_p = 1.0;
  plan.set_element_faults(ElementId{"bad"}, spec);

  Agent agent("a0");
  FakeSource bad("bad", ChannelKind::kProcFs);
  ASSERT_TRUE(agent.add_element(&bad).is_ok());
  agent.set_fault_plan(&plan);
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.cooldown = Duration::millis(10);
  agent.set_breaker_config(cfg);

  EXPECT_FALSE(agent.query(ElementId{"bad"}, SimTime::millis(1)).ok());
  EXPECT_FALSE(agent.query(ElementId{"bad"}, SimTime::millis(2)).ok());
  ASSERT_EQ(static_cast<int>(agent.breaker_state(ChannelKind::kProcFs)),
            static_cast<int>(BreakerState::kOpen));
  // Probe after cooldown fails -> straight back to open.
  EXPECT_FALSE(agent.query(ElementId{"bad"}, SimTime::millis(20)).ok());
  EXPECT_EQ(static_cast<int>(agent.breaker_state(ChannelKind::kProcFs)),
            static_cast<int>(BreakerState::kOpen));
  EXPECT_EQ(agent.fault_stats().breaker_opened, 2u);
}

// --- the shared breaker state machine and backoff schedule ------------------

// Time points and cooldowns on each clock the breaker runs on.
template <typename Time>
struct BreakerClock;
template <>
struct BreakerClock<SimTime> {
  static SimTime at(int64_t ms) { return SimTime::millis(ms); }
  static Duration span(int64_t ms) { return Duration::millis(ms); }
};
template <>
struct BreakerClock<transport::Clock::time_point> {
  static transport::Clock::time_point at(int64_t ms) {
    return transport::Clock::time_point{} + std::chrono::milliseconds(ms);
  }
  static std::chrono::nanoseconds span(int64_t ms) {
    return std::chrono::milliseconds(ms);
  }
};

template <typename Time>
class CircuitBreakerTest : public ::testing::Test {};
using BreakerClocks = ::testing::Types<SimTime, transport::Clock::time_point>;
TYPED_TEST_SUITE(CircuitBreakerTest, BreakerClocks);

TYPED_TEST(CircuitBreakerTest, TransitionTable) {
  using C = BreakerClock<TypeParam>;
  const auto cooldown = C::span(10);
  CircuitBreaker<TypeParam> br;

  // Closed: failures below the threshold do not trip, and a success clears
  // the run.
  EXPECT_TRUE(br.admit(C::at(0), cooldown));
  EXPECT_FALSE(br.record_failure(C::at(0), 3));
  EXPECT_FALSE(br.record_failure(C::at(1), 3));
  EXPECT_FALSE(br.record_success());
  EXPECT_FALSE(br.record_failure(C::at(2), 3));
  EXPECT_FALSE(br.record_failure(C::at(3), 3));
  EXPECT_EQ(br.state(), BreakerState::kClosed);

  // Trip: the third consecutive failure opens it.
  EXPECT_TRUE(br.record_failure(C::at(4), 3));
  EXPECT_EQ(br.state(), BreakerState::kOpen);

  // Fast-fail inside the cooldown, counted from the trip.
  EXPECT_TRUE(br.cooling(C::at(13), cooldown));
  EXPECT_FALSE(br.admit(C::at(13), cooldown));
  EXPECT_EQ(br.state(), BreakerState::kOpen);

  // Probe after it: the breaker turns half-open and admits the attempt.
  EXPECT_FALSE(br.cooling(C::at(14), cooldown));
  EXPECT_TRUE(br.admit(C::at(14), cooldown));
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);

  // Reopen on a failed probe, without waiting for the threshold; the
  // cooldown restarts from the reopen.
  EXPECT_TRUE(br.record_failure(C::at(15), 3));
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_FALSE(br.admit(C::at(24), cooldown));
  EXPECT_TRUE(br.admit(C::at(25), cooldown));
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);

  // Close on a successful probe; the next trip needs a full run again.
  EXPECT_TRUE(br.record_success());
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_FALSE(br.record_failure(C::at(26), 3));
  EXPECT_FALSE(br.record_failure(C::at(27), 3));
  EXPECT_TRUE(br.record_failure(C::at(28), 3));

  // Reset: closed, admitting at once, with the failure run cleared.
  br.reset();
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_TRUE(br.admit(C::at(28), cooldown));
  EXPECT_FALSE(br.record_failure(C::at(29), 3));
  EXPECT_FALSE(br.record_failure(C::at(30), 3));
  EXPECT_EQ(br.state(), BreakerState::kClosed);
}

TEST(RetryPolicyTest, BackoffScheduleMultipliesThenCaps) {
  RetryPolicy p;
  p.initial_backoff = Duration::millis(1);
  p.backoff_multiplier = 2.0;
  p.max_backoff = Duration::millis(5);
  EXPECT_EQ(p.backoff(1).ns(), Duration::millis(1).ns());
  EXPECT_EQ(p.backoff(2).ns(), Duration::millis(2).ns());
  EXPECT_EQ(p.backoff(3).ns(), Duration::millis(4).ns());
  EXPECT_EQ(p.backoff(4).ns(), Duration::millis(5).ns());
  EXPECT_EQ(p.backoff(9).ns(), Duration::millis(5).ns());

  // max_backoff = 0 means uncapped, not a zero sleep.
  p.max_backoff = Duration::nanos(0);
  EXPECT_EQ(p.backoff(1).ns(), Duration::millis(1).ns());
  EXPECT_EQ(p.backoff(4).ns(), Duration::millis(8).ns());
  EXPECT_EQ(p.backoff(6).ns(), Duration::millis(32).ns());

  // An initial backoff above the cap is capped from the first sleep on.
  p.initial_backoff = Duration::millis(10);
  p.max_backoff = Duration::millis(3);
  EXPECT_EQ(p.backoff(1).ns(), Duration::millis(3).ns());
  EXPECT_EQ(p.backoff(2).ns(), Duration::millis(3).ns());
}

// --- agent crash / counter reset -------------------------------------------

TEST(CrashTest, CrashResetsMonotoneCountersOnly) {
  FaultPlan plan(3);
  plan.schedule_crash("a0", SimTime::millis(5));

  Agent agent("a0");
  FakeSource s("e", ChannelKind::kProcFs);
  s.attrs = {{attr::kRxPkts, 1000}, {attr::kCapacityMbps, 100}};
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);

  Result<QueryResponse> before = agent.query(ElementId{"e"}, SimTime::millis(1));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().record.get_or(attr::kRxPkts, -1), 1000);

  // Crash at 5ms: the next collect restarts the monotone counters from
  // zero; gauges keep their values.
  s.attrs[0].value = 1500;
  Result<QueryResponse> after = agent.query(ElementId{"e"}, SimTime::millis(10));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().record.get_or(attr::kRxPkts, -1), 0);
  EXPECT_EQ(after.value().record.get_or(attr::kCapacityMbps, -1), 100);
  EXPECT_EQ(agent.fault_stats().crashes, 1u);

  // Counters grow again from the new origin.
  s.attrs[0].value = 1800;
  Result<QueryResponse> later = agent.query(ElementId{"e"}, SimTime::millis(20));
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later.value().record.get_or(attr::kRxPkts, -1), 300);
}

TEST(CrashTest, ReAddedElementInheritsNoFaultState) {
  FaultPlan plan(3);
  plan.schedule_crash("a0", SimTime::millis(5));
  // Stale serving configured elsewhere, so the agent keeps last-good records.
  ChannelFaultSpec stale;
  stale.stale_p = 1.0;
  plan.set_element_faults(ElementId{"warm"}, stale);

  Agent agent("a0");
  FakeSource old_src("e", ChannelKind::kProcFs);
  old_src.attrs = {{attr::kRxPkts, 1e6}};
  ASSERT_TRUE(agent.add_element(&old_src).is_ok());
  agent.set_fault_plan(&plan);
  ASSERT_TRUE(agent.query(ElementId{"e"}, SimTime::millis(1)).ok());
  // After the crash the departing element reads from a 1e6 offset.
  Result<QueryResponse> reset = agent.query(ElementId{"e"}, SimTime::millis(6));
  ASSERT_TRUE(reset.ok());
  EXPECT_EQ(reset.value().record.get_or(attr::kRxPkts, -1), 0);

  // A fresh source under the same id starts from its own raw counters, not
  // from the departed element's crash offset (which would clamp it to 0).
  ASSERT_TRUE(agent.remove_element(ElementId{"e"}).is_ok());
  FakeSource new_src("e", ChannelKind::kProcFs);
  new_src.attrs = {{attr::kRxPkts, 20}};
  ASSERT_TRUE(agent.add_element(&new_src).is_ok());
  Result<QueryResponse> fresh = agent.query(ElementId{"e"}, SimTime::millis(7));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().record.get_or(attr::kRxPkts, -1), 20);

  // Nor may a stale read serve the departed element's last-good record: with
  // nothing of its own cached, the new element's stale read fails.
  ASSERT_TRUE(agent.remove_element(ElementId{"e"}).is_ok());
  ASSERT_TRUE(agent.add_element(&old_src).is_ok());
  plan.set_element_faults(ElementId{"e"}, stale);
  Result<QueryResponse> r = agent.query(ElementId{"e"}, SimTime::millis(8));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(agent.fault_stats().stale_served, 0u);
}

// Small rig: one agent + controller over scripted sources whose counters
// advance with simulated time.
class FaultRig {
 public:
  explicit FaultRig(size_t elements, uint64_t agent_seed = 42)
      : controller_([this](Duration d) { return advance(d); },
                    [this] { return now_; }),
        agent_("agent-a", agent_seed),
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

TEST(CrashTest, MonitorRatesAbsorbCrashReset) {
  FaultRig rig(4);
  FaultPlan plan(3);
  plan.schedule_crash("agent-a", SimTime::seconds(2.5));
  rig.agent_.set_fault_plan(&plan);

  Monitor mon(&rig.controller_, rig.tenant_);
  mon.watch(rig.sources_[0]->id(), attr::kRxPkts);
  for (int tick = 0; tick < 6; ++tick) {
    mon.sample();
    rig.advance(Duration::seconds(1));
  }
  EXPECT_EQ(rig.agent_.fault_stats().crashes, 1u);

  // The reset shows as a negative delta which rates() suppresses: every
  // surviving rate point is the true 1000 pkts/s, never negative.
  Monitor::Series r = mon.rates(rig.sources_[0]->id(), attr::kRxPkts);
  ASSERT_GE(r.points.size(), 2u);
  for (const Monitor::Point& p : r.points) {
    EXPECT_DOUBLE_EQ(p.value, 1000.0);
  }
}

// --- stale / torn serving ---------------------------------------------------

TEST(StaleTest, StaleServedFromLastGoodWithTrueTimestamp) {
  FaultPlan plan(3);
  // Stale serving configured (on an unregistered element, so nothing fires
  // yet): the agent tracks last-good records but queries run undisturbed.
  ChannelFaultSpec stale_elsewhere;
  stale_elsewhere.stale_p = 1.0;
  plan.set_element_faults(ElementId{"warm"}, stale_elsewhere);

  Agent agent("a0");
  FakeSource s("e", ChannelKind::kProcFs);
  s.attrs = {{attr::kRxPkts, 7}};
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);

  ASSERT_TRUE(agent.query(ElementId{"e"}, SimTime::millis(1)).ok());

  // Now every query to "e" is stale: the agent serves the last good record
  // at its true (old) timestamp.
  ChannelFaultSpec stale;
  stale.stale_p = 1.0;
  plan.set_element_faults(ElementId{"e"}, stale);
  s.attrs[0].value = 99;

  Result<QueryResponse> r = agent.query(ElementId{"e"}, SimTime::millis(50));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<int>(r.value().quality),
            static_cast<int>(DataQuality::kStale));
  EXPECT_EQ(r.value().record.timestamp, SimTime::millis(1));
  EXPECT_EQ(r.value().record.get_or(attr::kRxPkts, -1), 7);
  EXPECT_EQ(agent.fault_stats().stale_served, 1u);
}

TEST(StaleTest, StaleWithoutLastGoodActsTransient) {
  FaultPlan plan(3);
  ChannelFaultSpec stale;
  stale.stale_p = 1.0;
  plan.set_element_faults(ElementId{"e"}, stale);

  Agent agent("a0");
  FakeSource s("e", ChannelKind::kProcFs);
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);

  // Nothing cached yet: the stale read has nothing to serve and fails.
  Result<QueryResponse> r = agent.query(ElementId{"e"}, SimTime::millis(1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(static_cast<int>(r.status().code()),
            static_cast<int>(StatusCode::kUnavailable));
}

TEST(TornTest, TornReadDeliversPartialRecord) {
  FaultPlan plan(3);
  ChannelFaultSpec torn;
  torn.torn_p = 1.0;
  plan.set_element_faults(ElementId{"e"}, torn);

  Agent agent("a0");
  FakeSource s("e", ChannelKind::kProcFs);
  s.attrs = {{attr::kRxPkts, 1}, {attr::kTxPkts, 2}, {attr::kDropPkts, 3},
             {attr::kRxBytes, 4}};
  ASSERT_TRUE(agent.add_element(&s).is_ok());
  agent.set_fault_plan(&plan);

  Result<QueryResponse> r = agent.query(ElementId{"e"}, SimTime::millis(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<int>(r.value().quality),
            static_cast<int>(DataQuality::kTorn));
  EXPECT_GE(r.value().record.attrs.size(), 1u);
  EXPECT_LT(r.value().record.attrs.size(), s.attrs.size());
  EXPECT_EQ(agent.fault_stats().torn_reads, 1u);
}

// --- one billing rule ------------------------------------------------------

// A poll sweep, a batch of one per id and a single query are the same read:
// under retries they return the same records and observe the same per-kind
// histogram — one observe of the first trip per batch, whichever surface
// ran, so no later decision can depend on which one did.
TEST(BillingTest, PollBatchesOfOneAndQueryAgreeUnderRetries) {
  auto sources = make_sources(12);
  FaultPlan plan(3);
  ChannelFaultSpec flaky;
  flaky.transient_p = 0.5;
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    plan.set_channel_faults(static_cast<ChannelKind>(k), flaky);
  }
  RetryPolicy p;
  p.max_attempts = 3;
  Agent poll("a0", 7), batch("a0", 7), single("a0", 7);
  for (Agent* a : {&poll, &batch, &single}) {
    for (const auto& s : sources) ASSERT_TRUE(a->add_element(s.get()).is_ok());
    a->set_fault_plan(&plan);
    a->set_retry_policy(p);
  }

  for (int round = 0; round < 20; ++round) {
    const SimTime now = SimTime::millis(round);
    const std::vector<QueryResponse> polled = poll.poll_all(now);
    ASSERT_EQ(polled.size(), sources.size());
    for (const QueryResponse& want : polled) {
      const ElementId& id = want.record.element;
      const BatchResponse one = batch.query_batch({id}, now);
      ASSERT_EQ(one.responses.size(), 1u);
      const QueryResponse& got = one.responses[0];
      EXPECT_EQ(to_text(got.record), to_text(want.record));
      EXPECT_EQ(got.response_time.ns(), want.response_time.ns());
      EXPECT_EQ(got.quality, want.quality);
      EXPECT_EQ(got.attempts, want.attempts);
      EXPECT_EQ(got.fail_code, want.fail_code);

      const Result<QueryResponse> q = single.query(id, now);
      if (want.quality == DataQuality::kMissing) {
        ASSERT_FALSE(q.ok());
        EXPECT_EQ(q.status().to_string(),
                  query_failure_status("a0", id, want.attempts, want.fail_code)
                      .to_string());
      } else {
        ASSERT_TRUE(q.ok());
        EXPECT_EQ(to_text(q.value().record), to_text(want.record));
        EXPECT_EQ(q.value().response_time.ns(), want.response_time.ns());
        EXPECT_EQ(q.value().attempts, want.attempts);
      }
    }
  }
  EXPECT_GT(poll.fault_stats().retries, 0u);  // the chains were retried
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    const ChannelKind kind = static_cast<ChannelKind>(k);
    const LatencyHistogram& h = poll.channel_latency(kind);
    for (const Agent* a : {&batch, &single}) {
      EXPECT_EQ(a->channel_latency(kind).count(), h.count()) << to_string(kind);
      EXPECT_DOUBLE_EQ(a->channel_latency(kind).sum(), h.sum())
          << to_string(kind);
    }
  }
}

// --- an inert plan is invisible ---------------------------------------------

TEST(ParallelFaultTest, DisabledFaultPathMatchesNoPlanAgent) {
  // A zero-probability plan must not perturb the RNG stream: outputs stay
  // byte-identical to an agent with no plan installed at all.
  auto sources = make_sources(8);
  FaultPlan inert(7);
  Agent with("a0", 7), without("a0", 7);
  for (const auto& s : sources) {
    ASSERT_TRUE(with.add_element(s.get()).is_ok());
    ASSERT_TRUE(without.add_element(s.get()).is_ok());
  }
  with.set_fault_plan(&inert);

  for (int round = 0; round < 4; ++round) {
    SimTime now = SimTime::millis(round);
    std::vector<QueryResponse> a = with.poll_all(now);
    std::vector<QueryResponse> b = without.poll_all(now);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(to_text(a[i].record), to_text(b[i].record));
      EXPECT_EQ(a[i].response_time.ns(), b[i].response_time.ns());
    }
  }
}

// --- batch degradation trace ------------------------------------------------

TEST(BatchTraceTest, DegradedBatchEmitsTraceEvent) {
  ScopedTraceRecorder scoped;
  FaultPlan plan(3);
  ChannelFaultSpec torn;
  torn.torn_p = 1.0;
  plan.set_element_faults(ElementId{"e0"}, torn);

  Agent agent("a0");
  FakeSource e0("e0", ChannelKind::kProcFs), e1("e1", ChannelKind::kProcFs);
  e0.attrs = {{attr::kRxPkts, 1}, {attr::kTxPkts, 2}};
  e1.attrs = {{attr::kRxPkts, 3}};
  ASSERT_TRUE(agent.add_element(&e0).is_ok());
  ASSERT_TRUE(agent.add_element(&e1).is_ok());
  agent.set_fault_plan(&plan);

  BatchResponse batch = agent.query_batch(
      {ElementId{"e0"}, ElementId{"e1"}, ElementId{"ghost"}},
      SimTime::millis(1));
  EXPECT_EQ(batch.unknown_ids, 1u);
  EXPECT_EQ(batch.degraded, 1u);

  bool saw = false;
  for (const TraceEvent& e :
       scoped.recorder().events_for(ElementId{"a0/batch"})) {
    if (e.kind == TraceEventKind::kAgentBatchDegraded) {
      saw = true;
      EXPECT_EQ(e.value, 2);  // 1 unknown + 1 degraded
    }
  }
  EXPECT_TRUE(saw);
  EXPECT_STREQ(to_string(TraceEventKind::kAgentBatchDegraded),
               "agent_batch_degraded");
}

// --- partial-data diagnosis -------------------------------------------------

TEST(PartialDiagnosisTest, ContentionReportsBlindSpots) {
  FaultRig rig(8);
  FaultPlan plan(3);
  ChannelFaultSpec dead;
  dead.transient_p = 1.0;
  plan.set_element_faults(rig.sources_[2]->id(), dead);
  rig.agent_.set_fault_plan(&plan);

  ContentionDetector det(&rig.controller_, RuleBook::standard());
  ContentionReport report = det.diagnose(rig.tenant_, Duration::seconds(1));

  ASSERT_EQ(report.blind_spots.size(), 1u);
  EXPECT_EQ(report.blind_spots[0].id, rig.sources_[2]->id());
  EXPECT_EQ(static_cast<int>(report.blind_spots[0].quality),
            static_cast<int>(DataQuality::kMissing));
  EXPECT_NEAR(report.coverage, 7.0 / 8.0, 1e-9);
  // The dead element is not ranked; everything else still is.
  for (const ElementLossEntry& e : report.ranked) {
    EXPECT_NE(e.id, rig.sources_[2]->id());
  }
  EXPECT_EQ(report.ranked.size(), 7u);
  EXPECT_NE(report.narrative.find("unmeasured"), std::string::npos);
  EXPECT_NE(to_text(report).find("blind spots"), std::string::npos);
}

TEST(PartialDiagnosisTest, FreshSweepHasFullCoverage) {
  FaultRig rig(6);
  ContentionDetector det(&rig.controller_, RuleBook::standard());
  ContentionReport report = det.diagnose(rig.tenant_, Duration::seconds(1));
  EXPECT_TRUE(report.blind_spots.empty());
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_EQ(report.narrative.find("unmeasured"), std::string::npos);
}

// Scripted middlebox for Algorithm 2 (mirrors rootcause_unit_test).
struct ScriptedMb : StatsSource {
  ScriptedMb(std::string n, double capacity)
      : id_{std::move(n)}, cap(capacity) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kMbSocket; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = {{attr::kInBytes, in_bytes},
               {attr::kInTimeNs, in_time_ns},
               {attr::kOutBytes, out_bytes},
               {attr::kOutTimeNs, out_time_ns},
               {attr::kCapacityMbps, cap}};
    return r;
  }

  ElementId id_;
  double cap;
  double in_bytes = 0, in_time_ns = 0, out_bytes = 0, out_time_ns = 0;
};

TEST(PartialDiagnosisTest, RootCauseRefusesToExonerateDegradedMiddlebox) {
  SimTime now;
  std::vector<std::function<void(double)>> per_second;
  Agent agent("a0");
  Controller controller(
      [&](Duration d) {
        now = now + d;
        for (auto& fn : per_second) fn(d.sec());
        return now;
      },
      [&] { return now; });
  controller.register_agent(&agent);
  const TenantId tenant{1};

  ScriptedMb m1("mb1", 100), m2("mb2", 100);
  for (ScriptedMb* m : {&m1, &m2}) {
    ASSERT_TRUE(agent.add_element(m).is_ok());
    ASSERT_TRUE(controller.register_element(tenant, m->id(), &agent).is_ok());
    controller.register_middlebox(tenant, m->id());
  }
  controller.add_chain_edge(tenant, m1.id(), m2.id());
  // Both middleboxes read well below capacity: both ReadBlocked, so a fully
  // fresh run exonerates the entire chain.
  per_second.push_back([&](double s) {
    for (ScriptedMb* m : {&m1, &m2}) {
      m->in_bytes += 20 * s * 1e6 / 8;
      m->in_time_ns += 0.9 * s * 1e9;
      m->out_bytes += 20 * s * 1e6 / 8;
      m->out_time_ns += 0.05 * s * 1e9;
    }
  });

  RootCauseAnalyzer analyzer(&controller);
  RootCauseReport fresh = analyzer.analyze(tenant, Duration::seconds(1));
  EXPECT_TRUE(fresh.root_causes.empty());
  EXPECT_DOUBLE_EQ(fresh.coverage, 1.0);

  // Same chain, but mb1's counters cannot be fetched: Algorithm 2 must not
  // exonerate what it could not measure — mb1 stays a candidate, flagged
  // unverified, and the report's coverage drops.
  FaultPlan plan(3);
  ChannelFaultSpec dead;
  dead.transient_p = 1.0;
  plan.set_element_faults(m1.id(), dead);
  agent.set_fault_plan(&plan);

  RootCauseReport degraded = analyzer.analyze(tenant, Duration::seconds(1));
  ASSERT_EQ(degraded.root_causes.size(), 1u);
  EXPECT_EQ(degraded.root_causes[0], m1.id());
  ASSERT_EQ(degraded.blind_spots.size(), 1u);
  EXPECT_EQ(degraded.blind_spots[0].id, m1.id());
  EXPECT_DOUBLE_EQ(degraded.coverage, 0.5);
  EXPECT_NE(degraded.narrative.find("unverified"), std::string::npos);
  EXPECT_NE(to_text(degraded).find("[missing]"), std::string::npos);
}

TEST(PartialDiagnosisTest, AlertCarriesDiagnosisCoverage) {
  FaultRig rig(4);
  FaultPlan plan(3);
  ChannelFaultSpec dead;
  dead.transient_p = 1.0;
  plan.set_element_faults(rig.sources_[1]->id(), dead);
  rig.agent_.set_fault_plan(&plan);

  Monitor mon(&rig.controller_, rig.tenant_);
  mon.watch(rig.sources_[0]->id(), attr::kRxPkts);
  ContentionDetector det(&rig.controller_, RuleBook::standard());
  AlertWatcher watcher(&mon, &det, nullptr);
  AlertRule rule;
  rule.name = "rx-rate";
  rule.element = rig.sources_[0]->id();
  rule.attr = attr::kRxPkts;
  rule.on_rate = true;
  rule.threshold = 1;  // fires on any forward progress
  rule.action = AlertRule::Action::kContention;
  watcher.add_rule(rule);

  mon.sample();
  rig.advance(Duration::seconds(1));
  mon.sample();
  std::vector<Alert> fired = watcher.check();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_LT(fired[0].coverage, 1.0);
  EXPECT_NEAR(fired[0].coverage, fired[0].contention.coverage, 1e-12);
  EXPECT_NE(to_text(fired[0]).find("partial data"), std::string::npos);
}

// --- fault matrix (CI runs this binary under several PERFSIGHT_FAULTS) -----

TEST(FaultMatrixTest, SweepInvariantsHoldAtAnyIntensity) {
  // Under CI's fault matrix the plan comes from the environment; standalone
  // runs use a representative default, so the invariants are always
  // exercised.
  FaultPlan plan = FaultPlan::from_env().value_or(mixed_plan(17));

  auto sources = make_sources(16);
  Agent a("a0", 5);
  for (const auto& s : sources) {
    ASSERT_TRUE(a.add_element(s.get()).is_ok());
  }
  RetryPolicy p;
  p.max_attempts = 3;
  p.element_budget = Duration::millis(5);
  a.set_fault_plan(&plan);
  a.set_retry_policy(p);

  for (int round = 0; round < 10; ++round) {
    SimTime now = SimTime::millis(round * 10);
    std::vector<QueryResponse> ra =
        a.query_batch(a.element_ids(), now).responses;
    ASSERT_EQ(ra.size(), sources.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      // Budget respected; every response is one of the four quality levels
      // regardless of intensity.
      EXPECT_LE(ra[i].response_time.ns(), p.element_budget.ns());
      int q = static_cast<int>(ra[i].quality);
      EXPECT_GE(q, static_cast<int>(DataQuality::kFresh));
      EXPECT_LE(q, static_cast<int>(DataQuality::kMissing));
    }
  }
}

// --- deployment plumbing ----------------------------------------------------

TEST(DeploymentFaultTest, EnvPlanInstallsOnAllAgentsAndSweepSummarizes) {
  setenv("PERFSIGHT_FAULTS", "seed=5,torn=1.0", 1);
  sim::Simulator sim(Duration::millis(1));
  cluster::Deployment dep(&sim);
  Agent* a0 = dep.add_agent("host0");
  ASSERT_TRUE(dep.use_env_fault_plan());
  Agent* a1 = dep.add_agent("host1");  // added after: inherits the plan
  unsetenv("PERFSIGHT_FAULTS");

  auto sources = make_sources(4);
  ASSERT_TRUE(a0->add_element(sources[0].get()).is_ok());
  ASSERT_TRUE(a0->add_element(sources[1].get()).is_ok());
  ASSERT_TRUE(a1->add_element(sources[2].get()).is_ok());
  ASSERT_TRUE(a1->add_element(sources[3].get()).is_ok());

  auto sweep = dep.poll_sweep(SimTime::millis(1));
  cluster::Deployment::SweepQuality q =
      cluster::Deployment::summarize(sweep);
  EXPECT_EQ(q.total(), 4u);
  // torn=1.0 on every channel: every multi-attr element tears.
  EXPECT_EQ(q.torn, 4u);
  EXPECT_EQ(q.fresh + q.stale + q.missing, 0u);
  EXPECT_GT(a0->fault_stats().torn_reads, 0u);
  EXPECT_GT(a1->fault_stats().torn_reads, 0u);
}

// A fleet server on a fresh unix path hosting one agent over `sources`.
struct RemoteHost {
  Agent agent{"remote-host"};
  RemoteAgentServer server;

  explicit RemoteHost(const std::vector<std::unique_ptr<FakeSource>>& sources)
      : server(&agent, transport::Endpoint::unix_path(
                           "/tmp/ps-fault-" + std::to_string(::getpid()) +
                           "-" + std::to_string(next_id()) + ".sock")) {
    for (const auto& s : sources) PS_CHECK(agent.add_element(s.get()).is_ok());
    PS_CHECK(server.start().is_ok());
  }
  static int next_id() {
    static std::atomic<int> n{0};
    return n.fetch_add(1);
  }

  // Stops the server and puts a listener that never says hello on its
  // endpoint, then lets `remote` query once.  Each redial queues one
  // connection on that listener and fails at a short hello deadline, so the
  // count returned is the number of dials the retry policy allowed.
  size_t dials_after_outage(RemoteAgent* remote) {
    const transport::Endpoint ep = server.endpoint();
    server.stop();
    Result<transport::Listener> mute = transport::Listener::listen(ep);
    PS_CHECK(mute.ok());
    remote->set_deadline(transport::WallDuration(50));
    (void)remote->query_batch(remote->element_ids(), SimTime::millis(1));
    size_t dials = 0;
    while (mute.value().accept(transport::WallDuration(0)).ok()) ++dials;
    return dials;
  }
};

TEST(DeploymentFaultTest, RetryAndBreakerConfigReplayOntoNewAgents) {
  sim::Simulator sim(Duration::millis(1));
  cluster::Deployment dep(&sim);
  FaultPlan plan(3);
  ChannelFaultSpec dead;
  dead.transient_p = 1.0;
  plan.set_element_faults(ElementId{"m0/el0"}, dead);
  dep.set_fault_plan(&plan);
  RetryPolicy p;
  p.max_attempts = 2;
  p.initial_backoff = Duration::millis(1);
  dep.set_retry_policy(p);
  CircuitBreakerConfig cb;
  cb.failure_threshold = 1;
  dep.set_breaker_config(cb);
  Agent* a = dep.add_agent("late");  // all settings replayed

  auto sources = make_sources(1);
  ASSERT_TRUE(a->add_element(sources[0].get()).is_ok());
  EXPECT_FALSE(a->query(sources[0]->id(), SimTime::millis(1)).ok());
  EXPECT_EQ(a->fault_stats().retries, 1u);  // max_attempts=2 reached the agent
  EXPECT_EQ(a->breaker_state(ChannelKind::kProcFs), BreakerState::kOpen);

  // A socket-backed agent dialed after the settings gets them too: its
  // redial loop makes two dials, and one exhausted loop opens its breaker.
  auto remote_sources = make_sources(2);
  RemoteHost host(remote_sources);
  Result<RemoteAgent*> r =
      dep.add_remote_agent(host.server.endpoint().to_string());
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(host.dials_after_outage(r.value()), 2u);
  EXPECT_EQ(r.value()->breaker_state(), BreakerState::kOpen);
}

TEST(DeploymentFaultTest, AgentsAddedBeforeAnySetKeepTheirDefaults) {
  sim::Simulator sim(Duration::millis(1));
  cluster::Deployment dep(&sim);
  Agent* early = dep.add_agent("early");
  auto remote_sources = make_sources(2);
  RemoteHost host(remote_sources);
  Result<RemoteAgent*> r =
      dep.add_remote_agent(host.server.endpoint().to_string());
  ASSERT_TRUE(r.ok()) << r.status().message();

  // The early agent answers exactly like a bare agent with the same plan:
  // one attempt per query and a breaker that trips at the fifth failure.
  FaultPlan plan(3);
  ChannelFaultSpec dead;
  dead.transient_p = 1.0;
  plan.set_element_faults(ElementId{"m0/el0"}, dead);
  Agent bare("early");
  auto sources = make_sources(1);
  ASSERT_TRUE(early->add_element(sources[0].get()).is_ok());
  ASSERT_TRUE(bare.add_element(sources[0].get()).is_ok());
  dep.set_fault_plan(&plan);
  bare.set_fault_plan(&plan);
  for (int t = 1; t <= 6; ++t) {
    const SimTime now = SimTime::millis(t);
    Result<QueryResponse> got = early->query(sources[0]->id(), now);
    Result<QueryResponse> want = bare.query(sources[0]->id(), now);
    ASSERT_EQ(got.ok(), want.ok());
    EXPECT_EQ(got.status().message(), want.status().message());
  }
  EXPECT_EQ(early->fault_stats().retries, 0u);
  EXPECT_EQ(early->fault_stats().breaker_opened, 1u);
  EXPECT_EQ(early->fault_stats().breaker_fast_fails,
            bare.fault_stats().breaker_fast_fails);
  EXPECT_EQ(early->breaker_state(ChannelKind::kProcFs),
            bare.breaker_state(ChannelKind::kProcFs));

  // The remote adapter dials once per loop and one failure leaves its
  // breaker closed.
  EXPECT_EQ(host.dials_after_outage(r.value()), 1u);
  EXPECT_EQ(r.value()->breaker_state(), BreakerState::kClosed);
}

// --- thread safety under faults (TSan target) -------------------------------

TEST(FaultChurnTest, ConcurrentPollsQueriesAndChurnUnderFaults) {
  auto sources = make_sources(16);
  FaultPlan plan = mixed_plan();
  Agent agent("a0");
  for (const auto& s : sources) {
    ASSERT_TRUE(agent.add_element(s.get()).is_ok());
  }
  agent.set_fault_plan(&plan);
  agent.set_retry_policy(lenient_retry());
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 4;
  agent.set_breaker_config(cfg);

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < 4; ++i) {
        (void)agent.remove_element(sources[i]->id());
        (void)agent.add_element(sources[i].get());
      }
    }
  });
  std::thread querier([&] {
    int t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)agent.query(sources[8]->id(), SimTime::millis(++t));
      (void)agent.fault_stats();
      (void)agent.breaker_state(ChannelKind::kProcFs);
    }
  });
  for (int round = 0; round < 200; ++round) {
    std::vector<QueryResponse> out =
        agent.query_batch(agent.element_ids(), SimTime::millis(round))
            .responses;
    EXPECT_GE(out.size(), 12u);
    EXPECT_LE(out.size(), 16u);
  }
  stop.store(true);
  churn.join();
  querier.join();
}

// --- campaign grammar properties ---------------------------------------------

// Two plans are schedule-equivalent when every observable the grammar can
// express agrees: seed, Bernoulli knobs (via decide()/stream_drop(), which
// are pure in their arguments), and agent_down() over a sampling grid that
// straddles every window boundary either plan could have scheduled.
void expect_schedule_equivalent(const FaultPlan& a, const FaultPlan& b) {
  EXPECT_EQ(a.seed(), b.seed());
  EXPECT_EQ(a.enabled(), b.enabled());
  EXPECT_EQ(a.has_campaign(), b.has_campaign());
  const std::vector<std::string> agents = {"a0", "a1", "a2", "a3", "a4",
                                           "b0", "b1", "zz"};
  for (const std::string& ag : agents) {
    for (int ms = 0; ms <= 2200; ms += 25) {
      SimTime t = SimTime::millis(ms);
      EXPECT_EQ(a.agent_down(ag, t), b.agent_down(ag, t))
          << ag << " @ " << ms << "ms";
    }
    for (uint64_t seq = 1; seq <= 64; ++seq) {
      EXPECT_EQ(a.stream_drop(ag, seq), b.stream_drop(ag, seq))
          << ag << " seq " << seq;
    }
  }
  const ElementId e{"grid/e"};
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    auto kind = static_cast<ChannelKind>(k);
    for (int ms = 1; ms <= 400; ms += 7) {
      for (uint32_t attempt = 0; attempt < 3; ++attempt) {
        FaultDecision da = a.decide(e, kind, SimTime::millis(ms), attempt);
        FaultDecision db = b.decide(e, kind, SimTime::millis(ms), attempt);
        EXPECT_EQ(static_cast<int>(da.kind), static_cast<int>(db.kind));
      }
    }
  }
}

// Malformed campaign items are rejected whole: the plan never gains a
// partial window, never crashes, and well-formed items sharing the spec
// string still apply.  Each entry here violates the grammar one way —
// missing separator, non-numeric time, empty name, inverted/empty window,
// zero count, trailing garbage.
TEST(CampaignGrammarTest, MalformedCampaignItemsRejectedWholeNeverApply) {
  const std::vector<std::string> malformed = {
      "outage=a1@300",        // no end time
      "outage=a1@300-",       // empty end time
      "outage=a1@-500",       // empty start time
      "outage=a1@x-500",      // non-numeric start
      "outage=a1@300-500x",   // trailing garbage on end
      "outage=a1@500-300",    // inverted window
      "outage=a1@300-300",    // empty window
      "outage=@300-500",      // empty agent name
      "outage=a1",            // no window at all
      "host=a1",              // no tag
      "host=a1:",             // empty tag
      "host=:rack0",          // empty agent name
      "host_outage=rack0@70-x",
      "host_outage=@100-200",
      "rolling=a*2@100",      // no +W
      "rolling=a*2@100+",     // empty W
      "rolling=a*2@100+0",    // zero-width step
      "rolling=a*0@100+50",   // zero agents
      "rolling=a*x@100+50",   // non-numeric count
      "rolling=*2@100+50",    // empty prefix
      "rolling=a2@100+50",    // no star
  };
  for (const std::string& bad : malformed) {
    std::optional<FaultPlan> alone = FaultPlan::parse(bad);
    ASSERT_TRUE(alone.has_value()) << bad;
    EXPECT_FALSE(alone->has_campaign()) << bad;
    for (int ms = 0; ms <= 1000; ms += 50) {
      EXPECT_FALSE(alone->agent_down("a1", SimTime::millis(ms))) << bad;
      EXPECT_FALSE(alone->agent_down("a0", SimTime::millis(ms))) << bad;
    }

    // A valid outage in the same string survives its malformed neighbor,
    // and the malformed item contributes nothing alongside it.
    std::optional<FaultPlan> mixed =
        FaultPlan::parse("seed=9," + bad + ",outage=ok@100-200");
    ASSERT_TRUE(mixed.has_value()) << bad;
    EXPECT_EQ(mixed->seed(), 9u) << bad;
    EXPECT_TRUE(mixed->agent_down("ok", SimTime::millis(150))) << bad;
    EXPECT_FALSE(mixed->agent_down("ok", SimTime::millis(250))) << bad;
    EXPECT_FALSE(mixed->agent_down("a1", SimTime::millis(350))) << bad;
    expect_schedule_equivalent(
        *mixed, *FaultPlan::parse("seed=9,outage=ok@100-200"));
  }
}

// Property: for any grammar-expressible plan, to_env_string() is a fixed
// point of the parse/serialize loop and the round-tripped plan schedules
// the identical campaign.  Rolling upgrades desugar to plain outages at
// schedule time, so they survive one extra hop: the generated spec's canon
// form spells them as outage= items, and that form is already fixed.
TEST(CampaignGrammarTest, GeneratedPlansRoundTripToFixedPoint) {
  Pcg32 rng(20260808);
  for (int trial = 0; trial < 120; ++trial) {
    std::string spec = "seed=" + std::to_string(rng.next_below(1000) + 1);
    auto prob = [&rng] {
      // Multiples of 1/64 round-trip exactly through decimal formatting.
      return std::to_string(rng.next_below(65) / 64.0);
    };
    if (rng.next_below(2) == 0) spec += ",transient=" + prob();
    if (rng.next_below(2) == 0) spec += ",timeout=" + prob();
    if (rng.next_below(2) == 0) spec += ",stale=" + prob();
    if (rng.next_below(2) == 0) spec += ",torn=" + prob();
    if (rng.next_below(2) == 0) spec += ",stream_drop=" + prob();
    const uint32_t n_outages = rng.next_below(3);
    for (uint32_t i = 0; i < n_outages; ++i) {
      const uint64_t t0 = rng.next_below(1000);
      const uint64_t t1 = t0 + 1 + rng.next_below(500);
      spec += ",outage=a" + std::to_string(rng.next_below(5)) + "@" +
              std::to_string(t0) + "-" + std::to_string(t1);
    }
    if (rng.next_below(3) == 0) {
      // Tag a couple of agents onto a host and take the host down.
      spec += ",host=a0:rack0,host=a1:rack0";
      const uint64_t t0 = rng.next_below(1000);
      spec += ",host_outage=rack0@" + std::to_string(t0) + "-" +
              std::to_string(t0 + 1 + rng.next_below(300));
    }
    if (rng.next_below(3) == 0) {
      const uint64_t t0 = rng.next_below(500);
      spec += ",rolling=b*" + std::to_string(1 + rng.next_below(3)) + "@" +
              std::to_string(t0) + "+" +
              std::to_string(1 + rng.next_below(200));
    }

    std::optional<FaultPlan> p1 = FaultPlan::parse(spec);
    ASSERT_TRUE(p1.has_value()) << spec;
    const std::string canon = p1->to_env_string();
    std::optional<FaultPlan> p2 = FaultPlan::parse(canon);
    ASSERT_TRUE(p2.has_value()) << spec;
    EXPECT_EQ(p2->to_env_string(), canon) << spec;
    expect_schedule_equivalent(*p1, *p2);
  }
}

}  // namespace
}  // namespace perfsight
