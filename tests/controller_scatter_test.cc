// Controller scatter-gather: every multi-element query path must produce
// byte-identical output whether each agent answers per id (the sequential
// reference, tests/per_id_reference.h), as per-agent batches merged inline,
// or fanned out over a thread pool of any size — with or without every
// batch round-tripped through the wire codec, and under a seeded fault
// plan.  Plus the one cost rule (a failed read bills its trips at any batch
// size), the cost-bookkeeping fix (mutex instead of torn atomics) and a
// TSan churn target for the shared pool.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/alert.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/faults.h"
#include "perfsight/monitor.h"
#include "perfsight/rootcause.h"
#include "perfsight/trace.h"
#include "perfsight/wire.h"
#include "per_id_reference.h"

namespace perfsight {
namespace {

// A scriptable element whose counters the rig moves as time advances.
class ScriptedSource : public StatsSource {
 public:
  ScriptedSource(std::string id, ChannelKind kind)
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

// Round-trips every batch through the length-prefixed wire codec (wire.h)
// before the controller merges it, exactly as a remote controller would
// receive it.  The codec is lossless, so output must be unchanged: the
// socket-ready framing preserves the byte-identical contract.
class WireLoopback : public AgentClient {
 public:
  explicit WireLoopback(AgentClient* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  bool has_element(const ElementId& id) const override {
    return inner_->has_element(id);
  }
  std::vector<ElementId> element_ids() const override {
    return inner_->element_ids();
  }
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool) override {
    Result<std::string> bytes =
        wire::encode_batch(inner_->query_batch(ids, now, pool));
    EXPECT_TRUE(bytes.ok());
    wire::DecodeStats st;
    Result<BatchResponse> decoded = wire::decode_batch(bytes.value(), &st);
    EXPECT_TRUE(decoded.ok() && st.complete());
    return std::move(decoded).take();
  }

 private:
  AgentClient* inner_;
};

// How the controller reaches each agent: directly, through a WireLoopback,
// or through the PerIdReference.
enum class Via { kDirect, kWireLoopback, kReference };

// A multi-agent cluster driven by a manual clock: `agents` machines, each
// hosting `per_agent` packet-path elements (Algorithm 1 food) plus one
// middlebox, the middleboxes chained across machines (Algorithm 2 food).
class ScatterRig {
 public:
  ScatterRig(size_t agents, size_t per_agent, Via via = Via::kDirect)
      : controller_([this](Duration d) { return advance(d); },
                    [this] { return now_; }) {
    const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                                 ChannelKind::kNetDeviceFile,
                                 ChannelKind::kOvsChannel};
    for (size_t a = 0; a < agents; ++a) {
      agents_.push_back(
          std::make_unique<Agent>("agent-" + std::to_string(a), a + 1));
      AgentClient* agent = agents_.back().get();
      if (via == Via::kWireLoopback) {
        wrappers_.push_back(std::make_unique<WireLoopback>(agent));
        agent = wrappers_.back().get();
      } else if (via == Via::kReference) {
        wrappers_.push_back(std::make_unique<PerIdReference>(agent));
        agent = wrappers_.back().get();
      }
      clients_.push_back(agent);
      controller_.register_agent(agent);
      for (size_t e = 0; e < per_agent; ++e) {
        const size_t i = a * per_agent + e;
        auto s = std::make_unique<ScriptedSource>(
            "a" + std::to_string(a) + "/el" + std::to_string(e),
            kinds[i % 4]);
        s->attrs = {{attr::kRxPkts, static_cast<double>(1000 * i)},
                    {attr::kTxPkts, static_cast<double>(900 * i)},
                    {attr::kDropPkts, static_cast<double>(10 * i)},
                    {attr::kTxBytes, static_cast<double>(150000 * (i + 1))},
                    {attr::kType,
                     static_cast<double>(static_cast<int>(ElementKind::kTun))},
                    {attr::kVm, static_cast<double>(i % 3)}};
        EXPECT_TRUE(agents_.back()->add_element(s.get()).is_ok());
        EXPECT_TRUE(
            controller_.register_element(tenant_, s->id(), agent).is_ok());
        controller_.register_stack_element(agent, s->id());
        elements_.push_back(s->id());
        sources_.push_back(std::move(s));
      }
      auto mb = std::make_unique<ScriptedSource>("mb" + std::to_string(a),
                                                 ChannelKind::kMbSocket);
      mb->attrs = {{attr::kInBytes, 0},
                   {attr::kInTimeNs, 0},
                   {attr::kOutBytes, 0},
                   {attr::kOutTimeNs, 0},
                   {attr::kCapacityMbps, 1000}};
      EXPECT_TRUE(agents_.back()->add_element(mb.get()).is_ok());
      EXPECT_TRUE(
          controller_.register_element(tenant_, mb->id(), agent).is_ok());
      controller_.register_middlebox(tenant_, mb->id());
      if (a > 0) {
        controller_.add_chain_edge(tenant_, mbs_.back()->id(), mb->id());
      }
      mbs_.push_back(mb.get());
      sources_.push_back(std::move(mb));
    }
    // One element both agent-1 and agent-2 serve: agent-1 is its primary,
    // agent-2 its read replica, so a failed primary read exercises the
    // quorum round of the merge.
    if (agents >= 3) {
      auto s = std::make_unique<ScriptedSource>("shared/el",
                                                ChannelKind::kProcFs);
      s->attrs = {{attr::kRxPkts, 4000}, {attr::kTxPkts, 3900},
                  {attr::kDropPkts, 7}, {attr::kTxBytes, 600000}};
      EXPECT_TRUE(agents_[1]->add_element(s.get()).is_ok());
      EXPECT_TRUE(agents_[2]->add_element(s.get()).is_ok());
      EXPECT_TRUE(
          controller_.register_element(tenant_, s->id(), clients_[1]).is_ok());
      EXPECT_TRUE(
          controller_.register_mirror(tenant_, s->id(), clients_[2]).is_ok());
      mirrored_ = s->id();
      sources_.push_back(std::move(s));
    }
  }

  SimTime advance(Duration d) {
    now_ = now_ + d;
    const double dt_sec = d.sec();
    size_t i = 0;
    for (auto& s : sources_) {
      for (Attr& a : s->attrs) {
        if (a.name == attr::kRxPkts) a.value += (1000 + i) * dt_sec;
        if (a.name == attr::kTxPkts) a.value += (900 + i) * dt_sec;
        if (a.name == attr::kDropPkts) a.value += (3 + i % 5) * dt_sec;
        if (a.name == attr::kTxBytes) a.value += 150000 * dt_sec;
      }
      ++i;
    }
    // Middlebox chain: mb0 moves at full capacity, later boxes slower and
    // slower — a classic overloaded-box signature for Algorithm 2.
    for (size_t m = 0; m < mbs_.size(); ++m) {
      const double mbps = 1000.0 / (m + 1);
      for (Attr& a : mbs_[m]->attrs) {
        if (a.name == attr::kInBytes || a.name == attr::kOutBytes) {
          a.value += mbps * 1e6 / 8 * dt_sec;
        }
        if (a.name == attr::kInTimeNs || a.name == attr::kOutTimeNs) {
          a.value += static_cast<double>(d.ns());
        }
      }
    }
    return now_;
  }

  void install_faults(const FaultPlan* plan, const RetryPolicy& retry,
                      const CircuitBreakerConfig& breaker = {}) {
    for (auto& a : agents_) {
      a->set_fault_plan(plan);
      a->set_retry_policy(retry);
      a->set_breaker_config(breaker);
    }
  }

  SimTime now_;
  Controller controller_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<std::unique_ptr<AgentClient>> wrappers_;
  std::vector<AgentClient*> clients_;  // what the controller dials, per agent
  std::vector<std::unique_ptr<ScriptedSource>> sources_;
  std::vector<ScriptedSource*> mbs_;
  std::vector<ElementId> elements_;  // packet-path elements, creation order
  std::optional<ElementId> mirrored_;  // the replicated element, 3+ agents
  const TenantId tenant_{1};
};

std::string fmt(const Result<Controller::QualifiedRecord>& r) {
  if (!r.ok()) {
    return "ERR(" + std::to_string(static_cast<int>(r.status().code())) +
           ") " + r.status().message() + "\n";
  }
  return "OK " + to_text(r.value().record) + " q=" +
         to_string(r.value().quality) + "\n";
}

template <typename T>
std::string fmt_val(const Result<T>& r, DataQuality q) {
  if (!r.ok()) {
    return "ERR(" + std::to_string(static_cast<int>(r.status().code())) +
           ") " + r.status().message() + "\n";
  }
  std::string v;
  if constexpr (std::is_same_v<T, DataRate>) {
    v = std::to_string(r.value().bits_per_sec());
  } else {
    v = std::to_string(r.value());
  }
  return "OK " + v + " q=" + to_string(q) + "\n";
}

// Runs the full diagnosis workload once and folds every output into one
// string: the run over a Via::kReference rig is the oracle the pooled /
// wire-looped runs must reproduce byte-for-byte.
std::string run_script(ScatterRig& rig, ThreadPool* pool) {
  Controller& c = rig.controller_;
  c.set_pool(pool);

  std::string out;

  // GetAttr fan-in over every tenant element, plus an id no agent serves.
  std::vector<ElementId> ids = c.elements_of(rig.tenant_);
  ids.push_back(ElementId{"ghost"});
  for (const auto& r : c.get_attr_many(
           rig.tenant_, ids,
           {attr::kRxPkts, attr::kTxPkts, attr::kDropPkts, attr::kType,
            attr::kVm})) {
    out += fmt(r);
  }

  // The same fan-in shuffled, with repeats: duplicate slots of one id (the
  // mirrored element and the unserved id among them) must each get the
  // answer the per-id reference gives.
  std::vector<ElementId> mixed = ids;
  for (size_t i = 0; i < ids.size(); i += 3) mixed.push_back(ids[i]);
  if (rig.mirrored_) {
    mixed.push_back(*rig.mirrored_);
    mixed.push_back(*rig.mirrored_);
  }
  mixed.push_back(ElementId{"ghost"});
  uint64_t lcg = 12345;
  for (size_t i = mixed.size(); i > 1; --i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(mixed[i - 1], mixed[(lcg >> 33) % i]);
  }
  for (const auto& r : c.get_attr_many(rig.tenant_, mixed,
                                       {attr::kDropPkts, attr::kRxPkts})) {
    out += fmt(r);
  }

  // Single-element path (also exercises the shared cost accounting).
  out += fmt(c.get_attr_q(rig.tenant_, rig.elements_.front(),
                          {attr::kRxPkts, attr::kTxPkts}));

  // Interval fan-ins: one shared window advance per utility.
  const std::vector<ElementId>& els = rig.elements_;
  std::vector<DataQuality> q;
  std::vector<Result<DataRate>> thr =
      c.get_throughput_many(rig.tenant_, els, Duration::millis(100), &q);
  for (size_t i = 0; i < thr.size(); ++i) out += fmt_val(thr[i], q[i]);
  std::vector<Result<int64_t>> loss =
      c.get_pkt_loss_many(rig.tenant_, els, Duration::millis(100), &q);
  for (size_t i = 0; i < loss.size(); ++i) out += fmt_val(loss[i], q[i]);
  std::vector<Result<double>> aps =
      c.get_avg_pkt_size_many(rig.tenant_, els, Duration::millis(100), &q);
  for (size_t i = 0; i < aps.size(); ++i) out += fmt_val(aps[i], q[i]);

  // Algorithm 1 over the stack scan set.
  ContentionDetector det(&c, RuleBook::standard());
  out += to_text(det.diagnose(rig.tenant_, Duration::millis(100)));

  // Algorithm 2 over the middlebox chain.
  RootCauseAnalyzer rca(&c);
  out += to_text(rca.analyze(rig.tenant_, Duration::millis(100)));

  // Alert-driven diagnosis: sample the monitor, then evaluate rules
  // (firings run Algorithm 1/2 via the batch path).
  Monitor mon(&c, rig.tenant_);
  mon.watch(rig.elements_.front(), attr::kDropPkts);
  mon.watch(rig.mbs_.front()->id(), attr::kInBytes);
  AlertWatcher watcher(&mon, &det, &rca);
  watcher.add_rule({"drops-any", rig.elements_.front(), attr::kDropPkts,
                    /*on_rate=*/false, /*threshold=*/1.0,
                    AlertRule::Action::kContention, Duration::millis(50),
                    Duration::seconds(1)});
  watcher.add_rule({"mb-busy", rig.mbs_.front()->id(), attr::kInBytes,
                    /*on_rate=*/false, /*threshold=*/1.0,
                    AlertRule::Action::kRootCause, Duration::millis(50),
                    Duration::seconds(1)});
  mon.sample();
  for (const Alert& a : watcher.check()) out += to_text(a);

  return out;
}

TEST(ScatterDifferentialTest, PooledPathsMatchSequentialOracle) {
  ScatterRig oracle_rig(4, 4, Via::kReference);
  const std::string oracle = run_script(oracle_rig, nullptr);
  ASSERT_NE(oracle.find("=== Algorithm 1"), std::string::npos);
  ASSERT_NE(oracle.find("=== Algorithm 2"), std::string::npos);
  ASSERT_NE(oracle.find("ALERT ["), std::string::npos);
  ASSERT_NE(oracle.find("ERR(1) no agent serves element ghost"),
            std::string::npos);

  // Batched but inline (no pool).
  {
    ScatterRig rig(4, 4);
    EXPECT_EQ(run_script(rig, nullptr), oracle);
  }
  // Batched over pools of 1, 2 and 8 workers.
  for (size_t workers : {1u, 2u, 8u}) {
    ScatterRig rig(4, 4);
    ThreadPool pool(workers);
    EXPECT_EQ(run_script(rig, &pool), oracle)
        << "divergence at pool size " << workers;
  }
}

TEST(ScatterDifferentialTest, WireLoopbackIsTransparent) {
  ScatterRig plain_rig(3, 3);
  ThreadPool plain_pool(4);
  const std::string plain = run_script(plain_rig, &plain_pool);

  ScatterRig looped_rig(3, 3, Via::kWireLoopback);
  ThreadPool looped_pool(4);
  EXPECT_EQ(run_script(looped_rig, &looped_pool), plain);
}

TEST(ScatterDifferentialTest, FaultPlanPreservesDifferential) {
  // Unbounded element budget: with a budget, backoff jitter (an RNG draw
  // whose order differs between the paths) could flip an element's success
  // into a deadline failure.  Everything else about an outcome is a pure
  // function of (seed, element, kind, time, attempt).
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.attempt_timeout = Duration::millis(1);

  auto make_plan = [] {
    FaultPlan plan(99);
    ChannelFaultSpec spec;
    spec.transient_p = 0.10;
    spec.timeout_p = 0.05;
    spec.stale_p = 0.10;
    spec.torn_p = 0.10;
    for (size_t k = 0; k < kNumChannelKinds; ++k) {
      plan.set_channel_faults(static_cast<ChannelKind>(k), spec);
    }
    plan.set_timeout_spike(Duration::millis(5));
    plan.schedule_crash("agent-1", SimTime::millis(150));
    return plan;
  };

  ScatterRig oracle_rig(4, 4, Via::kReference);
  FaultPlan oracle_plan = make_plan();
  oracle_rig.install_faults(&oracle_plan, retry);
  const std::string oracle = run_script(oracle_rig, nullptr);
  // The plan must actually bite for the differential to mean anything.
  ASSERT_TRUE(oracle.find("q=stale") != std::string::npos ||
              oracle.find("q=torn") != std::string::npos ||
              oracle.find("ERR(3)") != std::string::npos ||
              oracle.find("ERR(5)") != std::string::npos)
      << "fault plan produced no degradation; differential is vacuous";

  for (size_t workers : {1u, 2u, 8u}) {
    ScatterRig rig(4, 4);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry);
    ThreadPool pool(workers);
    EXPECT_EQ(run_script(rig, &pool), oracle)
        << "fault differential divergence at pool size " << workers;
  }
  // And with the wire loopback on top.
  {
    ScatterRig rig(4, 4, Via::kWireLoopback);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry);
    ThreadPool pool(4);
    EXPECT_EQ(run_script(rig, &pool), oracle);
  }
}

// The quorum round under the run-length merge: agent-1 is down while the
// opening fan-ins run, so every repeat of its mirrored element must come
// back from the replica, exactly as it does over the per-id reference.  Breakers stay closed: how a breaker counts failures differs
// between one trip per element and one per kind, and this test is about
// the merge.
TEST(ScatterDifferentialTest, MirrorRoundMatchesSequentialOracle) {
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.attempt_timeout = Duration::millis(1);
  CircuitBreakerConfig no_breakers;
  no_breakers.failure_threshold = 1u << 30;
  auto make_plan = [] {
    FaultPlan plan(7);
    plan.schedule_outage("agent-1", SimTime(), SimTime::millis(1));
    return plan;
  };

  ScatterRig oracle_rig(4, 4, Via::kReference);
  FaultPlan oracle_plan = make_plan();
  oracle_rig.install_faults(&oracle_plan, retry, no_breakers);
  const std::string oracle = run_script(oracle_rig, nullptr);
  ASSERT_NE(oracle.find("OK <0, shared/el, (dropPkts, 7), (rxPkts, 4000)> "
                        "q=replica"),
            std::string::npos)
      << "the mirror round never ran; its differential is vacuous";

  for (size_t workers : {0u, 1u, 2u, 8u}) {
    ScatterRig rig(4, 4);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry, no_breakers);
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    EXPECT_EQ(run_script(rig, pool.get()), oracle)
        << "mirror differential divergence at pool size " << workers;
  }
  {
    ScatterRig rig(4, 4, Via::kWireLoopback);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry, no_breakers);
    EXPECT_EQ(run_script(rig, nullptr), oracle);
  }
}

TEST(ScatterObservabilityTest, ScatterEmitsTraceEventsAndMetrics) {
  ScopedTraceRecorder scoped;
  ScatterRig rig(2, 3);
  MetricsRegistry reg;
  rig.controller_.set_metrics(&reg);
  ThreadPool pool(2);
  rig.controller_.set_pool(&pool);

  std::vector<ElementId> ids = rig.controller_.elements_of(rig.tenant_);
  auto got = rig.controller_.get_attr_many(rig.tenant_, ids,
                                           {attr::kRxPkts});
  ASSERT_EQ(got.size(), ids.size());

  size_t scatters = 0, gathers = 0;
  for (const TraceEvent& e :
       scoped.recorder().events_for(ElementId{"controller"})) {
    if (e.kind == TraceEventKind::kControllerScatter) {
      ++scatters;
      EXPECT_EQ(e.value, static_cast<double>(ids.size()));
    }
    if (e.kind == TraceEventKind::kControllerGather) {
      ++gathers;
      EXPECT_EQ(e.value, static_cast<double>(ids.size()));
    }
  }
  EXPECT_EQ(scatters, 1u);
  EXPECT_EQ(gathers, 1u);
  EXPECT_STREQ(to_string(TraceEventKind::kControllerScatter),
               "controller_scatter");
  EXPECT_STREQ(to_string(TraceEventKind::kControllerGather),
               "controller_gather");

  std::string exposed = reg.expose(rig.now_);
  EXPECT_NE(exposed.find("perfsight_controller_batch_scatters_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_controller_batch_agents_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_controller_batch_channel_seconds"),
            std::string::npos);
  EXPECT_NE(exposed.find("path=\"batch\""), std::string::npos);
}

TEST(ScatterCostTest, BatchingAmortizesChannelTimeWithoutChangingResults) {
  ScatterRig seq_rig(4, 6), bat_rig(4, 6);
  std::vector<ElementId> ids =
      seq_rig.controller_.elements_of(seq_rig.tenant_);

  auto bat = bat_rig.controller_.get_attr_many(bat_rig.tenant_, ids,
                                               {attr::kRxPkts});
  ASSERT_EQ(bat.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto seq = seq_rig.controller_.get_attr_q(seq_rig.tenant_, ids[i],
                                              {attr::kRxPkts});
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(bat[i].ok());
    EXPECT_EQ(to_text(seq.value().record), to_text(bat[i].value().record));
  }

  // Identical query tallies, strictly cheaper channel bill: the batch pays
  // one round trip per channel kind per agent, the per-id loop one per
  // element.
  Controller::CostSnapshot sc = seq_rig.controller_.cost();
  Controller::CostSnapshot bc = bat_rig.controller_.cost();
  EXPECT_EQ(sc.queries, ids.size());
  EXPECT_EQ(bc.queries, ids.size());
  EXPECT_LT(bc.channel_time.ns(), sc.channel_time.ns());
  EXPECT_GT(bc.channel_time.ns(), 0);
  // Accessors read through the same snapshot.
  EXPECT_EQ(bat_rig.controller_.queries_issued(), bc.queries);
  EXPECT_EQ(bat_rig.controller_.channel_time().ns(), bc.channel_time.ns());
}

// One read path, one cost rule: a failed single-element read bills the
// channel time its trips spent, exactly as a failed slot of a multi-element
// scatter does, and counts no query.
TEST(ScatterOnePathTest, FailedSingleReadBillsItsChannelTime) {
  RetryPolicy retry;
  retry.max_attempts = 2;
  auto make_plan = [] {
    FaultPlan plan(3);
    ChannelFaultSpec dead;
    dead.transient_p = 1.0;
    plan.set_element_faults(ElementId{"a0/el1"}, dead);
    return plan;
  };
  const ElementId bad{"a0/el1"};

  ScatterRig single_rig(2, 3);
  FaultPlan single_plan = make_plan();
  single_rig.install_faults(&single_plan, retry);
  auto single = single_rig.controller_.get_attr_q(single_rig.tenant_, bad,
                                                  {attr::kRxPkts});
  ASSERT_FALSE(single.ok());
  EXPECT_NE(single.status().message().find("unavailable after 2 attempt(s)"),
            std::string::npos)
      << single.status().message();
  const Controller::CostSnapshot sc = single_rig.controller_.cost();
  EXPECT_EQ(sc.queries, 0u);
  EXPECT_GT(sc.channel_time.ns(), 0);

  // The same failure as one slot of a two-id scatter (the other id is
  // served by no agent and costs nothing) bills the same time.
  ScatterRig multi_rig(2, 3);
  FaultPlan multi_plan = make_plan();
  multi_rig.install_faults(&multi_plan, retry);
  auto multi = multi_rig.controller_.get_attr_many(
      multi_rig.tenant_, {bad, ElementId{"ghost"}}, {attr::kRxPkts});
  ASSERT_EQ(multi.size(), 2u);
  ASSERT_FALSE(multi[0].ok());
  EXPECT_EQ(multi[0].status().message(), single.status().message());
  const Controller::CostSnapshot mc = multi_rig.controller_.cost();
  EXPECT_EQ(mc.queries, 0u);
  EXPECT_EQ(sc.channel_time.ns(), mc.channel_time.ns());
}

// An empty read is free: no answer, no trace event, no metric, no window.
TEST(ScatterOnePathTest, EmptyReadIsFree) {
  ScopedTraceRecorder scoped;
  ScatterRig rig(2, 3);
  MetricsRegistry reg;
  rig.controller_.set_metrics(&reg);
  Controller& c = rig.controller_;
  const SimTime t0 = rig.now_;

  EXPECT_TRUE(c.get_attr_many(rig.tenant_, {}, {attr::kRxPkts}).empty());
  std::vector<DataQuality> q{DataQuality::kFresh};
  EXPECT_TRUE(
      c.get_throughput_many(rig.tenant_, {}, Duration::millis(100), &q)
          .empty());
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(c.sample_window(rig.tenant_, {}, kLossAttrs,
                              Duration::millis(100))
                  .empty());

  EXPECT_EQ(rig.now_.ns(), t0.ns());  // no window waited out
  EXPECT_TRUE(scoped.recorder().events_for(ElementId{"controller"}).empty());
  const Controller::CostSnapshot cost = c.cost();
  EXPECT_EQ(cost.queries, 0u);
  EXPECT_EQ(cost.channel_time.ns(), 0);
  EXPECT_EQ(reg.counter("perfsight_controller_batch_scatters_total", "").value,
            0u);
  EXPECT_EQ(reg.counter("perfsight_controller_batch_agents_total", "").value,
            0u);
  EXPECT_EQ(reg.counter("perfsight_controller_queries_total", "",
                        "path=\"batch\"")
                .value,
            0u);
  EXPECT_EQ(reg.histogram("perfsight_controller_batch_channel_seconds", "")
                .count(),
            0u);
}

// TSan target: concurrent get_attr_q / get_attr_many callers racing agent
// poll sweeps over one shared pool, with an AlertWatcher evaluating on the
// main thread — the cost bookkeeping (a const-method mutation) must be
// properly synchronized, not sneaked through a const hole.
TEST(ScatterChurnTest, ConcurrentScatterPollAndAlertEvaluation) {
  std::atomic<int64_t> clock_ns{0};
  Controller controller(
      [&clock_ns](Duration d) {
        return SimTime::nanos(clock_ns.fetch_add(d.ns()) + d.ns());
      },
      [&clock_ns] { return SimTime::nanos(clock_ns.load()); });

  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<ScriptedSource>> sources;
  std::vector<ElementId> ids;
  const TenantId tenant{1};
  for (size_t a = 0; a < 3; ++a) {
    agents.push_back(std::make_unique<Agent>("agent-" + std::to_string(a)));
    controller.register_agent(agents.back().get());
    for (size_t e = 0; e < 4; ++e) {
      auto s = std::make_unique<ScriptedSource>(
          "a" + std::to_string(a) + "/el" + std::to_string(e),
          e % 2 == 0 ? ChannelKind::kProcFs : ChannelKind::kMbSocket);
      s->attrs = {{attr::kRxPkts, 100.0 * e}, {attr::kDropPkts, 5.0 * e}};
      ASSERT_TRUE(agents.back()->add_element(s.get()).is_ok());
      ASSERT_TRUE(
          controller.register_element(tenant, s->id(), agents.back().get())
              .is_ok());
      ids.push_back(s->id());
      sources.push_back(std::move(s));
    }
  }

  ThreadPool pool(4);
  controller.set_pool(&pool);
  MetricsRegistry reg;
  controller.set_metrics(&reg);

  Monitor mon(&controller, tenant);
  mon.watch(ids.front(), attr::kDropPkts);
  ContentionDetector det(&controller, RuleBook::standard());
  AlertWatcher watcher(&mon, &det, nullptr);
  // Action kNone: rule evaluation must not advance time (this test never
  // mutates the sources, so there is no cross-thread write to them).
  watcher.add_rule({"drops", ids.front(), attr::kDropPkts, /*on_rate=*/false,
                    /*threshold=*/0.0, AlertRule::Action::kNone,
                    Duration::millis(1), Duration::nanos(1)});

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto got = controller.get_attr_many(tenant, ids, {attr::kRxPkts});
      EXPECT_EQ(got.size(), ids.size());
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)controller.get_attr_q(tenant, ids.back(), {attr::kDropPkts});
      (void)controller.cost();
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& a : agents) {
        (void)a->query_batch(a->element_ids(),
                             SimTime::nanos(clock_ns.load()));
      }
    }
  });

  for (int round = 0; round < 50; ++round) {
    clock_ns.fetch_add(Duration::millis(1).ns());
    mon.sample();
    (void)watcher.check();
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  Controller::CostSnapshot cost = controller.cost();
  EXPECT_GT(cost.queries, 0u);
  EXPECT_GT(cost.channel_time.ns(), 0);
  EXPECT_FALSE(watcher.history().empty());
}

}  // namespace
}  // namespace perfsight
