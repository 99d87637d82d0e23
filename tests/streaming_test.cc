// Push-mode streaming telemetry: the streamed-vs-sweep fidelity gate.
//
// The contract under test (streaming.h): a diagnosis stack fed from the
// materialized stream cache produces output BYTE-IDENTICAL to the same
// stack running pull sweeps against the live agents — same Algorithm 1/2
// rankings, same blind-spot/coverage annotations, same alert firings —
// clean, under a fault campaign with scheduled outages, with stream frames
// dropped in transit (gap → targeted pull repair), and at pool sizes 1 and
// 4.  The differential runs the same seeded scenario through twin worlds
// sharing the same pure time-keyed sources, concatenates every report into
// one transcript per world, and string-compares the transcripts.
//
// Also here: the StreamCache gap state machine (gap → repair → re-apply,
// publisher-restart rebase), its size gauges, a writer applying, repairing
// and pruning windows against a concurrent batched reader, the remote
// kSubscribe/kStreamData path end to end (snapshot-first, injected skip →
// client-visible gap, reconnect, a late subscriber sharing the delta
// bodies, elements joining and leaving), the zero-bytes-when-unsubscribed
// guarantee, a TSan churn variant racing
// subscriber reconnects against publish ticks, and a frozen stream chain
// (encoded bodies and the windows the cache serves from them) compared
// against tests/golden/stream_chain.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "perfsight/agent.h"
#include "perfsight/alert.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/faults.h"
#include "perfsight/metrics.h"
#include "perfsight/monitor.h"
#include "perfsight/remote_agent.h"
#include "perfsight/rootcause.h"
#include "perfsight/rulebook.h"
#include "perfsight/streaming.h"
#include "perfsight/transport.h"
#include "perfsight/wire.h"
#include "per_id_reference.h"

namespace perfsight {
namespace {

constexpr TenantId kTenant{1};
const Duration kWindow = Duration::millis(100);

// A source whose attrs are a pure function of the query time.  Both worlds
// of a differential share the same FnSource objects: there is no state to
// mutate, so a capture at boundary t, a pull sweep at t, and a repair pull
// replaying t all read identical bits — from any thread.
class FnSource : public StatsSource {
 public:
  using Fn = std::function<std::vector<Attr>(SimTime)>;
  FnSource(std::string id, ChannelKind kind, Fn fn)
      : id_{std::move(id)}, kind_(kind), fn_(std::move(fn)) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = fn_(now);
    return r;
  }

 private:
  ElementId id_;
  ChannelKind kind_;
  Fn fn_;
};

// Windows elapsed at t (fractional).
double win(SimTime t) {
  return static_cast<double>(t.ns()) / static_cast<double>(kWindow.ns());
}

// Two machines.  m0's pNIC leaks 800 pkts per window (Algorithm 1 finds a
// shared-kind contention); m1 is healthy.  m0 also hosts a two-middlebox
// chain for Algorithm 2.  m1/pnic is mirrored onto a0, so an outage of a1
// exercises the quorum path while a1's TUNs become blind spots.
std::vector<std::unique_ptr<FnSource>> make_scenario() {
  auto counter = [](double per_window) {
    return [per_window](SimTime t) { return per_window * win(t); };
  };
  auto c = counter;  // brevity below
  std::vector<std::unique_ptr<FnSource>> out;
  auto add = [&](std::string name, ChannelKind kind,
                 std::vector<std::pair<std::string,
                                       std::function<double(SimTime)>>> fns) {
    out.push_back(std::make_unique<FnSource>(
        std::move(name), kind, [fns = std::move(fns)](SimTime t) {
          std::vector<Attr> attrs;
          attrs.reserve(fns.size());
          for (const auto& [k, f] : fns) attrs.push_back({k, f(t)});
          return attrs;
        }));
  };
  auto gauge = [](double v) { return [v](SimTime) { return v; }; };
  const double kPNicKind = static_cast<double>(ElementKind::kPNic);
  const double kTunKind = static_cast<double>(ElementKind::kTun);
  const double kMbKind = static_cast<double>(ElementKind::kMiddleboxApp);

  add("m0/pnic", ChannelKind::kNetDeviceFile,
      {{attr::kRxPkts, c(12000)}, {attr::kTxPkts, c(11200)},
       {attr::kDropPkts, c(800)}, {attr::kType, gauge(kPNicKind)},
       {attr::kVm, gauge(-1)}});
  add("m1/pnic", ChannelKind::kNetDeviceFile,
      {{attr::kRxPkts, c(9000)}, {attr::kTxPkts, c(9000)},
       {attr::kDropPkts, c(0)}, {attr::kType, gauge(kPNicKind)},
       {attr::kVm, gauge(-1)}});
  add("m0/vm0/tun", ChannelKind::kProcFs,
      {{attr::kRxPkts, c(6000)}, {attr::kTxPkts, c(6000)},
       {attr::kType, gauge(kTunKind)}, {attr::kVm, gauge(0)}});
  add("m0/vm1/tun", ChannelKind::kProcFs,
      {{attr::kRxPkts, c(5000)}, {attr::kTxPkts, c(5000)},
       {attr::kType, gauge(kTunKind)}, {attr::kVm, gauge(1)}});
  add("m1/vm0/tun", ChannelKind::kProcFs,
      {{attr::kRxPkts, c(4000)}, {attr::kTxPkts, c(4000)},
       {attr::kType, gauge(kTunKind)}, {attr::kVm, gauge(0)}});
  add("m1/vm1/tun", ChannelKind::kProcFs,
      {{attr::kRxPkts, c(3000)}, {attr::kTxPkts, c(3000)},
       {attr::kType, gauge(kTunKind)}, {attr::kVm, gauge(1)}});
  // mb0: input arrives faster than it drains (ReadBlocked side signal);
  // mb1 keeps up.  Capacity is a gauge.
  add("m0/mb0", ChannelKind::kMbSocket,
      {{attr::kInBytes, c(8e6)}, {attr::kInTimeNs, c(9e7)},
       {attr::kOutBytes, c(8e6)}, {attr::kOutTimeNs, c(9.5e7)},
       {attr::kCapacityMbps, gauge(1000)}, {attr::kType, gauge(kMbKind)},
       {attr::kVm, gauge(-1)}});
  add("m0/mb1", ChannelKind::kMbSocket,
      {{attr::kInBytes, c(8e6)}, {attr::kInTimeNs, c(6.3e7)},
       {attr::kOutBytes, c(8e6)}, {attr::kOutTimeNs, c(6.3e7)},
       {attr::kCapacityMbps, gauge(1000)}, {attr::kType, gauge(kMbKind)},
       {attr::kVm, gauge(-1)}});
  return out;
}

bool starts_with(const std::string& s, const std::string& p) {
  return s.rfind(p, 0) == 0;
}

// Exact (bit-level) attr equality: fidelity means identical doubles, not
// merely close ones.
void expect_attrs_eq(const std::vector<Attr>& got, const std::vector<Attr>& want,
                     const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name) << ctx;
    EXPECT_EQ(got[i].value, want[i].value) << ctx << " attr " << got[i].name;
  }
}

RetryPolicy lenient_retry() {
  RetryPolicy p;
  p.max_attempts = 2;
  return p;
}

CircuitBreakerConfig no_breakers() {
  return CircuitBreakerConfig{1u << 30, Duration::millis(20)};
}

// One world: a controller + two agents over the shared scenario sources.
// In streamed mode the controller talks to StreamCacheAgents fed by a
// StreamPipeline; in pull mode it talks to the live agents directly.
class Rig {
 public:
  Rig(const std::vector<std::unique_ptr<FnSource>>& sources,
      const FaultPlan* plan, bool streamed, ThreadPool* pool)
      : streamed_(streamed) {
    a0_ = std::make_unique<Agent>("a0", 11);
    a1_ = std::make_unique<Agent>("a1", 12);
    for (const auto& s : sources) {
      Agent* owner = starts_with(s->id().name, "m0/") ? a0_.get() : a1_.get();
      EXPECT_TRUE(owner->add_element(s.get()).is_ok());
      // a0 doubles as the read replica for m1/pnic.
      if (s->id().name == "m1/pnic") {
        EXPECT_TRUE(a0_->add_element(s.get()).is_ok());
      }
    }
    for (Agent* a : {a0_.get(), a1_.get()}) {
      a->set_fault_plan(plan);
      a->set_retry_policy(lenient_retry());
      a->set_breaker_config(no_breakers());
    }

    AgentClient* c0 = a0_.get();
    AgentClient* c1 = a1_.get();
    if (streamed_) {
      pipe_ = std::make_unique<StreamPipeline>(&cache_, plan);
      pipe_->add_agent(a0_.get());
      pipe_->add_agent(a1_.get());
      ca0_ = std::make_unique<StreamCacheAgent>(&cache_, *a0_);
      ca1_ = std::make_unique<StreamCacheAgent>(&cache_, *a1_);
      c0 = ca0_.get();
      c1 = ca1_.get();
    }

    ctl_ = std::make_unique<Controller>(
        [this](Duration d) {
          now_ = now_ + d;
          return now_;
        },
        [this] { return now_; });
    ctl_->register_agent(c0);
    ctl_->register_agent(c1);
    for (const auto& s : sources) {
      AgentClient* owner = starts_with(s->id().name, "m0/") ? c0 : c1;
      EXPECT_TRUE(ctl_->register_element(kTenant, s->id(), owner).is_ok());
      const bool stack = s->id().name.find("pnic") != std::string::npos ||
                         s->id().name.find("tun") != std::string::npos;
      if (stack) ctl_->register_stack_element(owner, s->id());
    }
    EXPECT_TRUE(ctl_->register_mirror(kTenant, ElementId{"m1/pnic"}, c0).is_ok());
    ctl_->register_middlebox(kTenant, ElementId{"m0/mb0"});
    ctl_->register_middlebox(kTenant, ElementId{"m0/mb1"});
    ctl_->add_chain_edge(kTenant, ElementId{"m0/mb0"}, ElementId{"m0/mb1"});
    ctl_->set_pool(pool);
  }

  Controller& ctl() { return *ctl_; }
  void set_now(SimTime t) { now_ = t; }
  void pump(SimTime at) {
    ASSERT_TRUE(streamed_);
    Status st = pipe_->pump(at);
    EXPECT_TRUE(st.is_ok()) << st.message();
  }
  const StreamCache& cache() const { return cache_; }
  StreamPipeline* pipe() { return pipe_.get(); }

 private:
  bool streamed_;
  SimTime now_;
  std::unique_ptr<Agent> a0_, a1_;
  StreamCache cache_;
  std::unique_ptr<StreamPipeline> pipe_;
  std::unique_ptr<StreamCacheAgent> ca0_, ca1_;
  std::unique_ptr<Controller> ctl_;
};

// The identical diagnosis script both worlds run: per boundary k the
// streamed world pumps the window at kW first, then BOTH worlds replay
// diagnosis for the window [(k-1)W, kW] — one window behind the stream, so
// every sweep instant the detectors touch is already materialized.
std::string run_script(Rig& rig, bool streamed) {
  ContentionDetector det(&rig.ctl(), RuleBook::standard());
  det.set_loss_threshold(10);
  RootCauseAnalyzer rca(&rig.ctl());
  Monitor mon(&rig.ctl(), kTenant);
  mon.watch(ElementId{"m0/pnic"}, attr::kDropPkts);
  mon.watch(ElementId{"m1/pnic"}, attr::kRxPkts);
  mon.watch(ElementId{"m0/mb0"}, attr::kInBytes);
  AlertWatcher watcher(&mon, &det, &rca);
  AlertRule drops;
  drops.name = "pnic-drops";
  drops.element = ElementId{"m0/pnic"};
  drops.attr = attr::kDropPkts;
  drops.on_rate = true;
  drops.threshold = 5000;  // scenario leaks 8000 pkts/s
  drops.action = AlertRule::Action::kContention;
  drops.window = kWindow;
  drops.cooldown = Duration::millis(250);
  watcher.add_rule(drops);
  AlertRule inflow;
  inflow.name = "mb-inflow";
  inflow.element = ElementId{"m0/mb0"};
  inflow.attr = attr::kInBytes;
  inflow.on_rate = true;
  inflow.threshold = 1e7;  // scenario flows 8e7 B/s through mb0
  inflow.action = AlertRule::Action::kRootCause;
  inflow.window = kWindow;
  inflow.cooldown = Duration::millis(350);
  watcher.add_rule(inflow);

  // Diagnosis replays TWO windows behind the stream's live edge: each
  // alert-triggered diagnosis advances the clock by one window, and both
  // rules can fire in the same check(), so a cascade starting at (k-2)W
  // reaches at most kW — exactly the boundary just pumped.  The replay lag
  // must cover the furthest instant the diagnosis chain itself can touch.
  if (streamed) {
    rig.pump(SimTime{});
    rig.pump(SimTime::millis(100));
  }
  std::string out;
  for (int k = 2; k <= 11; ++k) {
    const SimTime tk = SimTime::millis(100 * k);
    const SimTime tlo = SimTime::millis(100 * (k - 2));
    if (streamed) rig.pump(tk);
    out += "== window " + std::to_string(k - 1) + " ==\n";
    rig.set_now(tlo);
    out += to_text(det.diagnose(kTenant, kWindow));
    rig.set_now(tlo);
    out += to_text(rca.analyze(kTenant, kWindow));
    rig.set_now(tlo);
    mon.sample();
    for (const Alert& a : watcher.check()) out += to_text(a);
  }
  return out;
}

struct WorldRun {
  std::string transcript;
  StreamCache::Stats stream_stats;
  uint64_t frames_dropped = 0;
};

WorldRun run_world(const std::string& plan_spec, bool streamed,
                   size_t pool_size) {
  std::optional<FaultPlan> plan;
  if (!plan_spec.empty()) {
    plan = FaultPlan::parse(plan_spec);
    EXPECT_TRUE(plan.has_value()) << "unparseable plan: " << plan_spec;
  }
  auto sources = make_scenario();
  ThreadPool pool(pool_size);
  Rig rig(sources, plan ? &*plan : nullptr, streamed, &pool);
  WorldRun r;
  r.transcript = run_script(rig, streamed);
  if (streamed) {
    r.stream_stats = rig.cache().stats();
    r.frames_dropped = rig.pipe()->frames_dropped();
  }
  return r;
}

// --- the fidelity gate -------------------------------------------------------

TEST(StreamingDifferentialTest, CleanScenarioByteIdentical) {
  const WorldRun pull1 = run_world("seed=11", /*streamed=*/false, 1);
  ASSERT_FALSE(pull1.transcript.empty());
  // The healthy scenario must actually diagnose something, or the gate
  // proves nothing.
  EXPECT_NE(pull1.transcript.find("CONTENTION"), std::string::npos);
  EXPECT_NE(pull1.transcript.find("pnic-drops"), std::string::npos);
  for (size_t pool_size : {size_t{1}, size_t{4}}) {
    const WorldRun pull = run_world("seed=11", false, pool_size);
    const WorldRun stream = run_world("seed=11", true, pool_size);
    EXPECT_EQ(pull1.transcript, pull.transcript) << "pool=" << pool_size;
    EXPECT_EQ(pull.transcript, stream.transcript) << "pool=" << pool_size;
  }
}

TEST(StreamingDifferentialTest, FaultCampaignByteIdentical) {
  // Channel faults + dropped stream frames + a scheduled outage of a1
  // covering window boundaries 300/400ms.  The campaign grammar string is
  // the plan: both worlds parse the same spec.
  const std::string spec =
      "seed=11,transient=0.08,timeout=0.05,torn=0.05,stream_drop=0.3,"
      "outage=a1@300-500";
  const WorldRun pull1 = run_world(spec, false, 1);
  // The campaign must actually bite: a1's unmirrored TUNs go dark, so the
  // reports carry blind-spot/coverage annotations.
  EXPECT_NE(pull1.transcript.find("blind spots"), std::string::npos);
  EXPECT_NE(pull1.transcript.find("missing"), std::string::npos);
  for (size_t pool_size : {size_t{1}, size_t{4}}) {
    const WorldRun pull = run_world(spec, false, pool_size);
    const WorldRun stream = run_world(spec, true, pool_size);
    EXPECT_EQ(pull1.transcript, pull.transcript) << "pool=" << pool_size;
    EXPECT_EQ(pull.transcript, stream.transcript) << "pool=" << pool_size;
    // With stream_drop=0.3 over 22 frames, some frames must be lost and
    // repaired by targeted pulls — the fidelity holds THROUGH the repair
    // path, not because no frame ever dropped.
    EXPECT_GT(stream.frames_dropped, 0u);
    EXPECT_EQ(stream.stream_stats.repairs, stream.frames_dropped);
    EXPECT_GT(stream.stream_stats.frames_applied, 0u);
  }
}

// --- cache gap state machine -------------------------------------------------

TEST(StreamCacheTest, GapRepairedByPullsThenReapplied) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  StreamPublisher pub(&a0);
  std::vector<std::string> bodies;
  for (int k = 1; k <= 5; ++k) {
    Result<StreamPublisher::Published> p =
        pub.publish(SimTime::millis(100 * k));
    ASSERT_TRUE(p.ok()) << p.status().message();
    bodies.push_back(p.value().body);
  }

  StreamCache cache;
  for (int i : {0, 1}) {
    Result<StreamCache::ApplyResult> r = cache.apply(bodies[i]);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_TRUE(r.value().applied);
  }
  // Frames 3 and 4 lost in transit; frame 5 arrives and betrays the gap.
  Result<StreamCache::ApplyResult> gap = cache.apply(bodies[4]);
  ASSERT_TRUE(gap.ok()) << gap.status().message();
  EXPECT_FALSE(gap.value().applied);
  EXPECT_EQ(gap.value().seq, 5u);
  EXPECT_EQ(gap.value().expected, 3u);
  EXPECT_EQ(gap.value().missed, 2u);
  EXPECT_EQ(cache.stats().gaps, 1u);
  EXPECT_FALSE(cache.window_provenance("a0", SimTime::millis(300)).has_value());

  // Repair the missed windows with targeted pulls at the same boundaries,
  // then the held frame applies.
  cache.repair("a0", SimTime::millis(300),
               a0.query_batch(ids, SimTime::millis(300)));
  cache.repair("a0", SimTime::millis(400),
               a0.query_batch(ids, SimTime::millis(400)));
  Result<StreamCache::ApplyResult> again = cache.apply(bodies[4]);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_TRUE(again.value().applied);
  EXPECT_EQ(cache.next_seq("a0"), 6u);

  // Provenance is honest; the records are not distinguishable.
  EXPECT_EQ(cache.window_provenance("a0", SimTime::millis(300)),
            StreamCache::Provenance::kRepaired);
  EXPECT_EQ(cache.window_provenance("a0", SimTime::millis(500)),
            StreamCache::Provenance::kStreamed);
  for (int ms : {100, 200, 300, 400, 500}) {
    const BatchResponse direct = a0.query_batch(ids, SimTime::millis(ms));
    ASSERT_EQ(direct.responses.size(), ids.size());
    for (const QueryResponse& want : direct.responses) {
      std::optional<QueryResponse> cached =
          read_one(cache, "a0", want.record.element, SimTime::millis(ms));
      ASSERT_TRUE(cached.has_value()) << want.record.element.name << " @ " << ms;
      expect_attrs_eq(cached->record.attrs, want.record.attrs,
                      want.record.element.name + " @ " + std::to_string(ms));
    }
  }
}

TEST(StreamCacheTest, PublisherRestartRebasesViaSnapshot) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) {
      ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    }
  }
  StreamCache cache;
  {
    StreamPublisher pub(&a0);
    for (int k = 1; k <= 3; ++k) {
      Result<StreamPublisher::Published> p =
          pub.publish(SimTime::millis(100 * k));
      ASSERT_TRUE(p.ok());
      Result<StreamCache::ApplyResult> r = cache.apply(p.value().body);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r.value().applied);
    }
  }
  // The publisher restarts: seq falls back to 1 and its first frame is a
  // snapshot, which rebases the stream instead of erroring.
  StreamPublisher restarted(&a0);
  Result<StreamPublisher::Published> p =
      restarted.publish(SimTime::millis(400));
  ASSERT_TRUE(p.ok());
  Result<StreamCache::ApplyResult> r = cache.apply(p.value().body);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value().applied);
  EXPECT_TRUE(r.value().regressed);
  EXPECT_EQ(cache.stats().resets, 1u);
  EXPECT_EQ(cache.next_seq("a0"), 2u);
  // History survives the rebase.
  EXPECT_TRUE(cache.window_provenance("a0", SimTime::millis(200)).has_value());
  EXPECT_TRUE(cache.window_provenance("a0", SimTime::millis(400)).has_value());
}

TEST(StreamCacheTest, RepairBeyondRetentionHorizonIsClamped) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  StreamCache cache;
  cache.set_retention(3);
  StreamPublisher pub(&a0);
  for (int k = 1; k <= 8; ++k) {
    Result<StreamPublisher::Published> p =
        pub.publish(SimTime::millis(100 * k));
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(cache.apply(p.value().body).ok());
  }
  const uint64_t pruned_before = cache.stats().windows_pruned;
  const uint64_t next_before = cache.next_seq("a0");

  // A late watchdog repairs a boundary that has already aged past the
  // retention horizon (only 600..800 are retained).  The backfill must be
  // dropped whole: no resurrected window, no extra prune, no cursor damage.
  cache.repair("a0", SimTime::millis(200),
               a0.query_batch(ids, SimTime::millis(200)));
  EXPECT_FALSE(cache.window_provenance("a0", SimTime::millis(200)).has_value());
  EXPECT_EQ(cache.stats().windows_pruned, pruned_before);
  EXPECT_EQ(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().repairs_clamped, 1u);
  EXPECT_EQ(cache.next_seq("a0"), next_before);

  // The live edge is untouched: the next in-order frame still applies.
  Result<StreamPublisher::Published> p9 = pub.publish(SimTime::millis(900));
  ASSERT_TRUE(p9.ok());
  Result<StreamCache::ApplyResult> r9 = cache.apply(p9.value().body);
  ASSERT_TRUE(r9.ok()) << r9.status().message();
  EXPECT_TRUE(r9.value().applied);
  EXPECT_TRUE(cache.window_provenance("a0", SimTime::millis(900)).has_value());
}

// A repair takes a pull's answer as it comes, in any order: the cache puts
// it in id order, so the window serves every record and is a sound delta
// base for the next frame.
TEST(StreamCacheTest, RepairOutOfOrderBatchServesEveryRecord) {
  auto record = [](int i, SimTime t, double rx) {
    QueryResponse r;
    r.record.timestamp = t;
    r.record.element = ElementId{"m0/e" + std::to_string(i)};
    r.record.attrs = {{"rxPkts", rx}};
    r.attempts = 1;
    return r;
  };
  const SimTime t1 = SimTime::millis(100);
  BatchResponse pull;
  for (int i = 9; i >= 0; --i) pull.responses.push_back(record(i, t1, 10 * i));
  StreamCache cache;
  cache.repair("a0", t1, pull);

  std::vector<ElementId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(record(i, t1, 0).record.element);
  std::vector<const ElementId*> plan;
  for (const ElementId& id : ids) plan.push_back(&id);
  BatchResponse got;
  EXPECT_EQ(cache.read("a0", plan, t1, &got), 10u);
  EXPECT_EQ(got.degraded, 0u);
  ASSERT_EQ(got.responses.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got.responses[i].record.element, ids[i]);
    expect_attrs_eq(got.responses[i].record.attrs, {{"rxPkts", 10.0 * i}},
                    ids[i].name);
  }

  // The next in-order frame delta-codes against the same ascending window.
  const SimTime t2 = SimTime::millis(200);
  wire::StreamDataMsg base{"a0", 1, t1, Duration{}, got.responses};
  wire::StreamDataMsg next{"a0", 2, t2, Duration{}, {}};
  for (int i = 0; i < 10; ++i) {
    next.responses.push_back(record(i, t2, 10 * i + 7));
  }
  Result<std::string> body = wire::encode_stream_data(next, &base);
  ASSERT_TRUE(body.ok()) << body.status().message();
  Result<StreamCache::ApplyResult> applied = cache.apply(body.value());
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  EXPECT_TRUE(applied.value().applied);
  for (int i = 0; i < 10; ++i) {
    std::optional<QueryResponse> r = read_one(cache, "a0", ids[i], t2);
    ASSERT_TRUE(r.has_value()) << ids[i].name;
    expect_attrs_eq(r->record.attrs, {{"rxPkts", 10.0 * i + 7}}, ids[i].name);
  }
}

TEST(StreamCacheTest, RestartedPublisherDeltaFrameResyncsViaSnapshot) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  StreamCache cache;
  {
    StreamPublisher pub(&a0);
    for (int k = 1; k <= 3; ++k) {
      Result<StreamPublisher::Published> p =
          pub.publish(SimTime::millis(100 * k));
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE(cache.apply(p.value().body).value().applied);
    }
  }

  // The publisher restarts with the same element set and its seq reset to
  // 1.  Its snapshot (seq 1) is lost in transit; what the subscriber first
  // sees of the new epoch is a DELTA frame (seq 2).  The old behavior was a
  // permanent failure loop: regressed -> decode without base -> hard error,
  // on every subsequent frame, forever.
  StreamPublisher restarted(&a0);
  ASSERT_TRUE(restarted.publish(SimTime::millis(400)).ok());  // lost
  Result<StreamPublisher::Published> delta =
      restarted.publish(SimTime::millis(500));
  ASSERT_TRUE(delta.ok());

  Result<StreamCache::ApplyResult> r = cache.apply(delta.value().body);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_FALSE(r.value().applied);
  EXPECT_TRUE(r.value().needs_snapshot);
  EXPECT_TRUE(r.value().regressed);
  EXPECT_EQ(cache.stats().snapshot_requests, 1u);
  // The stream cursor is untouched — no half-applied epoch.
  EXPECT_EQ(cache.next_seq("a0"), 4u);

  // The resync: the publisher re-keys the next frame as a snapshot, which
  // rebases the cache onto the new epoch.
  restarted.force_snapshot();
  Result<StreamPublisher::Published> snap =
      restarted.publish(SimTime::millis(600));
  ASSERT_TRUE(snap.ok());
  Result<StreamCache::ApplyResult> r2 = cache.apply(snap.value().body);
  ASSERT_TRUE(r2.ok()) << r2.status().message();
  EXPECT_TRUE(r2.value().applied);
  EXPECT_TRUE(r2.value().regressed);
  EXPECT_EQ(cache.next_seq("a0"), 4u);  // rebased onto the new epoch's seq 3

  // Deltas of the new epoch now flow, and every cached window carries
  // exactly the bits a direct pull at that boundary returns.
  Result<StreamPublisher::Published> next =
      restarted.publish(SimTime::millis(700));
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(cache.apply(next.value().body).value().applied);
  for (int ms : {100, 200, 300, 600, 700}) {
    const BatchResponse direct = a0.query_batch(ids, SimTime::millis(ms));
    ASSERT_EQ(direct.responses.size(), ids.size());
    for (const QueryResponse& want : direct.responses) {
      std::optional<QueryResponse> cached =
          read_one(cache, "a0", want.record.element, SimTime::millis(ms));
      ASSERT_TRUE(cached.has_value())
          << want.record.element.name << " @ " << ms;
      expect_attrs_eq(cached->record.attrs, want.record.attrs,
                      want.record.element.name + " @ " + std::to_string(ms));
    }
  }
}

TEST(StreamPipelineTest, CacheResetMidStreamResyncsViaSnapshot) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  StreamCache cache;
  StreamPipeline pipe(&cache, nullptr);
  pipe.add_agent(&a0);
  ASSERT_TRUE(pipe.pump(SimTime::millis(100)).is_ok());
  ASSERT_TRUE(pipe.pump(SimTime::millis(200)).is_ok());

  // The cache loses its stream state mid-run (operator restart, failover to
  // a cold replica).  The next pump ships a delta the cache cannot decode;
  // the pipeline must resync via a snapshot republish, not error out.
  cache.reset_stream("a0");
  Status st = pipe.pump(SimTime::millis(300));
  EXPECT_TRUE(st.is_ok()) << st.message();
  EXPECT_EQ(cache.stats().snapshot_requests, 1u);
  EXPECT_TRUE(cache.window_provenance("a0", SimTime::millis(300)).has_value());
  // And the stream continues delta-coded afterwards.
  ASSERT_TRUE(pipe.pump(SimTime::millis(400)).is_ok());
  for (int ms : {300, 400}) {
    const BatchResponse direct = a0.query_batch(ids, SimTime::millis(ms));
    for (const QueryResponse& want : direct.responses) {
      std::optional<QueryResponse> cached =
          read_one(cache, "a0", want.record.element, SimTime::millis(ms));
      ASSERT_TRUE(cached.has_value())
          << want.record.element.name << " @ " << ms;
      expect_attrs_eq(cached->record.attrs, want.record.attrs,
                      want.record.element.name + " @ " + std::to_string(ms));
    }
  }
}

TEST(StreamCacheTest, RetentionPrunesOldestWindows) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) {
      ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    }
  }
  StreamCache cache;
  cache.set_retention(3);
  StreamPublisher pub(&a0);
  for (int k = 1; k <= 8; ++k) {
    Result<StreamPublisher::Published> p =
        pub.publish(SimTime::millis(100 * k));
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(cache.apply(p.value().body).ok());
  }
  EXPECT_EQ(cache.stats().windows_pruned, 5u);
  EXPECT_FALSE(cache.window_provenance("a0", SimTime::millis(500)).has_value());
  EXPECT_TRUE(cache.window_provenance("a0", SimTime::millis(600)).has_value());
  EXPECT_TRUE(cache.window_provenance("a0", SimTime::millis(800)).has_value());
}

// A cache nobody configures is bounded all the same, and a retention of 0
// (unbounded) is refused, leaving the bound in place.
TEST(StreamCacheTest, DefaultRetentionIsBoundedAndZeroIsRefused) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) {
      ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    }
  }
  StreamCache cache;
  EXPECT_EQ(cache.set_retention(0).code(), StatusCode::kInvalidArgument);
  const int windows = static_cast<int>(StreamCache::kDefaultRetention) + 2;
  StreamPublisher pub(&a0);
  for (int k = 1; k <= windows; ++k) {
    Result<StreamPublisher::Published> p =
        pub.publish(SimTime::millis(100 * k));
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(cache.apply(p.value().body).ok());
  }
  EXPECT_EQ(cache.stats().windows_pruned, 2u);
  EXPECT_FALSE(cache.window_provenance("a0", SimTime::millis(200)).has_value());
  EXPECT_TRUE(cache.window_provenance("a0", SimTime::millis(300)).has_value());
  EXPECT_TRUE(cache.window_provenance("a0", SimTime::millis(100 * windows))
                  .has_value());
}

// The size gauges follow every store and prune, over streamed, repaired and
// ingested windows alike, and never exceed retention × streams windows.
TEST(StreamCacheTest, SizeGaugesTrackRetainedWindowsAndRecords) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  constexpr size_t kRetention = 3;
  constexpr size_t kStreams = 2;  // a0 and its side-door key
  StreamCache cache;
  ASSERT_TRUE(cache.set_retention(kRetention).is_ok());
  MetricsRegistry m;
  cache.set_metrics(&m);
  const MetricsRegistry::Gauge& windows =
      m.gauge("perfsight_stream_cache_windows", "");
  const MetricsRegistry::Gauge& records =
      m.gauge("perfsight_stream_cache_records", "");

  StreamPublisher pub(&a0);
  size_t max_windows = 0;
  for (int k = 1; k <= 10; ++k) {
    const SimTime at = SimTime::millis(100 * k);
    Result<StreamPublisher::Published> p = pub.publish(at);
    ASSERT_TRUE(p.ok());
    if (k % 4 == 0) {
      cache.repair("a0", at, a0.query_batch(ids, at));  // frame lost
    } else {
      ASSERT_TRUE(cache.apply(p.value().body).ok());
    }
    if (k % 2 == 0) {
      cache.ingest("a0/int", at, StreamCache::Provenance::kInband,
                   a0.query_batch({ids[0], ids[1]}, at).responses);
    }
    size_t want_windows = 0;
    size_t want_records = 0;
    for (int w = 1; w <= k; ++w) {
      const SimTime t = SimTime::millis(100 * w);
      if (cache.window_provenance("a0", t).has_value()) {
        ++want_windows;
        want_records += ids.size();
      }
      if (cache.window_provenance("a0/int", t).has_value()) {
        ++want_windows;
        want_records += 2;
      }
    }
    EXPECT_EQ(windows.value, static_cast<double>(want_windows)) << "k=" << k;
    EXPECT_EQ(records.value, static_cast<double>(want_records)) << "k=" << k;
    EXPECT_LE(windows.value, static_cast<double>(kRetention * kStreams));
    max_windows = std::max(max_windows, want_windows);
  }
  EXPECT_EQ(max_windows, kRetention * kStreams);
  const std::string text = m.expose(SimTime{});
  EXPECT_NE(text.find("perfsight_stream_cache_windows 6"), std::string::npos)
      << text;
}

// ASan/TSan target: one thread applies, repairs (a lost frame every fifth
// boundary) and prunes windows while another reads batches through a
// StreamCacheAgent.  A reader keeps its share of a window past a prune, so
// every batch sees one whole window or none of it, and every record it
// sees is the one the pure sources produce at that boundary.
TEST(StreamCacheTest, ConcurrentApplyRepairPruneVersusBatchedReads) {
  auto sources = make_scenario();
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  std::vector<const FnSource*> by_id;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(a0.add_element(s.get()).is_ok());
    ids.push_back(s->id());
    by_id.push_back(s.get());
  }
  StreamCache cache;
  ASSERT_TRUE(cache.set_retention(2).is_ok());
  StreamCacheAgent served(&cache, a0);
  constexpr int kBoundaries = 2000;
  std::atomic<int> frontier{0};

  std::thread writer([&] {
    StreamPublisher pub(&a0);
    for (int k = 1; k <= kBoundaries; ++k) {
      const SimTime at = SimTime::millis(100 * k);
      Result<StreamPublisher::Published> p = pub.publish(at);
      if (!p.ok()) break;
      if (k % 5 == 0) {
        cache.repair("a0", at, a0.query_batch(ids, at));
      } else if (!cache.apply(p.value().body).ok()) {
        break;
      }
      frontier.store(k, std::memory_order_release);
    }
  });

  size_t whole = 0;
  size_t empty = 0;
  std::vector<ElementId> request = ids;
  request.push_back(ids.front());  // a duplicate, answered twice
  while (frontier.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  // Read the newest window, the one before it and one likely pruned.
  for (size_t n = 0; frontier.load(std::memory_order_acquire) < kBoundaries;
       ++n) {
    const int k = std::max(1, frontier.load(std::memory_order_acquire) -
                                  static_cast<int>(n % 3));
    const SimTime at = SimTime::millis(100 * k);
    const BatchResponse b = served.query_batch(request, at);
    ASSERT_EQ(b.responses.size(), request.size());
    size_t hits = 0;
    for (const QueryResponse& r : b.responses) {
      if (r.quality == DataQuality::kMissing) continue;
      ++hits;
      const size_t i = static_cast<size_t>(
          std::find(ids.begin(), ids.end(), r.record.element) - ids.begin());
      ASSERT_LT(i, ids.size());
      expect_attrs_eq(r.record.attrs, by_id[i]->collect(at).attrs,
                      r.record.element.name);
    }
    ASSERT_TRUE(hits == 0 || hits == request.size()) << "k=" << k;
    ++(hits == 0 ? empty : whole);
  }
  writer.join();
  EXPECT_GT(whole, 0u);
  EXPECT_EQ(cache.stats().repairs, static_cast<uint64_t>(kBoundaries / 5));
  EXPECT_EQ(cache.stats().windows_pruned,
            static_cast<uint64_t>(kBoundaries - 2));
}

// --- the AgentClient contract -----------------------------------------------

// One agent's m0/* elements, served in process, over a socket and from a
// stream cache that captured the window at 100 ms.
struct ThreeClients {
  std::vector<std::unique_ptr<FnSource>> sources = make_scenario();
  Agent agent{"ra", 5};
  std::vector<ElementId> ids;
  std::unique_ptr<RemoteAgentServer> server;
  std::unique_ptr<RemoteAgent> remote;
  StreamCache cache;
  std::unique_ptr<StreamCacheAgent> cached;

  ThreeClients() {
    for (const auto& s : sources) {
      if (!starts_with(s->id().name, "m0/")) continue;
      EXPECT_TRUE(agent.add_element(s.get()).is_ok());
      ids.push_back(s->id());
    }
    server = std::make_unique<RemoteAgentServer>(
        &agent, transport::Endpoint::tcp("127.0.0.1", 0));
    EXPECT_TRUE(server->start().is_ok());
    remote = std::make_unique<RemoteAgent>(server->endpoint());
    EXPECT_TRUE(remote->connect().is_ok());
    StreamPipeline pipe(&cache);
    pipe.add_agent(&agent);
    EXPECT_TRUE(pipe.pump(SimTime::millis(100)).is_ok());
    cached = std::make_unique<StreamCacheAgent>(&cache, agent);
  }
};

// What the contract fixes about a batch answer: the element sequence, each
// response's quality, and the unknown count.
std::string answer_shape(const BatchResponse& b) {
  std::string s = "unknown=" + std::to_string(b.unknown_ids);
  for (const QueryResponse& r : b.responses) {
    s += " " + r.record.element.name + ":" + to_string(r.quality);
  }
  return s;
}

TEST(StreamingDifferentialTest, DuplicateAndUnknownIdsAnswerAlike) {
  ThreeClients c;
  ASSERT_GE(c.ids.size(), 2u);
  const ElementId ghost{"ghost"};
  const std::vector<ElementId> req{c.ids[1], ghost, c.ids[0], c.ids[1],
                                   ghost};
  const SimTime t = SimTime::millis(100);

  // One answer per known occurrence, ascending; one unknown per occurrence.
  std::vector<ElementId> known{c.ids[1], c.ids[0], c.ids[1]};
  std::sort(known.begin(), known.end());
  std::string want = "unknown=2";
  for (const ElementId& id : known) want += " " + id.name + ":fresh";
  const std::string local = answer_shape(c.agent.query_batch(req, t));
  EXPECT_EQ(local, want);
  EXPECT_EQ(answer_shape(c.remote->query_batch(req, t)), local);
  EXPECT_EQ(answer_shape(c.cached->query_batch(req, t)), local);
}

// A window the cache never received is a blind spot whether the controller
// reads it in one fan-in or id by id: both return the same Status.
TEST(StreamingDifferentialTest, MissingWindowFailsAlikeBatchedAndSequential) {
  ThreeClients c;
  SimTime now = SimTime::millis(200);  // no window was captured here
  Controller ctl([&](Duration d) { return now = now + d; },
                 [&] { return now; });
  ctl.register_agent(c.cached.get());
  for (const ElementId& id : c.ids) {
    ASSERT_TRUE(ctl.register_element(kTenant, id, c.cached.get()).is_ok());
  }
  auto batched = ctl.get_attr_many(kTenant, c.ids, {attr::kRxPkts});
  ASSERT_EQ(batched.size(), c.ids.size());
  for (size_t i = 0; i < c.ids.size(); ++i) {
    auto sequential =
        ctl.get_attr_many(kTenant, {c.ids[i]}, {attr::kRxPkts}).front();
    ASSERT_FALSE(batched[i].ok());
    ASSERT_FALSE(sequential.ok());
    EXPECT_EQ(sequential.status().code(), batched[i].status().code());
    EXPECT_EQ(sequential.status().message(), batched[i].status().message());
    EXPECT_NE(batched[i].status().message().find("unavailable after 1"),
              std::string::npos)
        << batched[i].status().message();
  }
}

// --- frozen stream chain ----------------------------------------------------
//
// One seeded chain of stream frames, encoded and fed to a StreamCache step
// by step, rendered with every window the cache serves after each step and
// compared against tests/golden/stream_chain.txt.  The chain has elements
// joining and leaving between windows, a duplicated id, a frame out of
// ascending order that the encoder refuses and a pull handed over in frame
// order repairs (the frame, put in id order, then serves as the next
// frame's delta base, as the repaired window does in the cache), a schema
// change, a blind spot, a dropped frame repaired by a pull, a cache reset
// answered with a snapshot, and a publisher restart.  A rewrite of the
// codec's base lookup or of the cache's storage and reads must leave it
// untouched.  Regenerate only for an intended behaviour change:
//   PERFSIGHT_UPDATE_GOLDEN=1 ./build/tests/streaming_test
//   --gtest_filter='StreamGoldenTest.*'

std::string hex(std::string_view bytes) {
  static const char digits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 15]);
  }
  return out;
}

std::string render(const QueryResponse& r) {
  char buf[96];
  std::snprintf(buf, sizeof buf, " q=%s fail=%d att=%u rt=%lld",
                to_string(r.quality), static_cast<int>(r.fail_code),
                static_cast<unsigned>(r.attempts),
                static_cast<long long>(r.response_time.ns()));
  std::string out = r.record.element.name + " t=" +
                    std::to_string(r.record.timestamp.ns()) + buf;
  for (const Attr& a : r.record.attrs) {
    std::snprintf(buf, sizeof buf, "%.17g", a.value);
    out += " " + a.name + "=" + buf;
  }
  return out;
}

// The chain's frames: per boundary k (window start 100k ms), the element
// ids in frame order.  Values evolve per element from one seeded stream.
struct ChainWorld {
  Pcg32 rng{27};
  std::map<std::string, std::vector<Attr>> last;

  QueryResponse next(const std::string& id, SimTime t) {
    std::vector<Attr>& attrs = last[id];
    if (attrs.empty()) {
      attrs = {{"rxPkts", std::floor(rng.uniform(0, 1e6))},
               {"txPkts", std::floor(rng.uniform(0, 1e6))},
               {"gauge", rng.uniform(0, 1)},
               {"type", 3}};
    } else {
      attrs[0].value += std::floor(rng.uniform(0, 5000));  // u32 delta
      attrs[1].value += std::floor(rng.uniform(0, 5000));
      if (rng.next_double() < 0.5) attrs[2].value = rng.uniform(0, 1);
      if (rng.next_double() < 0.2) attrs[3].value = 1e300;  // absolute
    }
    QueryResponse r;
    r.record.timestamp = t;
    r.record.element = ElementId{id};
    r.record.attrs = attrs;
    r.attempts = 1;
    r.response_time = Duration::micros(100 + rng.next_u32() % 100);
    return r;
  }
};

std::vector<wire::StreamDataMsg> frozen_chain() {
  const std::vector<std::vector<std::string>> order = {
      {"m0/a", "m0/b", "m0/c", "m0/d"},
      {"m0/a", "m0/b", "m0/d", "m0/e"},          // c leaves, e joins
      {"m0/a", "m0/a", "m0/b", "m0/e"},          // a twice, d leaves
      {"m0/a", "m0/b", "m0/c", "m0/e"},          // base has a twice
      {"m0/e", "m0/a", "m0/f", "m0/b"},          // not ascending: refused
      {"m0/a", "m0/b", "m0/c", "m0/e", "m0/f"},  // base repaired by a pull
      {"m0/a", "m0/b", "m0/e", "m0/f"},          // dropped in transit
      {"m0/a", "m0/b", "m0/d", "m0/e", "m0/f"},
      {"m0/a", "m0/b", "m0/d", "m0/e", "m0/f"},
      {"m0/a", "m0/b", "m0/c", "m0/d", "m0/e", "m0/f"},
      {"m0/a", "m0/c", "m0/d", "m0/f"},
      {"m0/a", "m0/b", "m0/c", "m0/d", "m0/f"},
  };
  ChainWorld world;
  std::vector<wire::StreamDataMsg> out;
  for (size_t k = 0; k < order.size(); ++k) {
    wire::StreamDataMsg m;
    m.agent = "a0";
    m.window_start = SimTime::millis(100 * static_cast<int64_t>(k + 1));
    m.channel_time = Duration::micros(300 + 7 * static_cast<int64_t>(k));
    for (const std::string& id : order[k]) {
      m.responses.push_back(world.next(id, m.window_start));
    }
    out.push_back(std::move(m));
  }
  // A schema change resolves deltas by name; a blind spot carries none.
  std::vector<Attr>& b4 = out[3].responses[1].record.attrs;
  std::swap(b4[0], b4[2]);
  b4.push_back({"extra", 9});
  QueryResponse& c6 = out[5].responses[2];
  c6.record.attrs.clear();
  c6.quality = DataQuality::kMissing;
  c6.fail_code = StatusCode::kUnavailable;
  c6.attempts = 3;
  return out;
}

std::string chain_transcript() {
  std::vector<wire::StreamDataMsg> frames = frozen_chain();
  std::string out;
  StreamCache cache;
  EXPECT_TRUE(cache.set_retention(4).is_ok());
  StreamCacheAgent served(
      &cache, "a0",
      {ElementId{"m0/a"}, ElementId{"m0/b"}, ElementId{"m0/c"},
       ElementId{"m0/d"}, ElementId{"m0/e"}, ElementId{"m0/f"}});
  const std::vector<ElementId> request = {
      ElementId{"m0/f"}, ElementId{"m0/a"},  ElementId{"m0/c"},
      ElementId{"m0/a"}, ElementId{"m0/zz"}, ElementId{"m0/b"},
      ElementId{"m0/d"}, ElementId{"m0/e"}};

  // Encodes frame k (0-based) as `seq`, against `base` (null: snapshot).
  auto encode = [&](size_t k, uint64_t seq, const wire::StreamDataMsg* base) {
    frames[k].seq = seq;
    Result<std::string> body = wire::encode_stream_data(frames[k], base);
    out += "body k=" + std::to_string(k + 1) + " seq=" + std::to_string(seq) +
           " " +
           (body.ok() ? hex(body.value()) : "err " + body.status().message()) +
           "\n";
    return body.ok() ? body.value() : std::string();
  };
  auto serve = [&] {
    const StreamCache::Stats st = cache.stats();
    out += "  next_seq=" + std::to_string(cache.next_seq("a0")) +
           " applied=" + std::to_string(st.frames_applied) +
           " gaps=" + std::to_string(st.gaps) +
           " repairs=" + std::to_string(st.repairs) +
           " resets=" + std::to_string(st.resets) +
           " pruned=" + std::to_string(st.windows_pruned) +
           " bytes=" + std::to_string(st.bytes_applied) +
           " snapshots=" + std::to_string(st.snapshot_requests) + "\n";
    for (size_t k = 1; k <= frames.size(); ++k) {
      const SimTime w = SimTime::millis(100 * static_cast<int64_t>(k));
      const std::optional<StreamCache::Provenance> p =
          cache.window_provenance("a0", w);
      if (!p.has_value()) continue;
      const BatchResponse b = served.query_batch(request, w);
      out += "  window k=" + std::to_string(k) + " " + to_string(*p) +
             " unknown=" + std::to_string(b.unknown_ids) +
             " degraded=" + std::to_string(b.degraded) + "\n";
      for (const QueryResponse& r : b.responses) {
        out += "    " + render(r) + "\n";
      }
      for (const ElementId& id : served.element_ids()) {
        const std::optional<QueryResponse> r = read_one(cache, "a0", id, w);
        out += "    find " + id.name + " " +
               (r.has_value() ? render(*r) : "none") + "\n";
      }
    }
  };
  auto apply = [&](const std::string& body) {
    Result<StreamCache::ApplyResult> r = cache.apply(body);
    if (!r.ok()) {
      out += "apply err " + r.status().message() + "\n";
    } else {
      const StreamCache::ApplyResult& a = r.value();
      out += "apply applied=" + std::to_string(a.applied) +
             " seq=" + std::to_string(a.seq) +
             " expected=" + std::to_string(a.expected) +
             " missed=" + std::to_string(a.missed) +
             " regressed=" + std::to_string(a.regressed) +
             " needs_snapshot=" + std::to_string(a.needs_snapshot) +
             " window=" + std::to_string(a.window_start.ns()) + "\n";
    }
    serve();
  };

  // A pull of boundary k (0-based), handed over in frame order: the cache
  // puts it in id order.
  auto repair = [&](size_t k) {
    BatchResponse pull;
    pull.channel_time = frames[k].channel_time;
    pull.responses = frames[k].responses;
    cache.repair("a0", frames[k].window_start, pull);
    out += "repair k=" + std::to_string(k + 1) + "\n";
    serve();
  };

  // Boundaries 1-6 arrive in order.  Frame 5 descends, so the encoder
  // refuses it and a pull repairs boundary 5; frame 6 then encodes against
  // the repaired window, in id order, and applies.
  apply(encode(0, 1, nullptr));
  for (size_t k = 1; k < 6; ++k) {
    const std::string body = encode(k, k + 1, &frames[k - 1]);
    if (k != 4) {
      apply(body);
      continue;
    }
    serve();
    repair(4);
    std::stable_sort(frames[4].responses.begin(), frames[4].responses.end(),
                     [](const QueryResponse& a, const QueryResponse& b) {
                       return a.record.element < b.record.element;
                     });
  }
  // Frame 7 is lost in transit; frame 8 betrays the gap, a pull repairs
  // boundary 7, and frame 8 applies.
  encode(6, 7, &frames[5]);
  const std::string body8 = encode(7, 8, &frames[6]);
  apply(body8);
  repair(6);
  apply(body8);
  // The cache loses its stream state: the next delta frame asks for a
  // snapshot, which the publisher sends as its next seq.
  cache.reset_stream("a0");
  out += "reset\n";
  apply(encode(8, 9, &frames[7]));
  apply(encode(8, 10, nullptr));
  apply(encode(9, 11, &frames[8]));
  // The publisher restarts: seq falls back to 1 with a snapshot.
  apply(encode(10, 1, nullptr));
  apply(encode(11, 2, &frames[10]));
  return out;
}

void check_golden(const std::string& name, const std::string& got) {
  const std::string path = std::string(PS_GOLDEN_DIR) + "/" + name;
  if (std::getenv("PERFSIGHT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream want;
  want << in.rdbuf();
  if (want.str() == got) return;
  std::istringstream a(want.str()), b(got);
  std::string la, lb;
  for (size_t line = 1;; ++line) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    if (!ga || !gb || la != lb) {
      FAIL() << name << " diverges at line " << line << "\n  golden: " << la
             << "\n  actual: " << lb;
    }
  }
  FAIL() << name << " differs";
}

TEST(StreamGoldenTest, ChainBodiesAndServedWindowsMatchFrozenText) {
  check_golden("stream_chain.txt", chain_transcript());
}

// --- remote kSubscribe / kStreamData ----------------------------------------

TEST(RemoteStreamingTest, UnsubscribedPublishesShipZeroBytes) {
  auto sources = make_scenario();
  Agent agent("ra", 5);
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) {
      ASSERT_TRUE(agent.add_element(s.get()).is_ok());
    }
  }
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  // Publish ticks with no subscriber capture nothing and send nothing —
  // a deployment that never subscribes pays zero stream bytes.
  server.request_publish(SimTime::millis(50));
  server.request_publish(SimTime::millis(100));
  EXPECT_EQ(server.stream_frames_published(), 0u);

  // A plain request/reply client on the same server still works (streaming
  // compiled in but unused does not disturb the pull path).
  StreamSubscriber sub(server.endpoint());
  ASSERT_TRUE(sub.connect(transport::WallDuration(2000)).is_ok());
  EXPECT_EQ(sub.hello().roster[0].name, "ra");
  server.request_publish(SimTime::millis(150));
  Result<std::string> body = sub.next_body(transport::WallDuration(5000));
  ASSERT_TRUE(body.ok()) << body.status().message();
  EXPECT_EQ(server.stream_frames_published(), 1u);
  server.stop();
}

TEST(RemoteStreamingTest, GapRepairRecoversByteEqualState) {
  auto sources = make_scenario();
  Agent agent("ra", 5);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(agent.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());
  StreamSubscriber sub(server.endpoint());
  ASSERT_TRUE(sub.connect(transport::WallDuration(2000)).is_ok());

  StreamCache cache;
  auto next_body = [&](int ms) {
    server.request_publish(SimTime::millis(ms));
    Result<std::string> body = sub.next_body(transport::WallDuration(5000));
    EXPECT_TRUE(body.ok()) << body.status().message();
    return body.ok() ? body.value() : std::string{};
  };

  ASSERT_TRUE(cache.apply(next_body(100)).value().applied);
  ASSERT_TRUE(cache.apply(next_body(200)).value().applied);
  (void)next_body(300);  // seq 3 is lost on its way to the subscriber
  const std::string frame4 = next_body(400);
  Result<StreamCache::ApplyResult> gap = cache.apply(frame4);
  ASSERT_TRUE(gap.ok());
  EXPECT_FALSE(gap.value().applied);
  EXPECT_EQ(gap.value().missed, 1u);
  cache.repair("ra", SimTime::millis(300),
               agent.query_batch(ids, SimTime::millis(300)));
  Result<StreamCache::ApplyResult> again = cache.apply(frame4);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_TRUE(again.value().applied);

  // Reconnect: forget the delta base; the server's first frame to the new
  // connection is a snapshot and applies whatever its seq is.
  sub.close();
  StreamSubscriber sub2(server.endpoint());
  ASSERT_TRUE(sub2.connect(transport::WallDuration(2000)).is_ok());
  cache.reset_stream("ra");
  server.request_publish(SimTime::millis(500));
  Result<std::string> body5 = sub2.next_body(transport::WallDuration(5000));
  ASSERT_TRUE(body5.ok()) << body5.status().message();
  Result<StreamCache::ApplyResult> r5 = cache.apply(body5.value());
  ASSERT_TRUE(r5.ok()) << r5.status().message();
  EXPECT_TRUE(r5.value().applied);

  // Every cached window — streamed, repaired, post-reconnect — carries
  // exactly the bits a direct pull at that boundary returns.
  for (int ms : {100, 200, 300, 400, 500}) {
    const BatchResponse direct = agent.query_batch(ids, SimTime::millis(ms));
    ASSERT_EQ(direct.responses.size(), ids.size());
    for (const QueryResponse& want : direct.responses) {
      std::optional<QueryResponse> cached =
          read_one(cache, "ra", want.record.element, SimTime::millis(ms));
      ASSERT_TRUE(cached.has_value()) << want.record.element.name << " @ " << ms;
      expect_attrs_eq(cached->record.attrs, want.record.attrs,
                      want.record.element.name + " @ " + std::to_string(ms));
    }
  }
  EXPECT_EQ(cache.window_provenance("ra", SimTime::millis(300)),
            StreamCache::Provenance::kRepaired);
  EXPECT_GT(server.stream_frames_published(), 0u);
  server.stop();
}

// A subscriber that joins a live stream gets the capture it joins at as a
// snapshot under the shared seq; from then on every subscriber gets the
// one delta body, and both caches hold what direct pulls return.
TEST(RemoteStreamingTest, LateSubscriberSharesEveryDeltaBody) {
  auto sources = make_scenario();
  Agent agent("ra", 5);
  std::vector<ElementId> ids;
  for (const auto& s : sources) {
    if (!starts_with(s->id().name, "m0/")) continue;
    ASSERT_TRUE(agent.add_element(s.get()).is_ok());
    ids.push_back(s->id());
  }
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());
  StreamSubscriber first(server.endpoint());
  ASSERT_TRUE(first.connect(transport::WallDuration(2000)).is_ok());
  auto next_body = [](StreamSubscriber& sub) {
    Result<std::string> body = sub.next_body(transport::WallDuration(5000));
    EXPECT_TRUE(body.ok()) << body.status().message();
    return body.ok() ? body.value() : std::string{};
  };
  auto seq_of = [](const std::string& body) {
    Result<wire::StreamFrameInfo> info = wire::peek_stream_data(body);
    return info.ok() ? info.value().seq : 0;
  };
  auto apply = [](StreamCache& cache, const std::string& body) {
    Result<StreamCache::ApplyResult> r = cache.apply(body);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_TRUE(r.value().applied);
  };

  StreamCache early;
  StreamCache late;
  for (int ms : {100, 200}) {
    server.request_publish(SimTime::millis(ms));
    apply(early, next_body(first));
  }
  StreamSubscriber second(server.endpoint());
  ASSERT_TRUE(second.connect(transport::WallDuration(2000)).is_ok());
  server.request_publish(SimTime::millis(300));
  const std::string delta = next_body(first);
  const std::string snapshot = next_body(second);
  EXPECT_EQ(seq_of(delta), 3u);
  EXPECT_EQ(seq_of(snapshot), 3u);
  // The snapshot stands alone; the delta needs the previous capture.
  EXPECT_TRUE(wire::decode_stream_data(snapshot, nullptr).ok());
  EXPECT_FALSE(wire::decode_stream_data(delta, nullptr).ok());
  apply(early, delta);
  apply(late, snapshot);
  for (int ms : {400, 500}) {
    server.request_publish(SimTime::millis(ms));
    const std::string a = next_body(first);
    const std::string b = next_body(second);
    EXPECT_EQ(a, b) << "@ " << ms;
    EXPECT_EQ(seq_of(a), static_cast<uint64_t>(ms / 100));
    apply(early, a);
    apply(late, b);
  }
  EXPECT_EQ(server.stream_frames_published(), 8u);

  for (int ms : {100, 200, 300, 400, 500}) {
    const SimTime t = SimTime::millis(ms);
    const BatchResponse direct = agent.query_batch(ids, t);
    ASSERT_EQ(direct.responses.size(), ids.size());
    for (const QueryResponse& want : direct.responses) {
      const std::string ctx =
          want.record.element.name + " @ " + std::to_string(ms);
      std::optional<QueryResponse> got =
          read_one(early, "ra", want.record.element, t);
      ASSERT_TRUE(got.has_value()) << ctx;
      expect_attrs_eq(got->record.attrs, want.record.attrs, ctx);
      got = read_one(late, "ra", want.record.element, t);
      ASSERT_EQ(got.has_value(), ms >= 300) << ctx;
      if (got.has_value()) {
        expect_attrs_eq(got->record.attrs, want.record.attrs, ctx);
      }
    }
  }
  server.stop();
}

// The server captures the agent's live element set at every boundary: an
// element added after start() is in the next frame, a removed one leaves.
TEST(RemoteStreamingTest, FramesFollowElementsAddedAndRemovedAfterStart) {
  auto sources = make_scenario();
  Agent agent("ra", 5);
  std::vector<const FnSource*> m0;
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) m0.push_back(s.get());
  }
  ASSERT_GT(m0.size(), 2u);
  const FnSource* late = m0.back();
  m0.pop_back();
  for (const FnSource* s : m0) ASSERT_TRUE(agent.add_element(s).is_ok());
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());
  StreamSubscriber sub(server.endpoint());
  ASSERT_TRUE(sub.connect(transport::WallDuration(2000)).is_ok());

  StreamCache cache;
  // Publishes boundary `ms` and returns how many records its frame holds.
  auto pump = [&](int ms) -> size_t {
    server.request_publish(SimTime::millis(ms));
    Result<std::string> body = sub.next_body(transport::WallDuration(5000));
    if (!body.ok()) {
      ADD_FAILURE() << body.status().message();
      return 0;
    }
    Result<StreamCache::ApplyResult> r = cache.apply(body.value());
    EXPECT_TRUE(r.ok() && r.value().applied) << "@ " << ms;
    return wire::peek_stream_data(body.value()).value().record_count;
  };

  EXPECT_EQ(pump(100), m0.size());
  EXPECT_FALSE(read_one(cache, "ra", late->id(), SimTime::millis(100)));

  ASSERT_TRUE(agent.add_element(late).is_ok());
  EXPECT_EQ(pump(200), m0.size() + 1);
  std::optional<QueryResponse> got =
      read_one(cache, "ra", late->id(), SimTime::millis(200));
  ASSERT_TRUE(got.has_value());
  expect_attrs_eq(got->record.attrs,
                  late->collect(SimTime::millis(200)).attrs, late->id().name);

  ASSERT_TRUE(agent.remove_element(late->id()).is_ok());
  EXPECT_EQ(pump(300), m0.size());
  EXPECT_FALSE(read_one(cache, "ra", late->id(), SimTime::millis(300)));
  EXPECT_TRUE(read_one(cache, "ra", m0.front()->id(), SimTime::millis(300)));
  server.stop();
}

// TSan target: subscriber connect/read/close churn racing publish ticks.
// Run under ThreadSanitizer via --gtest_filter=*Churn*.
TEST(RemoteStreamingChurnTest, SubscriberReconnectRace) {
  auto sources = make_scenario();
  Agent agent("ra", 5);
  for (const auto& s : sources) {
    if (starts_with(s->id().name, "m0/")) {
      ASSERT_TRUE(agent.add_element(s.get()).is_ok());
    }
  }
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  std::atomic<bool> stop{false};
  std::atomic<int> published{0};
  std::thread publisher([&] {
    int ms = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      server.request_publish(SimTime::millis(ms += 10));
      published.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  StreamCache cache;
  int frames_seen = 0;
  for (int round = 0; round < 12; ++round) {
    StreamSubscriber sub(server.endpoint());
    if (!sub.connect(transport::WallDuration(2000)).is_ok()) continue;
    cache.reset_stream("ra");
    // Read a couple of frames, then drop the connection mid-stream.
    for (int i = 0; i < 3; ++i) {
      Result<std::string> body = sub.next_body(transport::WallDuration(2000));
      if (!body.ok()) break;
      Result<StreamCache::ApplyResult> r = cache.apply(body.value());
      if (r.ok() && r.value().applied) ++frames_seen;
    }
  }
  stop.store(true);
  publisher.join();
  EXPECT_GT(frames_seen, 0);
  EXPECT_GT(published.load(), 0);
  server.stop();
}

}  // namespace
}  // namespace perfsight
