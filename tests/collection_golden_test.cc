// Frozen transcripts of the collection paths.  Every agent query surface
// (single query, projection, batch, poll sweep) and every
// Fig. 6 controller utility, single-element and `_many`, is driven through a
// seeded fault campaign with the flight recorder on.  The rendered transcript
// is compared byte for byte against a golden file checked in beside this
// test, so any rewrite of the collection core must reproduce the same
// records, modelled latencies, qualities, attempt counts, failure text, RNG
// consumption (visible through channel jitter), self-profiling histograms,
// breaker states and trace events.
//
// Regenerate only for an intended behaviour change, and say why in the
// change description:
//   PERFSIGHT_UPDATE_GOLDEN=1 ./build/tests/collection_golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfsight/agent.h"
#include "perfsight/controller.h"
#include "perfsight/faults.h"
#include "perfsight/trace.h"
#include "per_id_reference.h"

namespace perfsight {
namespace {

// Counters that move with the round, so every read is distinguishable.
class RoundSource : public StatsSource {
 public:
  RoundSource(std::string id, ChannelKind kind, double base)
      : id_{std::move(id)}, kind_(kind), base_(base) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    const double t = static_cast<double>(now.ns() / 1'000'000);
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = {{attr::kRxPkts, base_ + 13 * t},
               {attr::kTxPkts, base_ + 11 * t},
               {attr::kTxBytes, 1500 * (base_ + 11 * t)},
               {attr::kDropPkts, 2 * t},
               {attr::kQueuePkts, base_ / 10}};
    return r;
  }

 private:
  ElementId id_;
  ChannelKind kind_;
  double base_;
};

std::vector<std::unique_ptr<RoundSource>> make_sources(const std::string& host,
                                                       size_t n) {
  const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                               ChannelKind::kNetDeviceFile,
                               ChannelKind::kOvsChannel, ChannelKind::kQemuLog,
                               ChannelKind::kGuestProc};
  std::vector<std::unique_ptr<RoundSource>> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<RoundSource>(
        host + "/el" + std::to_string(i), kinds[i % 6],
        static_cast<double>(100 * (i + 1))));
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt(const StatsRecord& r) {
  std::string s = std::to_string(r.timestamp.ns()) + " " + r.element.name;
  for (const Attr& a : r.attrs) s += " " + a.name + "=" + num(a.value);
  return s;
}

std::string fmt(const QueryResponse& r) {
  return fmt(r.record) + " q=" + to_string(r.quality) +
         " att=" + std::to_string(r.attempts) +
         " code=" + std::to_string(static_cast<int>(r.fail_code)) +
         " rt=" + std::to_string(r.response_time.ns());
}

template <typename T, typename F>
std::string fmt(const Result<T>& r, F&& ok) {
  return r.ok() ? ok(r.value()) : "ERR " + r.status().to_string();
}

std::string fmt(const Result<QueryResponse>& r) {
  return fmt(r, [](const QueryResponse& q) { return fmt(q); });
}

std::string fmt(const BatchResponse& b) {
  std::string s = "batch ch=" + std::to_string(b.channel_time.ns()) +
                  " unknown=" + std::to_string(b.unknown_ids) +
                  " degraded=" + std::to_string(b.degraded) + "\n";
  for (const QueryResponse& r : b.responses) s += "  " + fmt(r) + "\n";
  return s;
}

std::string fmt_state(const Agent& a) {
  const AgentFaultStats f = a.fault_stats();
  std::string s = "state " + a.name() +
                  " faults=" + std::to_string(f.faults_injected) +
                  " retries=" + std::to_string(f.retries) +
                  " exhausted=" + std::to_string(f.exhausted) +
                  " deadline=" + std::to_string(f.deadline_hits) +
                  " stale=" + std::to_string(f.stale_served) +
                  " torn=" + std::to_string(f.torn_reads) +
                  " opened=" + std::to_string(f.breaker_opened) +
                  " closed=" + std::to_string(f.breaker_closed) +
                  " fastfail=" + std::to_string(f.breaker_fast_fails) +
                  " crashes=" + std::to_string(f.crashes) + " breakers=";
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    s += std::string(k ? "," : "") +
         to_string(a.breaker_state(static_cast<ChannelKind>(k)));
  }
  return s + "\n";
}

std::string fmt_histograms(const Agent& a) {
  std::string s;
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    const LatencyHistogram& h = a.channel_latency(static_cast<ChannelKind>(k));
    s += "hist " + a.name() + " " + to_string(static_cast<ChannelKind>(k)) +
         " n=" + std::to_string(h.count()) + " sum=" + num(h.sum()) + "\n";
  }
  return s;
}

std::string fmt_trace(const TraceRecorder& rec) {
  std::string s;
  for (const TraceEvent& e : rec.events()) {
    s += "ev " + std::to_string(e.t.ns()) + " " + e.element + " " +
         to_string(e.kind) + " " + num(e.value) + " " + e.detail + "\n";
  }
  return s;
}

// The faulty fleet both transcripts run over: a0 under a mixed Bernoulli
// plan with two crashes and one channel kind that always fails (so its
// breaker opens, fast-fails, and half-opens); a1 under a scheduled outage
// and a latency override.
struct Fleet {
  Fleet() : a0("a0", 7), a1("a1", 11), plan(5) {
    s0 = make_sources("m0", 12);
    s1 = make_sources("m1", 4);
    for (const auto& s : s0) EXPECT_TRUE(a0.add_element(s.get()).is_ok());
    for (const auto& s : s1) EXPECT_TRUE(a1.add_element(s.get()).is_ok());

    ChannelFaultSpec mixed;
    mixed.transient_p = 0.15;
    mixed.timeout_p = 0.10;
    mixed.stale_p = 0.15;
    mixed.torn_p = 0.10;
    for (size_t k = 0; k < kNumChannelKinds; ++k) {
      plan.set_channel_faults(static_cast<ChannelKind>(k), mixed);
    }
    ChannelFaultSpec dead;
    dead.transient_p = 1.0;
    for (const char* id : {"m0/el3", "m0/el9"}) {
      plan.set_element_faults(ElementId{id}, dead);
    }
    ChannelFaultSpec none;
    for (const char* id : {"m1/el0", "m1/el1", "m1/el2", "m1/el3"}) {
      plan.set_element_faults(ElementId{id}, none);
    }
    plan.schedule_crash("a0", SimTime::millis(10));
    plan.schedule_crash("a0", SimTime::millis(31));
    plan.schedule_outage("a1", SimTime::millis(8), SimTime::millis(16));

    RetryPolicy retry;
    retry.max_attempts = 3;
    retry.element_budget = Duration::millis(8);
    retry.attempt_timeout = Duration::millis(3);
    for (Agent* a : {&a0, &a1}) {
      a->set_fault_plan(&plan);
      a->set_retry_policy(retry);
    }
    a1.set_latency(ChannelKind::kProcFs,
                   {Duration::micros(700), Duration::micros(300)});
  }

  ElementId id0(size_t i) const { return s0[i]->id(); }
  ElementId id1(size_t i) const { return s1[i]->id(); }

  Agent a0, a1;
  FaultPlan plan;
  std::vector<std::unique_ptr<RoundSource>> s0, s1;
};

std::string agent_transcript() {
  ScopedTraceRecorder scoped(1 << 14);
  Fleet f;
  std::string out;
  std::vector<ElementId> batch_ids = {f.id0(7), f.id0(1),  ElementId{"ghost"},
                                      f.id0(3), f.id0(10), f.id0(4),
                                      f.id0(1)};
  std::vector<ElementId> all1;
  for (size_t i = 0; i < f.s1.size(); ++i) all1.push_back(f.id1(i));

  for (int round = 0; round < 12; ++round) {
    const SimTime now = SimTime::millis(4 * round);
    out += "round " + std::to_string(round) + "\n";
    out += "query " + fmt(f.a0.query(f.id0(round % 12), now)) + "\n";
    out += "query " + fmt(f.a0.query(ElementId{"ghost"}, now)) + "\n";
    out += "query " + fmt(f.a0.query(f.id0(3), now)) + "\n";
    out += "attrs " +
           fmt(f.a0.query_attrs(f.id0((round + 5) % 12),
                                {attr::kDropPkts, "nope", attr::kRxPkts},
                                now)) +
           "\n";
    out += fmt(f.a0.query_batch(batch_ids, now));
    out += "poll\n";
    for (const QueryResponse& r : f.a0.poll_all(now)) {
      out += "  " + fmt(r) + "\n";
    }
    out += "sweep " + fmt(f.a0.query_batch(f.a0.element_ids(), now));
    out += "query " + fmt(f.a1.query(f.id1(round % 4), now)) + "\n";
    out += fmt(f.a1.query_batch(all1, now));
    out += "poll1\n";
    for (const QueryResponse& r : f.a1.poll_all(now)) {
      out += "  " + fmt(r) + "\n";
    }
    out += fmt_state(f.a0) + fmt_state(f.a1);
  }
  out += fmt_histograms(f.a0) + fmt_histograms(f.a1);
  out += fmt_trace(scoped.recorder());
  return out;
}

std::string quality_of(const std::vector<DataQuality>& q) {
  std::string s = " quality=";
  for (DataQuality d : q) s += std::string(to_string(d)) + ",";
  return s;
}

std::string controller_transcript() {
  ScopedTraceRecorder scoped(1 << 14);
  Fleet f;
  SimTime now;
  // A fault-free replica of two a0 elements, for the quorum fallback.
  Agent a2("a2", 13);
  EXPECT_TRUE(a2.add_element(f.s0[2].get()).is_ok());
  EXPECT_TRUE(a2.add_element(f.s0[3].get()).is_ok());
  // Even rounds read the agents directly; odd rounds read them through the
  // per-id reference, every id its own batch of one.  Both controllers
  // share the clock and the agents.
  PerIdReference r0(&f.a0), r1(&f.a1), r2(&a2);
  const auto advance = [&](Duration d) { return now = now + d; };
  const auto clock = [&] { return now; };
  Controller direct(advance, clock), reference(advance, clock);
  const TenantId tenant{3};
  const auto wire = [&](Controller& c, AgentClient* c0, AgentClient* c1,
                        AgentClient* c2) {
    c.register_agent(c0);
    c.register_agent(c1);
    c.register_agent(c2);
    for (size_t i = 0; i < 6; ++i) {
      EXPECT_TRUE(c.register_element(tenant, f.id0(i), c0).is_ok());
    }
    for (size_t i = 0; i < f.s1.size(); ++i) {
      EXPECT_TRUE(c.register_element(tenant, f.id1(i), c1).is_ok());
    }
    for (size_t i : {2, 3}) {
      EXPECT_TRUE(c.register_mirror(tenant, f.id0(i), c2).is_ok());
    }
  };
  wire(direct, &f.a0, &f.a1, &a2);
  wire(reference, &r0, &r1, &r2);
  std::vector<ElementId> ids = direct.elements_of(tenant);
  ids.push_back(ElementId{"ghost"});
  ids.push_back(f.id0(9));  // a stack-style element resolved via the agents
  ids.push_back(f.id0(1));  // duplicate slot

  const auto rec = [](const Controller::QualifiedRecord& q) {
    return fmt(q.record) + " q=" + to_string(q.quality);
  };
  std::string out;
  for (int round = 0; round < 10; ++round) {
    const Controller& c = round % 2 == 0 ? direct : reference;
    out += "round " + std::to_string(round) + " t=" +
           std::to_string(now.ns()) + "\n";
    out += "get_attr " +
           fmt(c.get_attr(tenant, f.id0(round % 6), {attr::kRxPkts}),
               [](const StatsRecord& r) { return fmt(r); }) +
           "\n";
    out += "get_attr_q " +
           fmt(c.get_attr_q(tenant, f.id1(round % 4),
                            {attr::kTxPkts, attr::kDropPkts}),
               rec) +
           "\n";
    for (const ElementId& id : {f.id0(round % 6), f.id0(3), f.id1(1)}) {
      // Each result is taken before it is rendered: `q` is written by the
      // call, and operand order inside one expression is unspecified.
      DataQuality q = DataQuality::kFresh;
      const Result<DataRate> tput =
          c.get_throughput(tenant, id, Duration::millis(2), &q);
      out += "tput " + id.name + " " +
             fmt(tput, [](const DataRate& r) {
               return num(r.bits_per_sec());
             }) +
             " q=" + to_string(q) + "\n";
      q = DataQuality::kFresh;
      const Result<int64_t> loss =
          c.get_pkt_loss(tenant, id, Duration::millis(2), &q);
      out += "loss " + id.name + " " +
             fmt(loss, [](int64_t v) { return std::to_string(v); }) +
             " q=" + to_string(q) + "\n";
      q = DataQuality::kFresh;
      const Result<double> size =
          c.get_avg_pkt_size(tenant, id, Duration::millis(2), &q);
      out += "size " + id.name + " " +
             fmt(size, [](double v) { return num(v); }) + " q=" +
             to_string(q) + "\n";
    }
    out += "many\n";
    for (const auto& r : c.get_attr_many(tenant, ids, {attr::kRxPkts})) {
      out += "  " + fmt(r, rec) + "\n";
    }
    std::vector<DataQuality> q;
    out += "tput_many";
    for (const auto& r : c.get_throughput_many(tenant, ids,
                                               Duration::millis(3), &q)) {
      out += " " + fmt(r, [](const DataRate& v) {
               return num(v.bits_per_sec());
             });
    }
    out += quality_of(q) + "\nloss_many";
    for (const auto& r :
         c.get_pkt_loss_many(tenant, ids, Duration::millis(3), &q)) {
      out += " " + fmt(r, [](int64_t v) { return std::to_string(v); });
    }
    out += quality_of(q) + "\nsize_many";
    for (const auto& r :
         c.get_avg_pkt_size_many(tenant, ids, Duration::millis(3), &q)) {
      out += " " + fmt(r, [](double v) { return num(v); });
    }
    // Both controllers' tallies together: the cost of every round so far.
    const Controller::CostSnapshot d = direct.cost(), r = reference.cost();
    out += quality_of(q) + "\ncost queries=" +
           std::to_string(d.queries + r.queries) + " channel=" +
           std::to_string((d.channel_time + r.channel_time).ns()) + "\n";
    out += fmt_state(f.a0) + fmt_state(f.a1) + fmt_state(a2);
  }
  out += fmt_histograms(f.a0) + fmt_histograms(f.a1) + fmt_histograms(a2);
  out += fmt_trace(scoped.recorder());
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
  // Report the first divergent line rather than two multi-kilobyte blobs.
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

TEST(CollectionGoldenTest, AgentQueryPathsMatchFrozenTranscript) {
  const std::string got = agent_transcript();
  EXPECT_EQ(got, agent_transcript());  // deterministic in-process
  check_golden("agent_paths.txt", got);
}

TEST(CollectionGoldenTest, ControllerUtilitiesMatchFrozenTranscript) {
  const std::string got = controller_transcript();
  EXPECT_EQ(got, controller_transcript());
  check_golden("controller_utilities.txt", got);
}

}  // namespace
}  // namespace perfsight
