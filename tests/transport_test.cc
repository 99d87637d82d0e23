// Socket transport + remote-agent stub: the differential contract is that a
// controller talking to socket-backed agents produces byte-identical output
// to the same controller talking to in-process agents — on clean streams.
// On damaged streams (torn connection, corrupt frame, dropped reply — made
// by a DamageRelay between adapter and server) the lost frames must degrade to kMissing blind spots via wire::reconcile, with
// the same "unavailable after N attempt(s)" text a local channel failure
// produces, while ids no agent serves keep their not_found text.
#include "perfsight/transport.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/deployment.h"
#include "common/threadpool.h"
#include "perfsight/json_export.h"
#include "perfsight/agent.h"
#include "perfsight/alert.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/monitor.h"
#include "perfsight/remote_agent.h"
#include "perfsight/rootcause.h"
#include "perfsight/trace.h"
#include "perfsight/wire.h"
#include "per_id_reference.h"
#include "sim/simulator.h"

namespace perfsight {
namespace {

using transport::WallDuration;

std::string unique_unix_path() {
  static std::atomic<int> counter{0};
  return "/tmp/ps-transport-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// A scriptable element whose counters the rig moves as time advances.  For
// remote rigs collect() runs on the server thread while the main thread
// advances the clock — the socket between them is not a happens-before edge,
// so the counters live behind a lock.
class ScriptedSource : public StatsSource {
 public:
  ScriptedSource(std::string id, ChannelKind kind)
      : id_{std::move(id)}, kind_(kind) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    std::lock_guard<std::mutex> lock(mu_);
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = attrs_;
    return r;
  }

  void set_attrs(std::vector<Attr> a) {
    std::lock_guard<std::mutex> lock(mu_);
    attrs_ = std::move(a);
  }
  template <typename Fn>
  void mutate(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    fn(attrs_);
  }

 private:
  ElementId id_;
  ChannelKind kind_;
  mutable std::mutex mu_;
  std::vector<Attr> attrs_;
};

// A man in the middle for reply damage.  It listens on an ephemeral tcp
// endpoint and, for every client it accepts, dials the real server and
// relays the pull conversation: the hello, then each request and its reply
// (a batch plus the trace data a traced batch piggybacks, or the trace data
// a harvest asks for).  damage_next() arms the next batch reply, once; a
// later call replaces an unconsumed one:
//   kTruncate  forwards only the first `at` bytes, then closes the client
//              (a stream that dies mid-frame);
//   kCorrupt   XORs the byte at `at` (modulo the reply size) with 0x20 (a
//              checksum failure);
//   kDrop      closes the client without replying at all.
// The server serves the batch in every case.
class DamageRelay {
 public:
  enum class Damage { kTruncate, kCorrupt, kDrop };

  explicit DamageRelay(transport::Endpoint upstream)
      : upstream_(std::move(upstream)) {}
  ~DamageRelay() { stop(); }
  DamageRelay(const DamageRelay&) = delete;
  DamageRelay& operator=(const DamageRelay&) = delete;

  Status start() {
    Result<transport::Listener> l =
        transport::Listener::listen(transport::Endpoint::tcp("127.0.0.1", 0));
    if (!l.ok()) return l.status();
    listener_ = std::move(l).take();
    accepter_ = std::thread([this] { accept_loop(); });
    return Status::ok();
  }
  void stop() {
    stop_ = true;
    if (accepter_.joinable()) accepter_.join();
    for (std::thread& t : sessions_) t.join();
    sessions_.clear();
    listener_.close();
  }
  const transport::Endpoint& endpoint() const {
    return listener_.bound_endpoint();
  }

  void damage_next(Damage kind, size_t at = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    damage_ = Armed{kind, at};
  }

 private:
  struct Armed {
    Damage kind;
    size_t at;
  };
  static constexpr WallDuration kDeadline{2000};

  // Only the accepter thread touches sessions_ until stop() joins it.
  void accept_loop() {
    while (!stop_) {
      Result<transport::Socket> a = listener_.accept(WallDuration(20));
      if (!a.ok()) continue;
      sessions_.emplace_back(
          [this, client = std::move(a).take()]() mutable {
            relay(std::move(client));
          });
    }
  }

  // Waits up to 20 ms for the client's next request.
  static bool readable(transport::Socket& s) {
    if (s.buffered() > 0) return true;
    pollfd p{s.fd(), POLLIN, 0};
    return ::poll(&p, 1, 20) > 0;
  }

  static bool forward_message(transport::Socket& from, transport::Socket& to) {
    Result<wire::Message> m = transport::read_message(from, kDeadline);
    return m.ok() &&
           to.send_all(wire::encode_message(m.value().kind, m.value().body),
                       kDeadline)
               .is_ok();
  }

  // Forwards one batch reply with any armed damage applied.  False when the
  // client connection must close.
  bool forward_batch(transport::Socket& server, transport::Socket& client) {
    transport::BatchReadResult reply = transport::read_batch(server, kDeadline);
    std::optional<Armed> damage;
    {
      std::lock_guard<std::mutex> lock(mu_);
      damage = std::exchange(damage_, std::nullopt);
    }
    std::string& bytes = reply.bytes;
    if (damage) {
      switch (damage->kind) {
        case Damage::kDrop:
          return false;
        case Damage::kCorrupt:
          if (!bytes.empty()) bytes[damage->at % bytes.size()] ^= 0x20;
          break;
        case Damage::kTruncate:
          (void)client.send_all(
              std::string_view(bytes).substr(
                  0, std::min(damage->at, bytes.size())),
              kDeadline);
          return false;
      }
    }
    return client.send_all(bytes, kDeadline).is_ok() && reply.clean();
  }

  void relay(transport::Socket client) {
    Result<transport::Socket> up = transport::connect(upstream_, kDeadline);
    if (!up.ok()) return;  // no server: the client sees a closed stream
    transport::Socket server = std::move(up).take();
    if (!forward_message(server, client)) return;  // the hello
    while (!stop_) {
      if (!readable(client)) continue;
      Result<wire::Message> req = transport::read_message(client, kDeadline);
      if (!req.ok()) return;  // the client hung up
      const wire::Message& m = req.value();
      if (!server.send_all(wire::encode_message(m.kind, m.body), kDeadline)
               .is_ok()) {
        return;
      }
      if (m.kind == wire::MessageKind::kBatchRequest) {
        Result<wire::BatchRequestMsg> br = wire::decode_batch_request(m.body);
        if (!br.ok() || !forward_batch(server, client)) return;
        if (br.value().trace_id != 0 && !forward_message(server, client)) {
          return;
        }
      } else if (m.kind == wire::MessageKind::kTraceHarvest) {
        if (!forward_message(server, client)) return;
      } else {
        return;  // only pull conversations are relayed
      }
    }
  }

  transport::Endpoint upstream_;
  transport::Listener listener_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::optional<Armed> damage_;
  std::vector<std::thread> sessions_;
  std::thread accepter_;
};

// The scatter-rig topology of controller_scatter_test, parameterized over
// how the controller reaches each agent: in-process pointer, RemoteAgent
// over loopback tcp, RemoteAgent over a unix-domain socket, or RemoteAgent
// over tcp through a DamageRelay in front of each server.  With
// `reference` the controller reaches each of those through a
// PerIdReference.
class TransportRig {
 public:
  enum class Mode { kInProcess, kTcp, kUnix, kRelayed };

  TransportRig(size_t agents, size_t per_agent, Mode mode,
               bool reference = false)
      : controller_([this](Duration d) { return advance(d); },
                    [this] { return now_; }) {
    const ChannelKind kinds[] = {ChannelKind::kProcFs, ChannelKind::kMbSocket,
                                 ChannelKind::kNetDeviceFile,
                                 ChannelKind::kOvsChannel};
    for (size_t a = 0; a < agents; ++a) {
      agents_.push_back(
          std::make_unique<Agent>("agent-" + std::to_string(a), a + 1));
      Agent* agent = agents_.back().get();

      // Populate the machine first: the server's hello snapshot must carry
      // the complete element set before any adapter dials in.
      std::vector<ScriptedSource*> elems;
      for (size_t e = 0; e < per_agent; ++e) {
        const size_t i = a * per_agent + e;
        auto s = std::make_unique<ScriptedSource>(
            "a" + std::to_string(a) + "/el" + std::to_string(e), kinds[i % 4]);
        s->set_attrs({{attr::kRxPkts, static_cast<double>(1000 * i)},
                      {attr::kTxPkts, static_cast<double>(900 * i)},
                      {attr::kDropPkts, static_cast<double>(10 * i)},
                      {attr::kTxBytes, static_cast<double>(150000 * (i + 1))},
                      {attr::kType, static_cast<double>(
                                        static_cast<int>(ElementKind::kTun))},
                      {attr::kVm, static_cast<double>(i % 3)}});
        EXPECT_TRUE(agent->add_element(s.get()).is_ok());
        elems.push_back(s.get());
        sources_.push_back(std::move(s));
      }
      auto mb = std::make_unique<ScriptedSource>("mb" + std::to_string(a),
                                                 ChannelKind::kMbSocket);
      mb->set_attrs({{attr::kInBytes, 0},
                     {attr::kInTimeNs, 0},
                     {attr::kOutBytes, 0},
                     {attr::kOutTimeNs, 0},
                     {attr::kCapacityMbps, 1000}});
      EXPECT_TRUE(agent->add_element(mb.get()).is_ok());
      mbs_.push_back(mb.get());
      sources_.push_back(std::move(mb));

      AgentClient* client = agent;
      if (mode != Mode::kInProcess) {
        transport::Endpoint ep =
            mode == Mode::kUnix
                ? transport::Endpoint::unix_path(unique_unix_path())
                : transport::Endpoint::tcp("127.0.0.1", 0);
        servers_.push_back(std::make_unique<RemoteAgentServer>(agent, ep));
        EXPECT_TRUE(servers_.back()->start().is_ok());
        ep = servers_.back()->endpoint();
        if (mode == Mode::kRelayed) {
          relays_.push_back(std::make_unique<DamageRelay>(ep));
          EXPECT_TRUE(relays_.back()->start().is_ok());
          ep = relays_.back()->endpoint();
        }
        remotes_.push_back(std::make_unique<RemoteAgent>(ep));
        EXPECT_TRUE(remotes_.back()->connect().is_ok());
        client = remotes_.back().get();
      }
      if (reference) {
        references_.push_back(std::make_unique<PerIdReference>(client));
        client = references_.back().get();
      }
      clients_.push_back(client);

      controller_.register_agent(client);
      for (ScriptedSource* s : elems) {
        EXPECT_TRUE(
            controller_.register_element(tenant_, s->id(), client).is_ok());
        controller_.register_stack_element(client, s->id());
        elements_.push_back(s->id());
      }
      EXPECT_TRUE(
          controller_.register_element(tenant_, mbs_.back()->id(), client)
              .is_ok());
      controller_.register_middlebox(tenant_, mbs_.back()->id());
      if (a > 0) {
        controller_.add_chain_edge(tenant_, mbs_[mbs_.size() - 2]->id(),
                                   mbs_.back()->id());
      }
    }
  }

  SimTime advance(Duration d) {
    now_ = now_ + d;
    const double dt_sec = d.sec();
    size_t i = 0;
    for (auto& s : sources_) {
      s->mutate([&](std::vector<Attr>& attrs) {
        for (Attr& a : attrs) {
          if (a.name == attr::kRxPkts) a.value += (1000 + i) * dt_sec;
          if (a.name == attr::kTxPkts) a.value += (900 + i) * dt_sec;
          if (a.name == attr::kDropPkts) a.value += (3 + i % 5) * dt_sec;
          if (a.name == attr::kTxBytes) a.value += 150000 * dt_sec;
        }
      });
      ++i;
    }
    for (size_t m = 0; m < mbs_.size(); ++m) {
      const double mbps = 1000.0 / (m + 1);
      mbs_[m]->mutate([&](std::vector<Attr>& attrs) {
        for (Attr& a : attrs) {
          if (a.name == attr::kInBytes || a.name == attr::kOutBytes) {
            a.value += mbps * 1e6 / 8 * dt_sec;
          }
          if (a.name == attr::kInTimeNs || a.name == attr::kOutTimeNs) {
            a.value += static_cast<double>(d.ns());
          }
        }
      });
    }
    return now_;
  }

  void install_faults(const FaultPlan* plan, const RetryPolicy& retry) {
    for (auto& a : agents_) {
      a->set_fault_plan(plan);
      a->set_retry_policy(retry);
    }
  }

  Agent* agent(size_t i) { return agents_[i].get(); }
  RemoteAgentServer* server(size_t i) { return servers_[i].get(); }
  DamageRelay* relay(size_t i) { return relays_[i].get(); }
  RemoteAgent* remote(size_t i) { return remotes_[i].get(); }
  // This agent's packet-path element ids, creation order.
  std::vector<ElementId> elements_of_agent(size_t a, size_t per_agent) const {
    return {elements_.begin() + a * per_agent,
            elements_.begin() + (a + 1) * per_agent};
  }

  SimTime now_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<std::unique_ptr<ScriptedSource>> sources_;
  std::vector<std::unique_ptr<RemoteAgentServer>> servers_;
  std::vector<std::unique_ptr<DamageRelay>> relays_;
  std::vector<std::unique_ptr<RemoteAgent>> remotes_;
  std::vector<std::unique_ptr<PerIdReference>> references_;
  std::vector<AgentClient*> clients_;
  std::vector<ScriptedSource*> mbs_;
  std::vector<ElementId> elements_;  // packet-path elements, creation order
  Controller controller_;
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

// The full diagnosis workload of controller_scatter_test, folded into one
// string: its in-process run over the per-id reference is the oracle every
// socket-backed run must reproduce byte-for-byte.
std::string run_script(TransportRig& rig, ThreadPool* pool) {
  Controller& c = rig.controller_;
  c.set_pool(pool);

  std::string out;

  std::vector<ElementId> ids = c.elements_of(rig.tenant_);
  ids.push_back(ElementId{"ghost"});
  for (const auto& r : c.get_attr_many(
           rig.tenant_, ids,
           {attr::kRxPkts, attr::kTxPkts, attr::kDropPkts, attr::kType,
            attr::kVm})) {
    out += fmt(r);
  }

  out += fmt(c.get_attr_q(rig.tenant_, rig.elements_.front(),
                          {attr::kRxPkts, attr::kTxPkts}));

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

  ContentionDetector det(&c, RuleBook::standard());
  out += to_text(det.diagnose(rig.tenant_, Duration::millis(100)));

  RootCauseAnalyzer rca(&c);
  out += to_text(rca.analyze(rig.tenant_, Duration::millis(100)));

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

// --- endpoint + socket primitives --------------------------------------------

TEST(EndpointTest, ParseAcceptsAndRejects) {
  Result<transport::Endpoint> ep =
      transport::Endpoint::parse("tcp:127.0.0.1:7070");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep.value().kind, transport::Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.value().host, "127.0.0.1");
  EXPECT_EQ(ep.value().port, 7070);
  EXPECT_EQ(ep.value().to_string(), "tcp:127.0.0.1:7070");

  Result<transport::Endpoint> u = transport::Endpoint::parse("unix:/tmp/x.s");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().kind, transport::Endpoint::Kind::kUnix);
  EXPECT_EQ(u.value().path, "/tmp/x.s");
  EXPECT_EQ(u.value().to_string(), "unix:/tmp/x.s");

  for (const char* bad :
       {"", "tcp:", "tcp:127.0.0.1", "tcp::7070", "tcp:127.0.0.1:",
        "tcp:127.0.0.1:notaport", "tcp:127.0.0.1:99999", "tcp:127.0.0.1:80x",
        "udp:1.2.3.4:1", "unix:"}) {
    EXPECT_FALSE(transport::Endpoint::parse(bad).ok()) << "'" << bad << "'";
  }
}

TEST(SocketTest, DeadlinesHoldAndPartialBytesSurvive) {
  Result<transport::Listener> l =
      transport::Listener::listen(transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(l.ok());
  transport::Listener listener = std::move(l).take();
  EXPECT_NE(listener.bound_endpoint().port, 0);  // ephemeral port resolved

  Result<transport::Socket> c =
      transport::connect(listener.bound_endpoint(), WallDuration(1000));
  ASSERT_TRUE(c.ok());
  transport::Socket client = std::move(c).take();
  Result<transport::Socket> a = listener.accept(WallDuration(1000));
  ASSERT_TRUE(a.ok());
  transport::Socket server = std::move(a).take();

  // No data: the read must come back in bounded time, empty-handed.
  std::string buf;
  Status st = client.recv_exact(4, &buf, WallDuration(50));
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(buf.empty());

  // Peer dies mid-message: the bytes that made it are the caller's to keep.
  ASSERT_TRUE(server.send_all("abc").is_ok());
  server.close();
  st = client.recv_exact(10, &buf, WallDuration(1000));
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(buf, "abc");
}

// --- the differential contract -----------------------------------------------

TEST(TransportDifferentialTest, SocketAgentsMatchInProcessOracle) {
  TransportRig oracle_rig(3, 3, TransportRig::Mode::kInProcess,
                          /*reference=*/true);
  const std::string oracle = run_script(oracle_rig, nullptr);
  ASSERT_NE(oracle.find("=== Algorithm 1"), std::string::npos);
  ASSERT_NE(oracle.find("=== Algorithm 2"), std::string::npos);
  ASSERT_NE(oracle.find("ALERT ["), std::string::npos);
  ASSERT_NE(oracle.find("ERR(1) no agent serves element ghost"),
            std::string::npos);

  // Batched over tcp, inline gather.
  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp);
    EXPECT_EQ(run_script(rig, nullptr), oracle);
  }
  // Batched over tcp, scatter across a pool.
  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp);
    ThreadPool pool(4);
    EXPECT_EQ(run_script(rig, &pool), oracle);
  }
  // Per-id reference over tcp: every id a batch of one on the wire.
  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp, /*reference=*/true);
    EXPECT_EQ(run_script(rig, nullptr), oracle);
  }
  // Batched over unix-domain sockets.
  {
    TransportRig rig(3, 3, TransportRig::Mode::kUnix);
    EXPECT_EQ(run_script(rig, nullptr), oracle);
  }
}

TEST(TransportDifferentialTest, AgentFaultPlanCrossesTheWireIntact) {
  // Faults at the *agent* (the modelled channels) still produce clean
  // streams: degraded qualities, fail codes and attempt counts are payload,
  // and must cross byte-identically.
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

  TransportRig oracle_rig(3, 3, TransportRig::Mode::kInProcess,
                          /*reference=*/true);
  FaultPlan oracle_plan = make_plan();
  oracle_rig.install_faults(&oracle_plan, retry);
  const std::string oracle = run_script(oracle_rig, nullptr);
  ASSERT_TRUE(oracle.find("q=stale") != std::string::npos ||
              oracle.find("q=torn") != std::string::npos ||
              oracle.find("ERR(3)") != std::string::npos ||
              oracle.find("ERR(5)") != std::string::npos)
      << "fault plan produced no degradation; differential is vacuous";

  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry);
    ThreadPool pool(2);
    EXPECT_EQ(run_script(rig, &pool), oracle);
  }
  {
    TransportRig rig(3, 3, TransportRig::Mode::kTcp, /*reference=*/true);
    FaultPlan plan = make_plan();
    rig.install_faults(&plan, retry);
    EXPECT_EQ(run_script(rig, nullptr), oracle);
  }
}

// --- damaged streams ---------------------------------------------------------

TEST(TransportDamageTest, TornBatchBecomesBlindSpots) {
  ScopedTraceRecorder scoped;
  TransportRig rig(2, 3, TransportRig::Mode::kRelayed);
  std::vector<ElementId> a0 = rig.elements_of_agent(0, 3);

  // Learn the first frame's wire size from a clean round trip, then tear
  // the next batch right after that frame: el0 survives, el1/el2 are lost.
  BatchResponse clean = rig.remote(0)->query_batch(a0, rig.now_);
  ASSERT_EQ(clean.responses.size(), 3u);
  const std::string f0 = wire::encode_frame(clean.responses[0]).value();
  rig.relay(0)->damage_next(DamageRelay::Damage::kTruncate,
                            wire::kBatchHeaderSize + f0.size());

  auto got = rig.controller_.get_attr_many(
      rig.tenant_, rig.elements_, {attr::kRxPkts, attr::kDropPkts});
  ASSERT_EQ(got.size(), 6u);
  EXPECT_TRUE(got[0].ok()) << got[0].status().message();  // a0/el0 survived
  for (size_t i : {1u, 2u}) {
    ASSERT_FALSE(got[i].ok()) << "a0/el" << i << " should be a blind spot";
    EXPECT_EQ(got[i].status().code(), StatusCode::kUnavailable);
    EXPECT_NE(got[i].status().message().find("unavailable after 1 attempt(s)"),
              std::string::npos)
        << got[i].status().message();
  }
  for (size_t i : {3u, 4u, 5u}) {
    EXPECT_TRUE(got[i].ok())
        << "agent-1 must be untouched: " << got[i].status().message();
  }
  EXPECT_EQ(rig.remote(0)->transport_stats().damaged, 1u);

  // Partial data feeds Algorithm 1's blind-spot accounting: coverage drops
  // below 100% and the report says which elements went unmeasured.
  rig.relay(0)->damage_next(DamageRelay::Damage::kTruncate,
                            wire::kBatchHeaderSize);
  ContentionDetector det(&rig.controller_, RuleBook::standard());
  std::string report =
      to_text(det.diagnose(rig.tenant_, Duration::millis(100)));
  EXPECT_NE(report.find("coverage"), std::string::npos) << report;

  // The torn connection heals on the next query.
  auto healed = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                              {attr::kRxPkts});
  for (const auto& r : healed) EXPECT_TRUE(r.ok()) << r.status().message();
  EXPECT_GE(rig.remote(0)->transport_stats().reconnects, 1u);

  // Lifecycle left a trail: connects at rig construction, damage events for
  // the torn batches.
  size_t connects = 0, damaged = 0;
  for (const TraceEvent& e :
       scoped.recorder().events_for(ElementId{"transport"})) {
    if (e.kind == TraceEventKind::kTransportConnect) ++connects;
    if (e.kind == TraceEventKind::kTransportDamaged) ++damaged;
  }
  EXPECT_EQ(connects, 2u);  // one per rig agent
  EXPECT_GE(damaged, 2u);
  EXPECT_STREQ(to_string(TraceEventKind::kTransportConnect),
               "transport_connect");
  EXPECT_STREQ(to_string(TraceEventKind::kTransportReconnect),
               "transport_reconnect");
  EXPECT_STREQ(to_string(TraceEventKind::kTransportDamaged),
               "transport_damaged");
}

TEST(TransportDamageTest, CorruptFrameReconcilesAndRecovers) {
  TransportRig rig(2, 3, TransportRig::Mode::kRelayed);

  // Flip a byte inside the first frame's payload: the checksum fails, the
  // length chain past the frame is untrustworthy, and every element of
  // agent-0's batch degrades to a kMissing blind spot.
  rig.relay(0)->damage_next(
      DamageRelay::Damage::kCorrupt,
      wire::kBatchHeaderSize + wire::kFramePrefixSize + 2);
  auto got = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                           {attr::kRxPkts});
  ASSERT_EQ(got.size(), 6u);
  for (size_t i : {0u, 1u, 2u}) {
    ASSERT_FALSE(got[i].ok());
    EXPECT_EQ(got[i].status().code(), StatusCode::kUnavailable);
    EXPECT_NE(got[i].status().message().find("unavailable after 1 attempt(s)"),
              std::string::npos);
  }
  for (size_t i : {3u, 4u, 5u}) EXPECT_TRUE(got[i].ok());
  EXPECT_EQ(rig.remote(0)->transport_stats().damaged, 1u);

  auto healed = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                              {attr::kRxPkts});
  for (const auto& r : healed) EXPECT_TRUE(r.ok()) << r.status().message();
}

TEST(TransportDamageTest, DroppedReplyResendsOnceInvisibly) {
  TransportRig rig(1, 3, TransportRig::Mode::kRelayed);

  // The server closes without replying: zero reply bytes arrived, so the
  // idempotent read earns exactly one reconnect + resend and the caller
  // never notices.
  rig.relay(0)->damage_next(DamageRelay::Damage::kDrop);
  auto got = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                           {attr::kRxPkts});
  ASSERT_EQ(got.size(), 3u);
  for (const auto& r : got) {
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().quality, DataQuality::kFresh);
  }
  RemoteAgent::TransportStats stats = rig.remote(0)->transport_stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.damaged, 0u);
}

// A frame lost on the wire and a batch lost with its server are blind spots
// stamped with the query time, as an in-process channel failure is.
TEST(TransportDamageTest, LostFramesBecomeBlindSpotsAtTheQueryTime) {
  TransportRig rig(1, 3, TransportRig::Mode::kRelayed);
  const std::vector<ElementId> ids = rig.elements_of_agent(0, 3);
  const SimTime t = SimTime::millis(7);

  // Torn after the header: every frame is lost.
  rig.relay(0)->damage_next(DamageRelay::Damage::kTruncate,
                            wire::kBatchHeaderSize);
  BatchResponse torn = rig.remote(0)->query_batch(ids, t);
  ASSERT_EQ(torn.responses.size(), 3u);
  for (const QueryResponse& r : torn.responses) {
    EXPECT_EQ(r.quality, DataQuality::kMissing);
    EXPECT_EQ(r.record.timestamp.ns(), t.ns()) << r.record.element.name;
  }

  // The server is gone: nothing arrives at all.
  rig.server(0)->stop();
  BatchResponse lost = rig.remote(0)->query_batch(ids, t);
  ASSERT_EQ(lost.responses.size(), 3u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(lost.responses[i].record.element, ids[i]);
    EXPECT_EQ(lost.responses[i].quality, DataQuality::kMissing);
    EXPECT_EQ(lost.responses[i].fail_code, StatusCode::kUnavailable);
    EXPECT_EQ(lost.responses[i].record.timestamp.ns(), t.ns());
  }
}

// --- reconnect + breaker -----------------------------------------------------

TEST(TransportReconnectTest, ServerRestartHeals) {
  TransportRig rig(1, 2, TransportRig::Mode::kTcp);
  RetryPolicy rp;
  rp.max_attempts = 2;
  rp.initial_backoff = Duration::millis(1);
  rp.max_backoff = Duration::millis(2);
  rig.remote(0)->set_retry_policy(rp);
  rig.remote(0)->set_deadline(WallDuration(500));

  const transport::Endpoint ep = rig.server(0)->endpoint();
  rig.server(0)->stop();

  // Agent down: every element is a blind spot, not an exception.
  auto dark = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                            {attr::kRxPkts});
  ASSERT_EQ(dark.size(), 2u);
  for (const auto& r : dark) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }

  // A new server process on the same endpoint: the adapter reconnects on
  // the next query and data flows again.
  RemoteAgentServer revived(rig.agent(0), ep);
  ASSERT_TRUE(revived.start().is_ok());
  auto healed = rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                              {attr::kRxPkts});
  for (const auto& r : healed) EXPECT_TRUE(r.ok()) << r.status().message();
  EXPECT_GE(rig.remote(0)->transport_stats().reconnects, 1u);
}

TEST(TransportBreakerTest, BreakerFastFailsThenHalfOpenProbeRecovers) {
  TransportRig rig(1, 2, TransportRig::Mode::kTcp);
  CircuitBreakerConfig cb;
  cb.failure_threshold = 2;
  cb.cooldown = Duration::millis(100);
  rig.remote(0)->set_breaker_config(cb);
  RetryPolicy rp;
  rp.max_attempts = 1;
  rig.remote(0)->set_retry_policy(rp);
  rig.remote(0)->set_deadline(WallDuration(500));

  const transport::Endpoint ep = rig.server(0)->endpoint();
  rig.server(0)->stop();
  std::vector<ElementId> ids = rig.elements_;

  // Two consecutive connect failures open the breaker...
  (void)rig.remote(0)->query_batch(ids, rig.now_);
  (void)rig.remote(0)->query_batch(ids, rig.now_);
  EXPECT_EQ(rig.remote(0)->breaker_state(), BreakerState::kOpen);

  // ...after which queries fast-fail without paying a dial timeout.
  BatchResponse fast = rig.remote(0)->query_batch(ids, rig.now_);
  ASSERT_EQ(fast.responses.size(), ids.size());
  for (const QueryResponse& r : fast.responses) {
    EXPECT_EQ(r.quality, DataQuality::kMissing);
    EXPECT_EQ(r.fail_code, StatusCode::kUnavailable);
  }
  EXPECT_GE(rig.remote(0)->transport_stats().fast_fails, 1u);

  // Cooldown over + server back: the half-open probe reconnects and closes
  // the breaker.
  RemoteAgentServer revived(rig.agent(0), ep);
  ASSERT_TRUE(revived.start().is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  BatchResponse back = rig.remote(0)->query_batch(ids, rig.now_);
  ASSERT_EQ(back.responses.size(), ids.size());
  for (const QueryResponse& r : back.responses) {
    EXPECT_EQ(r.quality, DataQuality::kFresh);
  }
  EXPECT_EQ(rig.remote(0)->breaker_state(), BreakerState::kClosed);
}

// --- observability + deployment ----------------------------------------------

TEST(TransportObservabilityTest, CountersCoverTheTransportLifecycle) {
  TransportRig rig(1, 2, TransportRig::Mode::kRelayed);
  MetricsRegistry reg;
  rig.remote(0)->set_metrics(&reg);

  (void)rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                      {attr::kRxPkts});
  rig.relay(0)->damage_next(
      DamageRelay::Damage::kCorrupt,
      wire::kBatchHeaderSize + wire::kFramePrefixSize + 2);
  (void)rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                      {attr::kRxPkts});
  (void)rig.controller_.get_attr_many(rig.tenant_, rig.elements_,
                                      {attr::kRxPkts});  // reconnects

  std::string exposed = reg.expose(rig.now_);
  EXPECT_NE(exposed.find("perfsight_transport_connects_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_transport_reconnects_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_transport_batches_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("perfsight_transport_damaged_batches_total"),
            std::string::npos);
  EXPECT_NE(exposed.find("agent=\"agent-0\""), std::string::npos);
}

TEST(DeploymentRemoteTest, AddRemoteAgentWiresIntoTheControlPlane) {
  // A standalone machine: one agent + server, off in its own "process".
  Agent agent("agent-r", 7);
  ScriptedSource src("r/el0", ChannelKind::kProcFs);
  src.set_attrs({{attr::kRxPkts, 1234.0}});
  ASSERT_TRUE(agent.add_element(&src).is_ok());
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  sim::Simulator sim(Duration::millis(1));
  cluster::Deployment dep(&sim);
  EXPECT_FALSE(dep.add_remote_agent("tcp:127.0.0.1:notaport").ok());
  Result<RemoteAgent*> r = dep.add_remote_agent(server.endpoint().to_string());
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_TRUE(dep.assign_remote(TenantId{1}, src.id(), r.value()).is_ok());

  auto got =
      dep.controller()->get_attr_q(TenantId{1}, src.id(), {attr::kRxPkts});
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_EQ(got.value().record.attrs.size(), 1u);
  EXPECT_EQ(got.value().record.attrs[0].value, 1234.0);
}

// Regression: an element id too long for the wire used to be accepted by
// add_element and then abort the fleet server while it encoded the hello.
// The id is now refused at registration and the server keeps serving the
// rest of the agent.
TEST(DeploymentRemoteTest, OversizeElementIdIsRefusedAndServerKeepsServing) {
  Agent agent("agent-r", 7);
  ScriptedSource ok("r/el0", ChannelKind::kProcFs);
  ok.set_attrs({{attr::kRxPkts, 42.0}});
  ScriptedSource huge(std::string(70000, 'x'), ChannelKind::kProcFs);
  ASSERT_TRUE(agent.add_element(&ok).is_ok());
  EXPECT_EQ(agent.add_element(&huge).code(), StatusCode::kInvalidArgument);
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  RemoteAgent remote(server.endpoint());
  ASSERT_TRUE(remote.connect().is_ok());
  EXPECT_EQ(remote.element_ids(), std::vector<ElementId>{ok.id()});
  BatchResponse b = remote.query_batch({ok.id()}, SimTime::millis(5), nullptr);
  ASSERT_EQ(b.responses.size(), 1u);
  EXPECT_EQ(b.responses[0].record.get(attr::kRxPkts), 42.0);
  // A second connection after the refused id: the server is still up.
  RemoteAgent again(server.endpoint());
  EXPECT_TRUE(again.connect().is_ok());
}

// Remote agents must feed the same element-stat exposition as in-process
// ones: add_agent_client() scrapes over the socket, and the stat lines the
// registry renders must be the ones an in-process registration would have
// produced for the identical machine.
TEST(TransportObservabilityTest, RemoteAgentMetricsMatchInProcessExposition) {
  TransportRig local(1, 2, TransportRig::Mode::kInProcess);
  TransportRig remote(1, 2, TransportRig::Mode::kTcp);

  MetricsRegistry lreg, rreg;
  lreg.add_agent(local.agent(0));
  rreg.add_agent_client(remote.remote(0));
  ASSERT_EQ(rreg.num_agent_clients(), 1u);

  auto stat_lines = [](const std::string& exposed) {
    std::vector<std::string> lines;
    size_t at = 0;
    while ((at = exposed.find("perfsight_element_stat{", at)) !=
           std::string::npos) {
      size_t end = exposed.find('\n', at);
      lines.push_back(exposed.substr(at, end - at));
      at = end;
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const std::vector<std::string> want = stat_lines(lreg.expose(local.now_));
  const std::vector<std::string> got = stat_lines(rreg.expose(remote.now_));
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

// --- fleet tracing -----------------------------------------------------------

// The tentpole end-to-end: a traced scatter over two socket-backed agents
// whose span clocks are skewed by seconds in opposite directions.  Every
// harvested serve span must (a) parent to the controller's scatter span id
// that travelled on the request envelope, and (b) come back to the local
// clock once the hello-estimated offset is subtracted.
TEST(FleetTracingTest, RemoteSpansResolveToScatterAcrossSkewedClocks) {
  Agent agent_a("agent-a", 1);
  Agent agent_b("agent-b", 2);
  ScriptedSource a0("a/el0", ChannelKind::kProcFs);
  ScriptedSource a1("a/el1", ChannelKind::kOvsChannel);
  ScriptedSource b0("b/el0", ChannelKind::kMbSocket);
  for (ScriptedSource* s : {&a0, &a1, &b0}) {
    s->set_attrs({{attr::kRxPkts, 42.0}});
  }
  ASSERT_TRUE(agent_a.add_element(&a0).is_ok());
  ASSERT_TRUE(agent_a.add_element(&a1).is_ok());
  ASSERT_TRUE(agent_b.add_element(&b0).is_ok());

  RemoteAgentServer sa(&agent_a, transport::Endpoint::tcp("127.0.0.1", 0));
  RemoteAgentServer sb(&agent_b, transport::Endpoint::tcp("127.0.0.1", 0));
  sa.set_clock_skew_ns(2'000'000'000);   // this machine runs 2 s ahead
  sb.set_clock_skew_ns(-3'000'000'000);  // this one 3 s behind
  ASSERT_TRUE(sa.start().is_ok());
  ASSERT_TRUE(sb.start().is_ok());

  ScopedTraceRecorder scoped;  // fleet tracing on for the whole test

  RemoteAgent ra(sa.endpoint());
  RemoteAgent rb(sb.endpoint());
  const int64_t wall0 = transport::span_clock_ns();
  ASSERT_TRUE(ra.connect().is_ok());
  ASSERT_TRUE(rb.connect().is_ok());
  // The hello handshake must have absorbed (nearly all of) the skew.
  EXPECT_NEAR(static_cast<double>(ra.clock_offset_ns()), 2e9, 2e8);
  EXPECT_NEAR(static_cast<double>(rb.clock_offset_ns()), -3e9, 2e8);

  SimTime now;
  Controller controller(
      [&now](Duration d) {
        now = now + d;
        return now;
      },
      [&now] { return now; });
  ThreadPool pool(2);
  controller.set_pool(&pool);
  const TenantId tenant{1};
  controller.register_agent(&ra);
  controller.register_agent(&rb);
  ASSERT_TRUE(controller.register_element(tenant, a0.id(), &ra).is_ok());
  ASSERT_TRUE(controller.register_element(tenant, a1.id(), &ra).is_ok());
  ASSERT_TRUE(controller.register_element(tenant, b0.id(), &rb).is_ok());

  auto got = controller.get_attr_many(tenant, {a0.id(), a1.id(), b0.id()},
                                      {attr::kRxPkts});
  ASSERT_EQ(got.size(), 3u);
  for (const auto& r : got) ASSERT_TRUE(r.ok()) << r.status().message();

  // The reply piggyback already shipped the serve spans; an explicit harvest
  // must find the rings drained (exactly-once) or pick up any leftovers.
  ASSERT_TRUE(ra.harvest_trace().is_ok());
  ASSERT_TRUE(rb.harvest_trace().is_ok());
  const int64_t wall1 = transport::span_clock_ns();

  TraceRecorder& rec = scoped.recorder();
  uint64_t scatter = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.kind == TraceEventKind::kSpanScatter) scatter = e.span_id;
  }
  ASSERT_NE(scatter, 0u);

  const std::vector<TraceRecorder::RemoteLane> lanes = rec.remote_lanes();
  ASSERT_EQ(lanes.size(), 2u);
  size_t serve_spans = 0;
  for (const TraceRecorder::RemoteLane& lane : lanes) {
    for (size_t i = 0; i < lane.events.size(); ++i) {
      const TraceEvent& e = lane.events[i];
      if (i > 0) {
        EXPECT_GE(e.t.ns(), lane.events[i - 1].t.ns());  // monotone per lane
      }
      if (e.kind != TraceEventKind::kSpanServerBatch) continue;
      ++serve_spans;
      EXPECT_EQ(e.parent_span, scatter)
          << lane.process << " serve span lost its scatter parent";
      // Offset-corrected, the serve span lands inside this test's wall-clock
      // window — seconds off if the skew were not being corrected.
      const int64_t corrected = e.t.ns() - lane.clock_offset_ns;
      EXPECT_GE(corrected, wall0 - 300'000'000);
      EXPECT_LE(corrected, wall1 + 300'000'000);
    }
  }
  EXPECT_EQ(serve_spans, 2u);  // one per agent batch

  const std::string json = to_chrome_trace(rec);
  ASSERT_TRUE(json::lint(json).is_ok()) << json::lint(json).message();
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("agent-a"), std::string::npos);
  EXPECT_NE(json.find("agent-b"), std::string::npos);
  EXPECT_NE(json.find("\"parent_span\":\"" + std::to_string(scatter) + "\""),
            std::string::npos);

  // CI artifact hook: when PERFSIGHT_TRACE_EXPORT names a path, leave the
  // merged multi-process trace there for upload.
  if (const char* path = std::getenv("PERFSIGHT_TRACE_EXPORT")) {
    std::ofstream f(path);
    f << json;
    ASSERT_TRUE(f.good()) << "failed to write " << path;
  }
}

// With no recorder installed, tracing must add zero bytes to the wire
// conversation: trace_id 0 travels on the envelope and the server answers
// with the payload alone.  The differential suite pins byte-identical
// replies; here we pin that no piggyback message follows them.
TEST(FleetTracingTest, DisabledTracingShipsNoTraceBytes) {
  Agent agent("agent-q", 3);
  ScriptedSource s0("q/el0", ChannelKind::kProcFs);
  s0.set_attrs({{attr::kRxPkts, 7.0}});
  ASSERT_TRUE(agent.add_element(&s0).is_ok());
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  RemoteAgent remote(server.endpoint());
  ASSERT_TRUE(remote.connect().is_ok());
  BatchResponse b = remote.query_batch({s0.id()}, SimTime::millis(1));
  ASSERT_EQ(b.responses.size(), 1u);
  EXPECT_EQ(b.responses[0].quality, DataQuality::kFresh);

  // The server recorded nothing traceable and shipped nothing: a harvest
  // finds empty rings, and the global recorder gained no lanes.
  ASSERT_TRUE(remote.harvest_trace().is_ok());
  EXPECT_EQ(TraceRecorder::global().num_remote_lanes(), 0u);
  RemoteAgent::TransportStats stats = remote.transport_stats();
  EXPECT_EQ(stats.damaged, 0u);  // no stray bytes misparsed as payload
}

// --- end-to-end I/O deadlines ------------------------------------------------

namespace {

void append_u32(std::string* s, uint32_t v) {
  for (int i = 0; i < 4; ++i) s->push_back(static_cast<char>(v >> (8 * i)));
}
void append_u64(std::string* s, uint64_t v) {
  for (int i = 0; i < 8; ++i) s->push_back(static_cast<char>(v >> (8 * i)));
}

// A structurally valid PSB2 batch of `frames` frames, `payload` bytes each.
// read_batch only walks the length chain, so checksums need not verify.
std::string synthetic_batch(uint32_t frames, uint32_t payload) {
  std::string b;
  append_u32(&b, wire::kMagic);
  append_u32(&b, frames);
  append_u64(&b, 0);  // channel_time_ns
  append_u32(&b, 0);  // unknown_ids
  for (uint32_t f = 0; f < frames; ++f) {
    append_u32(&b, payload);
    append_u64(&b, 0);  // checksum (not read_batch's concern)
    b.append(payload, 'x');
  }
  return b;
}

// A connected loopback socket pair for peer-misbehaviour tests.
struct SocketPair {
  transport::Socket client;
  transport::Socket server;
  static SocketPair make() {
    Result<transport::Listener> l = transport::Listener::listen(
        transport::Endpoint::unix_path(unique_unix_path()));
    EXPECT_TRUE(l.ok());
    transport::Listener listener = std::move(l).take();
    Result<transport::Socket> c =
        transport::connect(listener.bound_endpoint(), WallDuration(1000));
    EXPECT_TRUE(c.ok());
    Result<transport::Socket> a = listener.accept(WallDuration(1000));
    EXPECT_TRUE(a.ok());
    return {std::move(c).take(), std::move(a).take()};
  }
};

}  // namespace

// The regression the length-chain reader is held to: a peer that trickles a
// batch frame-by-frame, each gap shorter than the deadline, must cost the
// reader ONE deadline total — not frames × deadline.  (The old code handed
// every recv_exact a fresh relative budget, so a 16-frame batch dribbled at
// 50ms could hold a 300ms reader for ~1.5s.)
TEST(TransportDeadlineTest, TrickledBatchCostsOneDeadlineNotOnePerFrame) {
  SocketPair pair = SocketPair::make();
  const std::string batch = synthetic_batch(16, 64);

  std::atomic<bool> stop{false};
  std::thread dribbler([&] {
    // ~40-byte chunks every 50ms: every individual recv makes progress well
    // inside a 300ms window, but the whole batch takes ~1.5s.
    for (size_t at = 0; at < batch.size() && !stop; at += 40) {
      if (!pair.server.send_all(std::string_view(batch).substr(
              at, std::min<size_t>(40, batch.size() - at))).is_ok()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  const auto t0 = transport::Clock::now();
  transport::BatchReadResult read =
      transport::read_batch(pair.client, WallDuration(300));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      transport::Clock::now() - t0);
  stop = true;
  dribbler.join();

  EXPECT_FALSE(read.clean());
  EXPECT_EQ(read.status.code(), StatusCode::kDeadlineExceeded);
  // One budget, promptly enforced: far under the ~1.5s the dribble runs
  // (slack above 300ms only for scheduler noise, not per-frame restarts).
  EXPECT_LT(elapsed.count(), 900);
  // The bytes that made it are the caller's to reconcile.
  EXPECT_FALSE(read.bytes.empty());
}

// The complement: a slow-but-inside-budget peer is NOT penalized — the
// whole-batch budget only caps total time, it never fails a stream that
// finishes within it.
TEST(TransportDeadlineTest, SlowPeerInsideTheBudgetStillCompletes) {
  SocketPair pair = SocketPair::make();
  const std::string batch = synthetic_batch(8, 32);

  std::thread dribbler([&] {
    for (size_t at = 0; at < batch.size(); at += 64) {
      ASSERT_TRUE(pair.server.send_all(std::string_view(batch).substr(
          at, std::min<size_t>(64, batch.size() - at))).is_ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  transport::BatchReadResult read =
      transport::read_batch(pair.client, WallDuration(5000));
  dribbler.join();
  EXPECT_TRUE(read.clean());
  EXPECT_EQ(read.bytes, batch);
}

// Sends must be as deadline-correct as reads: a peer that never drains its
// receive buffer stalls send() at EAGAIN, and the old unbounded send_all
// would poll forever.  The deadline form returns kDeadlineExceeded with the
// partial-progress offset in the message.
TEST(TransportDeadlineTest, SendAllHonorsDeadlineAgainstAStalledPeer) {
  SocketPair pair = SocketPair::make();
  // Unix-socket buffers are a few hundred KB: 8MB cannot fit, and the peer
  // never reads, so the send MUST stall.
  const std::string payload(8 * 1024 * 1024, 'p');

  const auto t0 = transport::Clock::now();
  Status st = pair.client.send_all(payload, WallDuration(250));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      transport::Clock::now() - t0);

  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("send deadline"), std::string::npos) << st.message();
  EXPECT_LT(elapsed.count(), 1500);
}

// --- the socket receive buffer ----------------------------------------------

// A traced batch reply is a PSB2 batch with a PSM2 trace-data message right
// behind it, and one recv can pull both into the buffer: read_batch must
// hand back exactly the batch and leave the message for read_message.
TEST(SocketBufferTest, BatchThenMessageInOneSendSplitCleanly) {
  SocketPair pair = SocketPair::make();
  BatchResponse b;
  for (int i = 0; i < 3; ++i) {
    QueryResponse r;
    r.record.timestamp = SimTime::millis(5);
    r.record.element = ElementId{"el" + std::to_string(i)};
    r.record.attrs = {{attr::kRxPkts, 10.0 * i}, {attr::kTxPkts, 9.0 * i}};
    b.responses.push_back(std::move(r));
  }
  const std::string batch = wire::encode_batch(b).value();
  wire::TraceDataMsg td;
  td.process = "agent-x";
  const std::string message = wire::encode_message(
      wire::MessageKind::kTraceData, wire::encode_trace_data(td));
  ASSERT_TRUE(pair.server.send_all(batch + message).is_ok());

  transport::BatchReadResult read =
      transport::read_batch(pair.client, WallDuration(1000));
  ASSERT_TRUE(read.clean()) << read.status.message();
  EXPECT_EQ(read.bytes, batch);
  EXPECT_EQ(pair.client.buffered(), message.size());

  Result<wire::Message> msg =
      transport::read_message(pair.client, WallDuration(1000));
  ASSERT_TRUE(msg.ok()) << msg.status().message();
  EXPECT_EQ(msg.value().kind, wire::MessageKind::kTraceData);
  Result<wire::TraceDataMsg> back = wire::decode_trace_data(msg.value().body);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().process, "agent-x");
  EXPECT_EQ(pair.client.buffered(), 0u);
}

// A stream torn mid-frame: every byte that arrived is returned, however
// many of them one recv pulled into the buffer.
TEST(SocketBufferTest, TornMidFrameKeepsEveryByte) {
  SocketPair pair = SocketPair::make();
  const std::string batch = synthetic_batch(8, 100);
  const std::string prefix =
      batch.substr(0, wire::kBatchHeaderSize + 3 * (12 + 100) + 50);
  ASSERT_TRUE(pair.server.send_all(prefix).is_ok());
  pair.server.close();

  transport::BatchReadResult read =
      transport::read_batch(pair.client, WallDuration(1000));
  EXPECT_EQ(read.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(read.bytes, prefix);
  EXPECT_EQ(pair.client.buffered(), 0u);
}

// Bytes parked in the buffer are readable: read_some hands them out
// without a poll (the kernel queue is empty), and close() discards them.
TEST(SocketBufferTest, WaitReadableAndReadSomeSeeBufferedBytes) {
  SocketPair pair = SocketPair::make();
  const std::string batch = synthetic_batch(4, 16);
  ASSERT_TRUE(pair.server.send_all(batch + "tail").is_ok());

  transport::BatchReadResult read =
      transport::read_batch(pair.client, WallDuration(1000));
  ASSERT_TRUE(read.clean());
  EXPECT_EQ(read.bytes, batch);
  ASSERT_EQ(pair.client.buffered(), 4u);

  pair.client.set_nonblocking(true);
  std::string got;
  Result<size_t> n = pair.client.read_some(&got);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 4u);
  EXPECT_EQ(got, "tail");
  n = pair.client.read_some(&got);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);  // buffer and kernel queue both empty

  // A move carries buffered bytes; close() drops them.
  ASSERT_TRUE(pair.server.send_all(batch + "more").is_ok());
  pair.client.set_nonblocking(false);
  ASSERT_TRUE(transport::read_batch(pair.client, WallDuration(1000)).clean());
  transport::Socket moved = std::move(pair.client);
  EXPECT_EQ(pair.client.buffered(), 0u);
  EXPECT_EQ(moved.buffered(), 4u);
  moved.close();
  EXPECT_EQ(moved.buffered(), 0u);
}

// --- input the wire cannot carry ---------------------------------------------

// Regression: an id over 65535 bytes used to abort the controller in the
// request encoder.  No agent can serve such an id (add_element refuses
// it), so the adapter keeps it off the wire and answers as the in-process
// agent does: counted unknown in a batch, not_found for a single query.
TEST(TransportOversizeTest, OversizeIdStaysOffTheWire) {
  Agent agent("agent-r", 7);
  ScriptedSource ok("r/el0", ChannelKind::kProcFs);
  ok.set_attrs({{attr::kRxPkts, 42.0}});
  ASSERT_TRUE(agent.add_element(&ok).is_ok());
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());
  RemoteAgent remote(server.endpoint());
  ASSERT_TRUE(remote.connect().is_ok());

  const ElementId huge{std::string(70000, 'x')};
  const std::vector<ElementId> ids{huge, ok.id(), ElementId{"ghost"}};
  BatchResponse b = remote.query_batch(ids, SimTime::millis(5), nullptr);
  ASSERT_EQ(b.responses.size(), 1u);
  EXPECT_EQ(b.responses[0].record.element, ok.id());
  EXPECT_EQ(b.responses[0].record.get(attr::kRxPkts), 42.0);
  EXPECT_EQ(b.unknown_ids, 2u);
  EXPECT_EQ(b.unknown_ids,
            agent.query_batch(ids, SimTime::millis(5)).unknown_ids);

  Result<QueryResponse> one =
      remote.query_attrs(huge, {attr::kRxPkts}, SimTime::millis(5));
  Result<QueryResponse> local =
      agent.query_attrs(huge, {attr::kRxPkts}, SimTime::millis(5));
  ASSERT_FALSE(one.ok());
  ASSERT_FALSE(local.ok());
  EXPECT_EQ(one.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(one.status().message(), local.status().message());

  // An attr name no frame could carry is left out like an attr the
  // element lacks.
  Result<QueryResponse> wide = remote.query_attrs(
      ok.id(), {std::string(70000, 'a'), attr::kRxPkts}, SimTime::millis(6));
  ASSERT_TRUE(wide.ok()) << wide.status().message();
  ASSERT_EQ(wide.value().record.attrs.size(), 1u);
  EXPECT_EQ(wide.value().record.attrs[0].name, attr::kRxPkts);

  // The connection stayed framed: the next query crosses as usual.
  EXPECT_TRUE(remote.query_attrs(ok.id(), {attr::kRxPkts}, SimTime::millis(6))
                  .ok());
  EXPECT_EQ(remote.transport_stats().connects, 1u);
}

// Regression: a source emitting an attr name over 65535 bytes used to
// abort the fleet server when it encoded the reply.  Now only that
// connection closes: the client reconciles the batch to blind spots, and
// the server keeps serving everyone else.
TEST(TransportOversizeTest, OversizeAttrClosesOnlyThatConnection) {
  Agent bad("agent-bad", 1);
  Agent good("agent-good", 2);
  ScriptedSource wide("bad/el0", ChannelKind::kProcFs);
  wide.set_attrs({{std::string(70000, 'a'), 1.0}});
  ScriptedSource fine("good/el0", ChannelKind::kProcFs);
  fine.set_attrs({{attr::kRxPkts, 9.0}});
  ASSERT_TRUE(bad.add_element(&wide).is_ok());
  ASSERT_TRUE(good.add_element(&fine).is_ok());
  RemoteAgentServer server(std::vector<Agent*>{&bad, &good},
                           transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());

  RemoteAgent to_good(server.endpoint(), "agent-good");
  ASSERT_TRUE(to_good.connect().is_ok());
  RemoteAgent to_bad(server.endpoint(), "agent-bad");
  ASSERT_TRUE(to_bad.connect().is_ok());

  BatchResponse b =
      to_bad.query_batch({wide.id()}, SimTime::millis(5), nullptr);
  ASSERT_EQ(b.responses.size(), 1u);
  EXPECT_EQ(b.responses[0].record.element, wide.id());
  EXPECT_EQ(b.responses[0].quality, DataQuality::kMissing);
  EXPECT_EQ(b.responses[0].fail_code, StatusCode::kUnavailable);

  EXPECT_TRUE(server.running());
  BatchResponse g =
      to_good.query_batch({fine.id()}, SimTime::millis(5), nullptr);
  ASSERT_EQ(g.responses.size(), 1u);
  EXPECT_EQ(g.responses[0].quality, DataQuality::kFresh);
  EXPECT_EQ(g.responses[0].record.get(attr::kRxPkts), 9.0);
}

// Regression: an agent name over 65535 bytes used to abort the first
// hello encode on the serve thread.  start() refuses it up front.
TEST(TransportOversizeTest, OversizeAgentNameIsRefusedAtStart) {
  Agent agent(std::string(70000, 'n'), 1);
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  Status st = server.start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("65535-byte wire limit"), std::string::npos);
  EXPECT_FALSE(server.running());
}

// --- protocol confusion ------------------------------------------------------

// A client that sends a retired kind (3 to 6) or a kind only a server or a
// harvester sends is confused: the server closes that connection and keeps
// serving every other one.
TEST(TransportProtocolTest, RetiredAndServerKindsCloseOnlyThatConnection) {
  Agent agent("agent-p", 3);
  ScriptedSource el("p/el0", ChannelKind::kProcFs);
  el.set_attrs({{attr::kRxPkts, 5.0}});
  ASSERT_TRUE(agent.add_element(&el).is_ok());
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());
  RemoteAgent remote(server.endpoint(), "agent-p");
  ASSERT_TRUE(remote.connect().is_ok());

  const transport::WallDuration deadline{2000};
  for (wire::MessageKind kind :
       {wire::MessageKind::kSingleRequest, wire::MessageKind::kListElements,
        wire::MessageKind::kSingleResponse, wire::MessageKind::kError,
        wire::MessageKind::kHello, wire::MessageKind::kTraceData,
        wire::MessageKind::kStreamData, wire::MessageKind::kIntReport}) {
    SCOPED_TRACE(wire::to_string(kind));
    Result<transport::Greeting> raw =
        transport::dial_hello(server.endpoint(), deadline);
    ASSERT_TRUE(raw.ok()) << raw.status().message();
    transport::Socket& sock = raw.value().sock;
    ASSERT_TRUE(
        sock.send_all(wire::encode_message(kind, ""), deadline).is_ok());
    Result<wire::Message> reply = transport::read_message(sock, deadline);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable)
        << reply.status().message();

    BatchResponse b = remote.query_batch({el.id()}, SimTime::millis(1));
    ASSERT_EQ(b.responses.size(), 1u);
    EXPECT_EQ(b.responses[0].quality, DataQuality::kFresh);
  }
  EXPECT_EQ(remote.transport_stats().connects, 1u);
}

// Every request names its agent: a batch request without the agent field
// (the layout before routing by name), one naming "" and a subscribe
// naming "" each close the connection that sent it, and the others keep
// being served.
TEST(TransportProtocolTest, NamelessRequestsCloseOnlyThatConnection) {
  Agent agent("agent-p", 3);
  ScriptedSource el("p/el0", ChannelKind::kProcFs);
  el.set_attrs({{attr::kRxPkts, 5.0}});
  ASSERT_TRUE(agent.add_element(&el).is_ok());
  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(server.start().is_ok());
  RemoteAgent remote(server.endpoint());
  ASSERT_TRUE(remote.connect().is_ok());

  const std::string empty_name = wire::encode_batch_request(
      {SimTime::millis(1), {el.id()}, 0, 0, ""});
  const std::string requests[] = {
      wire::encode_message(wire::MessageKind::kBatchRequest,
                           empty_name.substr(0, empty_name.size() - 2)),
      wire::encode_message(wire::MessageKind::kBatchRequest, empty_name),
      wire::encode_message(wire::MessageKind::kSubscribe,
                           wire::encode_subscribe({"", 0, 0})),
  };
  const transport::WallDuration deadline{2000};
  for (const std::string& request : requests) {
    Result<transport::Greeting> raw =
        transport::dial_hello(server.endpoint(), deadline);
    ASSERT_TRUE(raw.ok()) << raw.status().message();
    transport::Socket& sock = raw.value().sock;
    ASSERT_TRUE(sock.send_all(request, deadline).is_ok());
    Result<wire::Message> reply = transport::read_message(sock, deadline);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable)
        << reply.status().message();

    BatchResponse b = remote.query_batch({el.id()}, SimTime::millis(1));
    ASSERT_EQ(b.responses.size(), 1u);
    EXPECT_EQ(b.responses[0].quality, DataQuality::kFresh);
  }
  EXPECT_EQ(remote.transport_stats().connects, 1u);
  EXPECT_EQ(server.batches_served(), 3u);
}

// Names are the only routing key: start() refuses an agent no request
// could reach — the second of two with one name, or one with no name.
TEST(RemoteAgentServerStartTest, DuplicateAndEmptyAgentNamesAreRefused) {
  Agent a("twin", 1), b("twin", 2), unnamed("", 3);
  RemoteAgentServer twins({&a, &b}, transport::Endpoint::tcp("127.0.0.1", 0));
  Status st = twins.start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("'twin' is registered twice"), std::string::npos)
      << st.message();
  EXPECT_FALSE(twins.running());

  RemoteAgentServer nameless(&unnamed,
                             transport::Endpoint::tcp("127.0.0.1", 0));
  st = nameless.start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(nameless.running());
}

// --- accept-error backoff ----------------------------------------------------

namespace {

// Highest open fd number (so RLIMIT_NOFILE can be clamped to allow exactly
// one more).
int max_open_fd() {
  int top = 2;
  for (int fd = 0; fd < 4096; ++fd) {
    if (::fcntl(fd, F_GETFD) != -1) top = fd;
  }
  return top;
}

struct FdLimitGuard {
  rlimit saved{};
  FdLimitGuard() { getrlimit(RLIMIT_NOFILE, &saved); }
  ~FdLimitGuard() { setrlimit(RLIMIT_NOFILE, &saved); }
};

}  // namespace

// A real accept error (EMFILE from fd exhaustion) must not hot-spin the
// serve thread: it counts on the accept_errors counter/metric, backs the
// listener off, and keeps serving live connections throughout.  When the
// famine lifts, the queued connection completes.
TEST(TransportAcceptBackoffTest, AcceptErrorCountsBacksOffAndRecovers) {
  Agent agent("solo", 1);
  ScriptedSource s0("solo/el0", ChannelKind::kProcFs);
  s0.set_attrs({{attr::kRxPkts, 5.0}});
  ASSERT_TRUE(agent.add_element(&s0).is_ok());

  RemoteAgentServer server(&agent, transport::Endpoint::tcp("127.0.0.1", 0));
  MetricsRegistry metrics;
  server.set_metrics(&metrics);
  ASSERT_TRUE(server.start().is_ok());

  RemoteAgent first(server.endpoint());
  ASSERT_TRUE(first.connect().is_ok());
  EXPECT_EQ(server.accept_errors(), 0u);  // normal operation: clean counter

  // Run every polymorphic call the famine will see once beforehand: the
  // batch path here, the dialer's thread below.  UBSan checks a type's vptr
  // the first time it meets it with a pipe(2)-based memory probe, which
  // needs two free fds; inside the famine it would report a valid object
  // as "invalid vptr".
  ASSERT_EQ(first.query_batch({s0.id()}, SimTime()).responses.size(), 1u);
  Status starved_status = Status::unavailable("never dialed");
  {
    FdLimitGuard guard;
    RemoteAgent starved(server.endpoint());
    starved.set_deadline(WallDuration(8000));  // outlives max backoff easily
    std::atomic<bool> dial{false};
    std::thread dialer([&] {
      while (!dial.load()) std::this_thread::yield();
      starved_status = starved.connect();
    });

    // Leave room for exactly ONE more fd: the dialer's client socket takes
    // it, so the server-side accept of that connection fails with EMFILE.
    rlimit tight = guard.saved;
    tight.rlim_cur = static_cast<rlim_t>(max_open_fd() + 2);
    ASSERT_EQ(0, setrlimit(RLIMIT_NOFILE, &tight));
    dial = true;

    // The kernel completes the TCP handshake into the backlog regardless,
    // so the listener polls readable and the serve loop hits EMFILE.
    const auto wait_until =
        transport::Clock::now() + std::chrono::seconds(5);
    while (server.accept_errors() == 0 &&
           transport::Clock::now() < wait_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(server.accept_errors(), 1u);

    // Backed off, not wedged: the established connection still gets served
    // while the listener sits out.
    BatchResponse b = first.query_batch({s0.id()}, SimTime::millis(1));
    ASSERT_EQ(b.responses.size(), 1u);
    EXPECT_EQ(b.responses[0].quality, DataQuality::kFresh);

    // Famine lifts (guard restores the limit); the queued connection must
    // now complete its handshake within the bounded backoff.
    ASSERT_EQ(0, setrlimit(RLIMIT_NOFILE, &guard.saved));
    dialer.join();
    EXPECT_TRUE(starved_status.is_ok()) << starved_status.message();
  }

  const uint64_t errors = server.accept_errors();
  EXPECT_GE(errors, 1u);
  const std::string text = metrics.expose(SimTime());
  EXPECT_NE(text.find("perfsight_transport_accept_errors_total"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE perfsight_transport_accept_errors_total counter"),
            std::string::npos);
}

// --- TSan churn --------------------------------------------------------------

// Remote scatter queries racing server-side poll sweeps: the adapter's
// connection state, the server's event loop and the shared Agent all
// see concurrent traffic.  Sources are constant, so the only writes under
// test are the transport's own.
TEST(TransportChurnTest, RemoteQueriesRaceServerSidePolls) {
  TransportRig rig(2, 3, TransportRig::Mode::kTcp);
  ThreadPool pool(4);
  rig.controller_.set_pool(&pool);
  std::vector<ElementId> ids = rig.elements_;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto got =
          rig.controller_.get_attr_many(rig.tenant_, ids, {attr::kRxPkts});
      EXPECT_EQ(got.size(), ids.size());
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)rig.controller_.get_attr_q(rig.tenant_, ids.back(),
                                       {attr::kDropPkts});
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& a : rig.agents_) {
        (void)a->query_batch(a->element_ids(), SimTime());
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();

  RemoteAgent::TransportStats stats = rig.remote(0)->transport_stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.damaged, 0u);
}

}  // namespace
}  // namespace perfsight
