// pull_fleet: Algorithm 1 over a socket.  One RemoteAgentServer on a unix
// socket hosts the 4-agent synthetic fleet; a Controller dials one
// RemoteAgent per agent and diagnoses back-to-back, one verdict in flight.
// Threads: this one and the server loop.  The controller has no collection
// pool: on a shared host, parallel workers made the run-to-run spread of
// the verdict time several times wider than its bound.
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "fleet.h"
#include "harness.h"
#include "perfsight/remote_agent.h"
#include "perfsight/wire.h"

namespace perfbench {

using namespace perfsight;

namespace {

struct PullWorld {
  Fleet fleet;
  RemoteAgentServer server;
  std::vector<std::unique_ptr<RemoteAgent>> remotes;
  std::vector<std::unique_ptr<ForwardingClient>> fwd;
  SimTime clock;
  Controller ctl{[this](Duration d) { return clock = clock + d; },
                 [this] { return clock; }};
  ContentionDetector det{&ctl, RuleBook::standard()};
  std::vector<ElementId> scan;

  PullWorld(uint64_t seed, const std::string& socket_path)
      : fleet(seed),
        server(fleet.agents(), transport::Endpoint::unix_path(socket_path)) {
    PS_CHECK(server.start().is_ok());
    std::vector<AgentClient*> clients;
    for (Agent* a : fleet.agents()) {
      remotes.push_back(
          std::make_unique<RemoteAgent>(server.endpoint(), a->name()));
      PS_CHECK(remotes.back()->connect().is_ok());
      fwd.push_back(std::make_unique<ForwardingClient>(remotes.back().get()));
      clients.push_back(fwd.back().get());
    }
    register_fleet(ctl, clients, fleet);
    scan = ctl.stack_elements_for(kFleetTenant);
  }

  // One verdict over windows w and w+1.
  ContentionReport verdict(int64_t w) {
    clock = SimTime::nanos(w * kFleetWindow.ns());
    return det.diagnose(kFleetTenant, kFleetWindow);
  }

  void set_timing(bool on) {
    for (auto& f : fwd) f->set_timing(on);
  }
  std::vector<CallRecord> take_calls() {
    std::vector<CallRecord> all;
    for (auto& f : fwd) {
      std::vector<CallRecord> c = f->take_calls();
      all.insert(all.end(), c.begin(), c.end());
    }
    return all;
  }
};

// What one verdict should put on the socket: each batch request in its
// PSM1 envelope plus each raw PSB1 reply, re-encoded from what arrived.
uint64_t expected_socket_bytes(PullWorld& w) {
  uint64_t bytes = 0;
  for (auto& f : w.fwd) {
    for (const ForwardingClient::Captured& c : f->take_captured()) {
      wire::BatchRequestMsg req;
      req.now = c.now;
      req.ids = c.ids;
      req.agent = f->name();
      bytes += wire::encode_message(wire::MessageKind::kBatchRequest,
                                    wire::encode_batch_request(req))
                   .size();
      Result<std::string> reply = wire::encode_batch(c.response);
      PS_CHECK(reply.ok());
      bytes += reply.value().size();
    }
  }
  return bytes;
}

}  // namespace

RunResult run_pull_fleet(const Options& opt) {
  RunResult res;
  const std::string socket_path =
      "perfbench-" + std::to_string(getpid()) + ".sock";
  EndToEnd e2e;

  // Set-up: sources, agents, server, 4 connections, registration.  Timed
  // several times; the last world is the one measured.
  std::unique_ptr<PullWorld> world = timed_setups(
      [&] { return std::make_unique<PullWorld>(opt.seed, socket_path); },
      &e2e.setup_s);
  PullWorld& w = *world;
  const size_t records_per_verdict = 2 * w.scan.size();

  int64_t window = 0;
  for (int i = 0; i < 3; ++i) {
    res.check(fleet_verdict_ok(w.verdict(window++), w.fleet),
              "warm-up verdict names the seeded lossy element");
  }

  // Socket bytes cross-check, outside the measured loop: one verdict's
  // kernel-counted bytes equal the codec sizes of what it exchanged.
  {
    for (auto& f : w.fwd) f->set_capture(true);
    const SocketBytes b0 = socket_bytes();
    res.check(fleet_verdict_ok(w.verdict(window++), w.fleet),
              "cross-check verdict names the seeded lossy element");
    const SocketBytes b1 = socket_bytes();
    for (auto& f : w.fwd) f->set_capture(false);
    const uint64_t expected = expected_socket_bytes(w);
    res.check(b1.sent - b0.sent == expected &&
                  b1.received - b0.received == expected,
              "socket bytes of one verdict equal its PSM1 requests plus PSB1 "
              "replies (sent " + std::to_string(b1.sent - b0.sent) +
                  ", received " + std::to_string(b1.received - b0.received) +
                  ", codec " + std::to_string(expected) + ")");
  }

  LayerMetrics lm;
  LayerCalls remote, agent, encode, decode, controller;
  std::vector<double> self_ms, wire_bytes, wire_allocs;
  const std::vector<std::string> attrs = contention_sample_attrs();

  const SocketBytes b0 = socket_bytes();
  const int64_t start = wall_ns();
  const int64_t deadline = deadline_after(opt.seconds);
  for (uint64_t i = 0; wall_ns() < deadline; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    w.set_timing(traced);
    const int64_t t0 = wall_ns();
    const ContentionReport r = w.verdict(window);
    const int64_t t1 = wall_ns();
    w.set_timing(false);
    ++res.attempted;
    if (!fleet_verdict_ok(r, w.fleet)) ++res.failed;
    const double ms = ms_between(t0, t1);
    if (!opt.trace) {
      e2e.verdict_ms.push_back(ms);
      e2e.time_reference();
    } else if (!traced) {
      lm.untraced_ms.push_back(ms);
    } else {
      lm.traced_ms.push_back(ms);
      const std::vector<CallRecord> calls = w.take_calls();
      remote.add(calls);
      self_ms.push_back(ms_between(0, (t1 - t0) - covered_ns(calls)));

      // Probes on this verdict's own inputs: the second sweep's boundary,
      // each agent's full id set, through the layers the server ran.
      const SimTime at = SimTime::nanos((window + 1) * kFleetWindow.ns());
      for (int a = 0; a < kFleetAgents; ++a) {
        Agent* ag = w.fleet.agents()[static_cast<size_t>(a)];
        uint64_t a0 = thread_allocs();
        int64_t p0 = wall_ns();
        const BatchResponse b = ag->query_batch(w.fleet.ids(a), at);
        agent.add(p0, wall_ns(), b.responses.size(), thread_allocs() - a0);

        a0 = thread_allocs();
        p0 = wall_ns();
        const Result<std::string> bytes = wire::encode_batch(b);
        const uint64_t enc_allocs = thread_allocs() - a0;
        encode.add(p0, wall_ns(), b.responses.size(), enc_allocs);
        PS_CHECK(bytes.ok());

        wire::DecodeStats st;
        a0 = thread_allocs();
        p0 = wall_ns();
        const Result<BatchResponse> back =
            wire::decode_batch(bytes.value(), &st);
        const uint64_t dec_allocs = thread_allocs() - a0;
        decode.add(p0, wall_ns(), b.responses.size(), dec_allocs);
        res.check(back.ok() && st.complete() &&
                      back.value().responses.size() == b.responses.size(),
                  "PSB1 probe batch decodes whole");
        const auto n = static_cast<double>(b.responses.size());
        wire_bytes.push_back(static_cast<double>(bytes.value().size()) / n);
        wire_allocs.push_back(static_cast<double>(enc_allocs + dec_allocs) / n);
      }
      const uint64_t a0 = thread_allocs();
      const int64_t p0 = wall_ns();
      const auto got = w.ctl.get_attr_many(kFleetTenant, w.scan, attrs);
      controller.add(p0, wall_ns(), got.size(), thread_allocs() - a0);
    }
    ++window;
  }
  const double loop_s =
      static_cast<double>(wall_ns() - start) / 1e9 - e2e.reference_s();
  const SocketBytes b1 = socket_bytes();

  if (!opt.trace) {
    const double records =
        static_cast<double>(res.attempted * records_per_verdict);
    e2e.records_per_s = records / loop_s;
    e2e.wire_bytes_per_record =
        static_cast<double>(b1.sent - b0.sent) / records;
    res.check(b1.sent - b0.sent == b1.received - b0.received,
              "every socket byte sent in the loop was received");
    e2e.sim_speed =
        static_cast<double>(res.attempted) * kFleetWindow.sec() / loop_s;
    add_end_to_end(res, e2e);
  } else {
    lm.agent_ns = agent.ns_per_record();
    lm.agent_allocs = agent.allocs_per_record();
    lm.wire_encode_ns = encode.ns_per_record();
    lm.wire_decode_ns = decode.ns_per_record();
    lm.wire_bytes = median(wire_bytes);
    lm.wire_allocs = median(wire_allocs);
    lm.remote_ns = remote.ns_per_record();
    lm.remote_us_p95 = remote.call_us(0.95);
    lm.transport_residual_ns =
        lm.remote_ns - lm.agent_ns - lm.wire_encode_ns - lm.wire_decode_ns;
    lm.controller_ns = controller.ns_per_record();
    lm.controller_allocs = controller.allocs_per_record();
    lm.contention_self_ms = median(self_ms);
    add_layers(res, lm);
  }
  world.reset();
  unlink(socket_path.c_str());
  return res;
}

}  // namespace perfbench
