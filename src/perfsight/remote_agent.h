// Remote agents: PerfSight's per-server agent behind a real socket (§3,
// §4.2–4.3 — the architecture is distributed; this is where the repo's
// bytes first cross a process boundary).
//
// Two halves:
//
//   RemoteAgentServer — the fleet server that runs on the agents' machine.
//   One poll()-driven event-loop thread owns the listener plus every live
//   connection, so many controllers can dial one host concurrently — no
//   connection ever waits in the backlog behind another being served.  Each
//   connection is a small state machine: hello queued on accept, request
//   bytes accumulated nonblocking into a partial-read buffer until a whole
//   PSM2 message lands, dispatch, replies drained through a per-connection
//   write queue with deadline-bounded backpressure.  The server hosts MANY
//   served agents: the hello advertises the roster, and every batch request
//   and subscribe routes by the agent name it carries.
//
//   RemoteAgent — the controller-side adapter.  It implements AgentClient
//   over one connection to a server, so the controller's scatter-gather path
//   (controller.cc) treats socket-backed and in-process agents identically.
//   It binds the roster entry it is constructed with (the first entry when
//   constructed bare) and stamps that name on every request.
//
// The contract the differential suite (transport_test) holds this pair to
// is AgentClient's (agent.h): on a clean stream, every byte of a
// BatchResponse crosses unchanged, so controller output over sockets is
// byte-identical to in-process.  A single query is a batch of one, so the
// batch request is the only query on the wire.  On a damaged stream the
// surviving prefix is decoded and wire::reconcile turns the lost frames into
// kUnavailable blind spots, which the controller reports with the text a
// local channel failure gets.  A lost reply is answered from the hello's
// element set: advertised ids become blind spots, the rest count unknown.
//
// Failure handling is the agent's, on the wall clock: the same
// RetryPolicy::backoff schedule spaces redials (slept on the OS clock), and
// the same CircuitBreaker state machine (agent.h) guards the connection.
// Only the counting differs: the agent counts every element outcome, the
// adapter one failure per redial loop that exhausted `max_attempts`.  After
// `failure_threshold` such loops the breaker opens — queries fast-fail to
// all-kMissing without paying a dial timeout until `cooldown` (wall clock)
// expires and a half-open probe reconnects.
//
// Tracing across the socket (trace.h): when the calling thread carries an
// active TraceContext, the adapter stamps its trace id + parent span onto
// the request envelope, records a client-side kSpanTransportTrip span, and
// reads the server's piggybacked trace data after a clean batch reply.  The
// server records a kSpanServerBatch span (span-clock timestamps) into its
// own TraceRecorder for every traced request, parented to the span id off
// the wire.  With no active context the request carries trace_id 0 and the
// server's reply bytes are identical to an untraced build — tracing never
// perturbs the differential contract.  The hello handshake carries the
// server's span clock; the adapter brackets the handshake with its own clock
// samples and keeps the midpoint offset estimate that to_chrome_trace() uses
// to align harvested lanes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "perfsight/agent.h"
#include "perfsight/metrics.h"
#include "perfsight/streaming.h"
#include "perfsight/trace.h"
#include "perfsight/transport.h"

namespace perfsight {

// --- server stub -------------------------------------------------------------

class RemoteAgentServer {
 public:
  // Serves `agent` (not owned; must outlive the server) on `ep`.
  RemoteAgentServer(Agent* agent, transport::Endpoint ep)
      : RemoteAgentServer(std::vector<Agent*>{agent}, std::move(ep)) {}

  // Fleet form: one event-loop thread serves every agent in `agents`
  // (none owned; all must outlive the server; at least one required).  The
  // hello's roster lists them in this order.
  RemoteAgentServer(std::vector<Agent*> agents, transport::Endpoint ep);
  ~RemoteAgentServer() { stop(); }
  RemoteAgentServer(const RemoteAgentServer&) = delete;
  RemoteAgentServer& operator=(const RemoteAgentServer&) = delete;

  // Binds + starts the serve thread.  After success, endpoint() carries the
  // resolved address (ephemeral tcp ports are filled in).  Requests route
  // by agent name, so an empty, duplicate or over-long (> 65535 bytes)
  // agent name is refused with kInvalidArgument.
  Status start();
  // Stops the serve thread, closes every live connection and the listener.
  // Idempotent.
  void stop();
  bool running() const { return running_; }
  const transport::Endpoint& endpoint() const { return ep_; }

  uint64_t batches_served() const {
    return batches_served_.load(std::memory_order_relaxed);
  }
  // Accept failures that were real errors (EMFILE, ENFILE, ...), not idle
  // timeouts.  Each one also backs the accept path off exponentially so a
  // persistent error cannot hot-spin the serve thread at 100% CPU.
  uint64_t accept_errors() const {
    return accept_errors_.load(std::memory_order_relaxed);
  }

  // Creates perfsight_transport_accept_errors_total (labeled by endpoint)
  // in `m`.  Call before start(); the serve thread reads the pointer.
  void set_metrics(MetricsRegistry* m);

  // Shifts this server's view of the span clock (tests: prove the client's
  // hello-derived offset estimate really corrects skewed remote lanes).
  void set_clock_skew_ns(int64_t skew_ns) {
    clock_skew_ns_.store(skew_ns, std::memory_order_relaxed);
  }

  // --- push-mode streaming (kSubscribe / kStreamData) ----------------------
  // Captures one window at `at` for every agent with at least one subscribed
  // connection and queues the kStreamData frames on those connections' write
  // buffers.  Callable from any thread: the serve loop (which owns the
  // connections), woken at once, performs the capture + enqueue.  With no
  // subscribers the request is free — nothing is captured and not one
  // stream byte is queued, keeping unsubscribed deployments byte-identical.
  // Each agent publishes through its own StreamPublisher over its live
  // element set: one seq per published window, shared by every subscriber
  // (cross-connection gap detection).  A connection's first frame is a
  // snapshot; each later one is the delta body every holder of the
  // previous capture shares.  A capture that cannot be encoded advances no
  // seq and closes each connection its body was meant for.
  void request_publish(SimTime at);
  // Stream frames enqueued to subscribers (all connections, all agents).
  uint64_t stream_frames_published() const {
    return stream_frames_.load(std::memory_order_relaxed);
  }

 private:
  // One multiplexed connection's state machine.  Owned exclusively by the
  // serve thread; no locks.
  struct Conn {
    transport::Socket sock;
    std::string rbuf;        // partial-read buffer: bytes toward a message
    std::string wbuf;        // reply bytes awaiting the socket buffer
    size_t woff = 0;         // bytes of wbuf already sent
    bool dead = false;       // marked for reaping this tick
    // Deadline anchors: when the current partial read / undrained write
    // started.  time_point{} (epoch) = nothing pending.
    transport::Clock::time_point read_since{};
    transport::Clock::time_point write_since{};
    // Push-mode subscription: non-empty = resolved agent name this
    // connection subscribed to.  `streamed`: its snapshot went out, so it
    // holds the agent's last capture and takes the delta bodies.
    std::string sub_agent;
    bool streamed = false;
  };

  void serve();
  // Makes the serve loop's poll() return now.  Caller holds publish_mu_.
  void wake_locked();
  // Drains request_publish() boundaries: one capture per subscribed agent
  // per boundary, encoded at most twice (the delta and a snapshot for new
  // subscribers).  Serve thread only.
  void publish_tick(SimTime at, std::vector<std::unique_ptr<Conn>>& conns);
  // Parses + dispatches every complete message in c.rbuf.  False when the
  // connection must close (protocol damage, dead peer).
  bool drain_messages(Conn& c);
  // Dispatches one decoded message; replies append to c.wbuf.  False = close.
  bool handle_message(Conn& c, const wire::Message& msg);
  // Answers one routed batch request of `agent` under the request's trace
  // context, recording a kSpanServerBatch serve span when it is traced.
  BatchResponse serve_batch(Agent& agent, const wire::BatchRequestMsg& req);
  // Flushes c.wbuf as far as the socket buffer allows.  False = dead peer
  // or write deadline exceeded (backpressure bound).
  bool flush_writes(Conn& c);
  // Fleet routing for every request kind: the agent of exactly that name,
  // or nullptr.  The caller closes the connection on nullptr: bindings are
  // validated at connect time, so this only happens when the agent set
  // changed under the client, and a reconnect re-runs that validation.
  Agent* route(const std::string& agent_name);
  std::string hello_bytes() const;
  // This server's span clock: transport::span_clock_ns() plus the test skew.
  int64_t clock_ns() const;
  // PSM2 kTraceData message draining trace_recorder_, attributed to
  // `process` (the routed agent's name).
  std::string trace_data_bytes(const std::string& process);

  std::vector<Agent*> agents_;  // registration (roster) order
  transport::Endpoint ep_;
  transport::Listener listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> batches_served_{0};
  std::atomic<uint64_t> accept_errors_{0};
  MetricsRegistry::CounterMetric* m_accept_errors_ = nullptr;
  // The server-side flight recorder: serve spans for traced requests land
  // here and leave via harvest / piggyback.  Always enabled; it only fills
  // when clients send traced requests.
  TraceRecorder trace_recorder_;
  std::atomic<int64_t> clock_skew_ns_{0};

  // Push-mode state.  The publishers (one per agent, in roster order, made
  // at the agent's first capture) are serve-thread-only; the pending queue
  // is the one cross-thread handoff (request_publish may be called from
  // anywhere).
  std::vector<std::optional<StreamPublisher>> publishers_;
  std::mutex publish_mu_;
  std::vector<SimTime> pending_publishes_;
  // Self-pipe in the serve loop's poll set: stop() and request_publish()
  // write a byte to [1] so the loop wakes without waiting out a poll tick.
  // Open from start() to stop(); guarded by publish_mu_.
  int wake_fds_[2] = {-1, -1};
  std::atomic<uint64_t> stream_frames_{0};
};

// --- controller-side adapter -------------------------------------------------

class RemoteAgent : public AgentClient {
 public:
  // Binds to the roster entry named `agent`, or to the first entry of the
  // endpoint's roster when `agent` is empty, and stamps the bound name on
  // every request so the event loop routes it.
  explicit RemoteAgent(transport::Endpoint ep, std::string agent = {})
      : ep_(std::move(ep)), bind_(std::move(agent)) {}

  // Dials the server and completes the hello handshake, caching the bound
  // agent's name and element set.  Must succeed before the adapter is
  // registered with a controller (name()/has_element() answer from the
  // cache).  Reconnects after that are automatic.  Fails with
  // kFailedPrecondition when a bound name is missing from the roster.
  Status connect();

  // Every agent the last hello advertised, in roster order.  Lets a caller
  // discover a fleet server's roster through one dialed adapter and bind
  // further adapters by name (Deployment::add_remote_agents).
  std::vector<std::string> roster_names() const;

  // Set once by the first successful connect(), before the adapter is
  // handed to a controller; immutable afterwards.
  const std::string& name() const override { return name_; }
  bool has_element(const ElementId& id) const override;
  std::vector<ElementId> element_ids() const override;

  // One wire round trip per call, or none when the adapter answers every
  // id itself (departed, or too long for the wire).  `pool` is ignored, as
  // by every AgentClient: the connection is serialized, and concurrency
  // across remote agents comes from the controller's fan-out.  Never fails
  // outright: transport loss degrades to kMissing responses (see header
  // comment).
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool = nullptr) override;

  // Reconnect/backoff knobs (wall-clock interpretation; see header comment).
  void set_retry_policy(RetryPolicy p);
  void set_breaker_config(CircuitBreakerConfig c);
  // Per-read/connect wall-clock deadline.
  void set_deadline(transport::WallDuration d);
  // Creates the perfsight_transport_* counters (labeled by agent) in `m`.
  void set_metrics(MetricsRegistry* m);

  // Pulls the server's drained trace rings into the *global* TraceRecorder
  // as a remote lane (clock-offset attached).  The piggyback fast path makes
  // this unnecessary after clean traced batches; harvest catches spans from
  // sweeps whose piggyback was lost.
  Status harvest_trace();

  // Remote span clock minus local, estimated at the last hello handshake.
  int64_t clock_offset_ns() const;

  BreakerState breaker_state() const;

  struct TransportStats {
    uint64_t connects = 0;    // successful dial+hello handshakes
    uint64_t reconnects = 0;  // connects after the first
    uint64_t batches = 0;     // batch round trips attempted
    uint64_t damaged = 0;     // batches that came back short/corrupt
    uint64_t fast_fails = 0;  // queries skipped while the breaker was open
  };
  TransportStats transport_stats() const;

  // Elements that departed at some reconnect and have not re-appeared
  // (ascending): the ids a reconnect's hello no longer advertises for the
  // bound agent.  Queries to them fail immediately with the "departed at
  // reconnect" status instead of travelling the wire; ids a reconnect adds
  // serve right away, with no full redial.
  std::vector<ElementId> departed_elements() const;

 private:
  // All _locked members require mu_.
  Status connect_locked(SimTime now);
  // Breaker gate + RetryPolicy reconnect loop.  Ok when a live connection
  // is available.
  Status ensure_connected_locked(SimTime now);
  void drop_connection_locked();
  // The send / read / resend-once loop both request kinds share (batch and
  // trace harvest): connects if needed, sends `request`, and calls
  // `read()` for the reply, which returns true once something usable
  // arrived.  False when nothing did.
  template <typename Read>
  bool exchange_locked(const std::string& request, SimTime now, Read read);

  // Reads a piggybacked/harvested kTraceData message off the live socket
  // and merges it into the global recorder as a remote lane.
  Status read_trace_data_locked();

  transport::Endpoint ep_;
  std::string bind_;  // roster name to bind; empty = the first entry
  transport::WallDuration deadline_{2000};

  mutable std::mutex mu_;
  transport::Socket sock_;
  int64_t clock_offset_ns_ = 0;  // remote span clock minus local, per hello
  std::string name_;
  std::vector<std::string> roster_names_;    // from the last hello
  std::vector<ElementId> elements_;          // ascending, from the hello
  std::unordered_set<ElementId> element_set_;
  // Elements lost at a reconnect and not re-added since; queries to them
  // are answered locally with kFailedPrecondition (departed at reconnect).
  std::set<ElementId> departed_;
  RetryPolicy retry_;
  CircuitBreakerConfig breaker_cfg_;
  CircuitBreaker<transport::Clock::time_point> breaker_;
  TransportStats stats_;
  MetricsRegistry::CounterMetric* m_connects_ = nullptr;
  MetricsRegistry::CounterMetric* m_reconnects_ = nullptr;
  MetricsRegistry::CounterMetric* m_batches_ = nullptr;
  MetricsRegistry::CounterMetric* m_damaged_ = nullptr;
};

}  // namespace perfsight
