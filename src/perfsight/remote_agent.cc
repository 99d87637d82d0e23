#include "perfsight/remote_agent.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "perfsight/trace.h"
#include "perfsight/wire.h"

namespace perfsight {

namespace {

// Transport lifecycle trace events hang off a synthetic element, like the
// controller's scatter events.
const ElementId& transport_trace_id() {
  static const ElementId kId{"transport"};
  return kId;
}

// The event loop's poll() timeout: how promptly accept backoff expiry and
// per-connection I/O deadlines are noticed.  stop() and request_publish()
// wake the loop at once through its wake pipe.
constexpr int kServePollMs = 200;

// Accept-error backoff bounds: a persistent accept failure (EMFILE, ...)
// must not hot-spin the serve thread, but recovery after the condition
// clears should be prompt.
constexpr int kAcceptBackoffMinMs = 10;
constexpr int kAcceptBackoffMaxMs = 1000;

// Per-connection I/O budget: a connection holding a partial request for
// longer than this, or failing to drain its reply queue for longer than this
// (backpressure), is closed.
constexpr transport::WallDuration kIoDeadline{5000};

// Compact a partially-drained write queue once the sent prefix crosses
// this, so a long-lived pipelining connection cannot grow it unboundedly.
constexpr size_t kWriteCompactBytes = 64 * 1024;

std::chrono::nanoseconds to_wall(Duration d) {
  return std::chrono::nanoseconds(d.ns());
}

}  // namespace

// --- RemoteAgentServer -------------------------------------------------------

RemoteAgentServer::RemoteAgentServer(std::vector<Agent*> agents,
                                     transport::Endpoint ep)
    : agents_(std::move(agents)), ep_(std::move(ep)) {
  PS_CHECK(!agents_.empty());
  for (Agent* a : agents_) PS_CHECK(a != nullptr);
  publishers_.resize(agents_.size());
  trace_recorder_.set_enabled(true);
}

void RemoteAgentServer::set_metrics(MetricsRegistry* m) {
  PS_CHECK(!running_);  // the serve thread reads the pointer unlocked
  if (m == nullptr) {
    m_accept_errors_ = nullptr;
    return;
  }
  m_accept_errors_ = &m->counter(
      "perfsight_transport_accept_errors_total",
      "Listener accept failures that were real errors (EMFILE, ...), each "
      "backing the accept path off instead of hot-spinning",
      "endpoint=\"" + prom_escape(ep_.to_string()) + "\"");
}

Status RemoteAgentServer::start() {
  PS_CHECK(!thread_.joinable());
  // Requests route by agent name, and every hello carries the names as
  // u16-length strings: refuse here, not in the serve loop, a name the
  // wire cannot carry or a request could never reach.
  std::unordered_set<std::string> names;
  for (const Agent* a : agents_) {
    const std::string& name = a->name();
    if (name.size() > 0xffff) {
      return Status::invalid_argument(
          "agent name of " + std::to_string(name.size()) +
          " bytes exceeds the 65535-byte wire limit: " + name.substr(0, 64));
    }
    if (name.empty()) {
      return Status::invalid_argument("agent name is empty");
    }
    if (!names.insert(name).second) {
      return Status::invalid_argument("agent name '" + name +
                                      "' is registered twice");
    }
  }
  Result<transport::Listener> l = transport::Listener::listen(ep_);
  if (!l.ok()) return l.status();
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::unavailable("remote agent server: cannot create its wake "
                               "pipe");
  }
  listener_ = std::move(l).take();
  ep_ = listener_.bound_endpoint();  // ephemeral tcp port resolved
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { serve(); });
  return Status::ok();
}

void RemoteAgentServer::stop() {
  stop_ = true;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    wake_locked();
  }
  if (thread_.joinable()) thread_.join();
  listener_.close();
  std::lock_guard<std::mutex> lock(publish_mu_);
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  running_ = false;
}

void RemoteAgentServer::request_publish(SimTime at) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  pending_publishes_.push_back(at);
  wake_locked();
}

void RemoteAgentServer::wake_locked() {
  if (wake_fds_[1] < 0) return;
  // A full pipe already holds a pending wake, so a failed write loses none.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void RemoteAgentServer::publish_tick(
    SimTime at, std::vector<std::unique_ptr<Conn>>& conns) {
  for (size_t i = 0; i < agents_.size(); ++i) {
    const std::string& name = agents_[i]->name();
    bool fresh = false;   // a subscriber waits for its snapshot
    bool synced = false;  // a subscriber holds the last capture
    for (const auto& c : conns) {
      if (c->dead || c->sub_agent != name) continue;
      (c->streamed ? synced : fresh) = true;
    }
    // No subscribers: no capture, no seq advance, zero stream bytes.
    if (!fresh && !synced) continue;

    // One capture and one seq per agent per boundary, shared by every
    // subscriber, so gap detection works across connections.  Subscribers
    // that hold the last capture take the published delta; new ones the
    // same capture as a snapshot, which is the published body itself while
    // no subscriber holds the last capture.
    std::optional<StreamPublisher>& publisher = publishers_[i];
    if (!publisher.has_value()) publisher.emplace(agents_[i]);
    if (!synced) publisher->force_snapshot();
    Result<StreamPublisher::Published> pub =
        publisher->publish(at, agents_[i]->element_ids());
    Result<std::string> body = pub.status();
    if (pub.ok()) body = std::move(pub.value().body);
    Result<std::string> snapshot = body.status();
    if (synced && fresh && body.ok()) snapshot = publisher->snapshot();

    for (auto& c : conns) {
      if (c->dead || c->sub_agent != name) continue;
      const Result<std::string>& frame =
          c->streamed || !synced ? body : snapshot;
      // A body that could not be encoded reaches none it was meant for.
      if (!frame.ok()) {
        c->dead = true;
        continue;
      }
      c->wbuf +=
          wire::encode_message(wire::MessageKind::kStreamData, frame.value());
      c->streamed = true;
      stream_frames_.fetch_add(1, std::memory_order_relaxed);
      if (!flush_writes(*c)) c->dead = true;
    }
  }
}

int64_t RemoteAgentServer::clock_ns() const {
  return transport::span_clock_ns() +
         clock_skew_ns_.load(std::memory_order_relaxed);
}

std::string RemoteAgentServer::trace_data_bytes(const std::string& process) {
  wire::TraceDataMsg td;
  td.process = process;
  td.events = trace_recorder_.drain();
  return wire::encode_message(wire::MessageKind::kTraceData,
                              wire::encode_trace_data(td));
}

std::string RemoteAgentServer::hello_bytes() const {
  wire::HelloMsg hello;
  hello.clock_ns = clock_ns();
  for (Agent* a : agents_) {
    hello.roster.push_back({a->name(), a->element_ids()});
  }
  return wire::encode_message(wire::MessageKind::kHello,
                              wire::encode_hello(hello));
}

Agent* RemoteAgentServer::route(const std::string& agent) {
  for (Agent* a : agents_) {
    if (a->name() == agent) return a;
  }
  return nullptr;
}

// One pollfd set over listener + every live connection; everything below
// runs on the single serve thread, so connection state needs no locks.
void RemoteAgentServer::serve() {
  std::vector<std::unique_ptr<Conn>> conns;
  // Accept-error backoff: while a real accept failure is fresh, the
  // listener fd sits out of the poll set until `accept_resume`.
  transport::Clock::time_point accept_resume{};
  int accept_backoff_ms = 0;

  std::vector<struct pollfd> fds;
  while (!stop_) {
    const bool accepting = transport::Clock::now() >= accept_resume;
    fds.clear();
    // fd -1 is legal and ignored by poll(): keeps index i+1 <-> conns[i].
    fds.push_back({accepting ? listener_.fd() : -1, POLLIN, 0});
    for (const auto& c : conns) {
      short events = POLLIN;
      if (c->woff < c->wbuf.size()) events |= POLLOUT;
      fds.push_back({c->sock.fd(), events, 0});
    }
    fds.push_back({wake_fds_[0], POLLIN, 0});
    ::poll(fds.data(), fds.size(), kServePollMs);
    if (stop_) break;
    if (fds.back().revents & POLLIN) {
      char drain[64];
      while (::read(wake_fds_[0], drain, sizeof drain) > 0) {
      }
    }

    // Service the existing connections first (indices still line up with
    // the pollfd set built above), then reap, then accept.
    const size_t served = conns.size();
    const auto now = transport::Clock::now();
    for (size_t i = 0; i < served; ++i) {
      Conn& c = *conns[i];
      const short re = fds[i + 1].revents;
      if (re & POLLNVAL) {
        c.dead = true;
        continue;
      }
      // POLLHUP/POLLERR still go through the read path first: a half-closed
      // peer may have final requests buffered; a vanished peer just gets
      // reaped when the read reports EOF.
      if (!c.dead && (re & (POLLIN | POLLHUP | POLLERR))) {
        for (;;) {
          Result<size_t> got = c.sock.read_some(&c.rbuf);
          if (!got.ok()) {
            c.dead = true;  // peer closed or hard socket error
            break;
          }
          if (got.value() == 0) break;  // drained to EAGAIN
        }
        if (!c.dead && !drain_messages(c)) c.dead = true;
        // Anchor the partial-read deadline at the first buffered byte: a
        // peer trickling a message one byte per poll tick cannot hold the
        // buffer open forever.
        if (c.rbuf.empty()) {
          c.read_since = transport::Clock::time_point{};
        } else if (c.read_since == transport::Clock::time_point{}) {
          c.read_since = now;
        }
      }
      if (!c.dead && c.woff < c.wbuf.size() && !flush_writes(c)) c.dead = true;
      if (!c.dead) {
        // Per-connection I/O deadline: a stalled partial read or a write
        // queue making no progress costs the connection, not the loop.
        const auto zero = transport::Clock::time_point{};
        if ((c.read_since != zero && now - c.read_since > kIoDeadline) ||
            (c.write_since != zero && now - c.write_since > kIoDeadline)) {
          c.dead = true;
        }
      }
    }
    const auto is_dead = [](const auto& c) { return c->dead; };
    std::erase_if(conns, is_dead);

    // Push-mode boundaries requested since the last tick: capture once per
    // subscribed agent per boundary and queue the frames.
    std::vector<SimTime> publishes;
    {
      std::lock_guard<std::mutex> lock(publish_mu_);
      publishes.swap(pending_publishes_);
    }
    for (SimTime at : publishes) publish_tick(at, conns);
    std::erase_if(conns, is_dead);

    if (accepting && (fds[0].revents & POLLIN)) {
      // Drain every pending connection; a zero deadline makes accept()
      // report "nothing pending" as kDeadlineExceeded.
      for (;;) {
        Result<transport::Socket> a =
            listener_.accept(transport::WallDuration(0));
        if (!a.ok()) {
          if (a.status().code() == StatusCode::kDeadlineExceeded) break;
          // A real accept error (EMFILE, ...): count it and take the
          // listener out of the poll set for a bounded backoff so the loop
          // keeps serving live connections instead of hot-spinning.
          accept_errors_.fetch_add(1, std::memory_order_relaxed);
          if (m_accept_errors_ != nullptr) m_accept_errors_->increment();
          accept_backoff_ms =
              accept_backoff_ms == 0
                  ? kAcceptBackoffMinMs
                  : std::min(accept_backoff_ms * 2, kAcceptBackoffMaxMs);
          accept_resume = transport::Clock::now() +
                          std::chrono::milliseconds(accept_backoff_ms);
          break;
        }
        accept_backoff_ms = 0;
        auto c = std::make_unique<Conn>();
        c->sock = std::move(a).take();
        c->sock.set_nonblocking(true);
        c->wbuf = hello_bytes();
        if (flush_writes(*c)) conns.push_back(std::move(c));
      }
    }
  }
  conns.clear();  // closes every socket
}

// Parses and dispatches every complete PSM2 message buffered in c.rbuf,
// leaving any trailing partial message in place for the next read.
// Returns false when the connection must close (framing damage or protocol
// confusion).
bool RemoteAgentServer::drain_messages(Conn& c) {
  while (c.rbuf.size() >= wire::kMessagePrefixSize) {
    // Validate the prefix before waiting on the body: bad magic, an unknown
    // kind or an oversize length means the stream is not (or no longer)
    // PSM2, and waiting for more bytes could never repair it.
    Result<wire::Prefix> prefix = wire::parse_message_prefix(c.rbuf);
    if (!prefix.ok()) return false;
    const size_t total = wire::kMessagePrefixSize + prefix.value().body_len;
    if (c.rbuf.size() < total) break;  // partial: wait for more bytes
    Result<wire::Message> msg =
        wire::decode_message(std::string_view(c.rbuf).substr(0, total));
    if (!msg.ok()) return false;  // checksum failure: framing untrustworthy
    const bool keep = handle_message(c, msg.value());
    c.rbuf.erase(0, total);
    if (!keep) return false;
  }
  return true;
}

// A traced request (trace_id != 0) gets a serve span around the batch —
// span-clock timestamps, parented to the span id off the wire — and that
// span is the context the agent's own spans hang from.  An untraced one
// records nothing.
BatchResponse RemoteAgentServer::serve_batch(Agent& agent,
                                             const wire::BatchRequestMsg& req) {
  const int64_t t0 = clock_ns();
  const uint64_t span =
      req.trace_id != 0 ? next_span_id(span_domain_for(agent.name())) : 0;
  BatchResponse b = [&] {
    ScopedTraceContext span_ctx(TraceContext{req.trace_id, span});
    return agent.query_batch(req.ids, req.now);
  }();
  if (req.trace_id != 0) {
    trace_recorder_.record_span(ElementId{agent.name() + "/serve"},
                                SimTime::nanos(t0),
                                TraceEventKind::kSpanServerBatch,
                                Duration::nanos(clock_ns() - t0), span,
                                req.parent_span,
                                static_cast<double>(req.ids.size()), "batch");
  }
  return b;
}

// Dispatches one decoded control message, queueing any reply on c.wbuf.
// Returns false to close the connection.  Dispatch is synchronous on the
// serve thread — agent queries are in-memory reads, so one slow peer's
// *socket* can stall nobody (writes queue), and query cost itself is the
// same for every transport.
bool RemoteAgentServer::handle_message(Conn& c, const wire::Message& msg) {
  switch (msg.kind) {
    case wire::MessageKind::kBatchRequest: {
      Result<wire::BatchRequestMsg> req = wire::decode_batch_request(msg.body);
      if (!req.ok()) return false;
      Agent* agent = route(req.value().agent);
      if (agent == nullptr) return false;
      const uint64_t trace_id = req.value().trace_id;
      Result<std::string> bytes =
          wire::encode_batch(serve_batch(*agent, req.value()));
      // add_element refuses ids the wire cannot carry, but a source may
      // still emit an attr name or list too big for a frame.  That batch
      // cannot travel: close this connection, so the client reconciles it
      // to blind spots, and keep serving the others.
      if (!bytes.ok()) return false;
      batches_served_.fetch_add(1, std::memory_order_relaxed);
      // An idle connection takes the encoded batch as its write queue
      // instead of a copy of it.
      if (c.wbuf.empty()) {
        c.wbuf = std::move(bytes).take();
      } else {
        c.wbuf += bytes.value();
      }
      // Piggyback fast path: a traced request earns the drained rings
      // right behind the batch.  Untraced requests get not one extra
      // byte — the disabled-mode reply stays byte-identical.
      if (trace_id != 0) c.wbuf += trace_data_bytes(agent->name());
      return true;
    }
    case wire::MessageKind::kTraceHarvest:
      c.wbuf += trace_data_bytes(agents_.front()->name());
      return true;
    case wire::MessageKind::kSubscribe: {
      Result<wire::SubscribeMsg> req = wire::decode_subscribe(msg.body);
      if (!req.ok()) return false;
      Agent* agent = route(req.value().agent);
      if (agent == nullptr) return false;
      c.sub_agent = agent->name();
      c.streamed = false;  // first frame to this connection: snapshot
      return true;
    }
    default:
      // A retired kind, or a client speaking server->client kinds: it is
      // confused, and only its own connection pays.
      return false;
  }
}

// Pushes queued bytes with nonblocking writes.  Returns false on a hard
// socket error; EAGAIN leaves the remainder queued (poll will report
// POLLOUT) and starts the write-stall clock.
bool RemoteAgentServer::flush_writes(Conn& c) {
  const size_t before = c.woff;
  while (c.woff < c.wbuf.size()) {
    Result<size_t> n =
        c.sock.write_some(std::string_view(c.wbuf).substr(c.woff));
    if (!n.ok()) return false;
    if (n.value() == 0) break;  // socket buffer full
    c.woff += n.value();
  }
  if (c.woff >= c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
    c.write_since = transport::Clock::time_point{};
  } else {
    // Still queued: the stall clock measures time since the last forward
    // progress, so it re-arms on progress and on first arming — never on a
    // tick that moved nothing (that would defeat the deadline).
    if (c.woff != before || c.write_since == transport::Clock::time_point{}) {
      c.write_since = transport::Clock::now();
    }
    if (c.woff >= kWriteCompactBytes) {
      c.wbuf.erase(0, c.woff);
      c.woff = 0;
    }
  }
  return true;
}

// --- RemoteAgent -------------------------------------------------------------

bool RemoteAgent::has_element(const ElementId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return element_set_.count(id) > 0;
}

std::vector<ElementId> RemoteAgent::element_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return elements_;
}

std::vector<std::string> RemoteAgent::roster_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return roster_names_;
}

void RemoteAgent::set_retry_policy(RetryPolicy p) {
  std::lock_guard<std::mutex> lock(mu_);
  retry_ = p;
}

void RemoteAgent::set_breaker_config(CircuitBreakerConfig c) {
  std::lock_guard<std::mutex> lock(mu_);
  breaker_cfg_ = c;
}

void RemoteAgent::set_deadline(transport::WallDuration d) {
  std::lock_guard<std::mutex> lock(mu_);
  deadline_ = d;
}

void RemoteAgent::set_metrics(MetricsRegistry* m) {
  std::lock_guard<std::mutex> lock(mu_);
  if (m == nullptr) {
    m_connects_ = m_reconnects_ = m_batches_ = m_damaged_ = nullptr;
    return;
  }
  const std::string label = "agent=\"" + prom_escape(name_) + "\"";
  m_connects_ = &m->counter("perfsight_transport_connects_total",
                            "Successful dial+hello handshakes", label);
  m_reconnects_ = &m->counter("perfsight_transport_reconnects_total",
                              "Connections re-established after loss", label);
  m_batches_ = &m->counter("perfsight_transport_batches_total",
                           "Batch round trips attempted over the socket",
                           label);
  m_damaged_ = &m->counter("perfsight_transport_damaged_batches_total",
                           "Batches that arrived short or corrupt", label);
}

BreakerState RemoteAgent::breaker_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.state();
}

RemoteAgent::TransportStats RemoteAgent::transport_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<ElementId> RemoteAgent::departed_elements() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {departed_.begin(), departed_.end()};
}

Status RemoteAgent::connect() {
  std::lock_guard<std::mutex> lock(mu_);
  return connect_locked(SimTime());
}

int64_t RemoteAgent::clock_offset_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_offset_ns_;
}

Status RemoteAgent::read_trace_data_locked() {
  Result<wire::Message> msg = transport::read_message(sock_, deadline_);
  if (!msg.ok()) {
    drop_connection_locked();
    return msg.status();
  }
  if (msg.value().kind != wire::MessageKind::kTraceData) {
    drop_connection_locked();  // stream framing is no longer trustworthy
    return Status::unavailable("transport: expected trace data from " +
                               ep_.to_string());
  }
  Result<wire::TraceDataMsg> td = wire::decode_trace_data(msg.value().body);
  if (!td.ok()) {
    drop_connection_locked();
    return td.status();
  }
  TraceRecorder& g = TraceRecorder::global();
  if (g.enabled() && !td.value().events.empty()) {
    g.add_remote_lane(td.value().process, clock_offset_ns_,
                      std::move(td.value().events));
  }
  return Status::ok();
}

Status RemoteAgent::harvest_trace() {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = Status::unavailable("transport: no trace data from " +
                                  ep_.to_string());
  exchange_locked(wire::encode_message(wire::MessageKind::kTraceHarvest, ""),
                  SimTime(), [&] {
                    st = read_trace_data_locked();
                    return st.is_ok();
                  });
  return st;
}

void RemoteAgent::drop_connection_locked() { sock_.close(); }

Status RemoteAgent::connect_locked(SimTime now) {
  // Bracket the dial + hello with local span-clock samples: the server's
  // clock_ns rode in the hello, so `remote - midpoint(c0, c1)` estimates
  // the remote-minus-local clock offset (NTP's classic symmetric-delay
  // assumption), good to about half the handshake round trip.
  const int64_t c0 = transport::span_clock_ns();
  // A reconnect binds the agent the first connect resolved, wherever it
  // now sits in the roster: requests route by that name.
  Result<transport::Greeting> greeting =
      transport::dial_hello(ep_, deadline_, name_.empty() ? bind_ : name_);
  if (!greeting.ok()) return greeting.status();
  const wire::HelloMsg& h = greeting.value().hello;
  wire::HelloMsg::AgentInfo& bound = greeting.value().agent();

  const int64_t c1 = transport::span_clock_ns();
  clock_offset_ns_ = h.clock_ns - (c0 + (c1 - c0) / 2);

  const bool first = name_.empty();

  // Reconnect-aware hello diff: compare the fresh advertisement against the
  // cached element set.  Removed ids become departed (answered locally as
  // "departed at reconnect" blind spots until they re-appear) and added ids
  // are servable immediately — no full redial.  Both sets are ascending
  // (hellos advertise sorted ids), so a two-pointer walk yields both deltas.
  if (!first) {
    const std::vector<ElementId>& fresh = bound.elements;
    size_t removed = 0, added = 0, oi = 0, ni = 0;
    while (oi < elements_.size() || ni < fresh.size()) {
      if (ni >= fresh.size() ||
          (oi < elements_.size() && elements_[oi] < fresh[ni])) {
        departed_.insert(elements_[oi++]);
        ++removed;
      } else if (oi >= elements_.size() || fresh[ni] < elements_[oi]) {
        departed_.erase(fresh[ni++]);
        ++added;
      } else {
        ++oi;
        ++ni;
      }
    }
    if (removed + added > 0) {
      trace_event(transport_trace_id(), now, TraceEventKind::kTransportDamaged,
                  static_cast<double>(removed),
                  "elements departed at reconnect");
    }
  }

  name_ = bound.name;
  roster_names_.clear();
  for (const wire::HelloMsg::AgentInfo& a : h.roster) {
    roster_names_.push_back(a.name);
  }
  elements_ = std::move(bound.elements);
  element_set_.clear();
  element_set_.insert(elements_.begin(), elements_.end());
  sock_ = std::move(greeting.value().sock);

  ++stats_.connects;
  if (!first) ++stats_.reconnects;
  // The breaker is re-armed per the diff, not globally: the connection-level
  // breaker closes (the dial just succeeded), while departed elements stay
  // individually fast-failed above until a later hello re-adds them.
  breaker_.record_success();
  if (m_connects_ != nullptr) m_connects_->increment();
  if (!first && m_reconnects_ != nullptr) m_reconnects_->increment();
  trace_event(transport_trace_id(), now,
              first ? TraceEventKind::kTransportConnect
                    : TraceEventKind::kTransportReconnect,
              static_cast<double>(stats_.connects), name_);
  return Status::ok();
}

Status RemoteAgent::ensure_connected_locked(SimTime now) {
  if (sock_.valid()) return Status::ok();

  // Breaker gate: while open, skip the dial timeout entirely until the
  // cooldown (wall clock) expires; the next query then probes half-open.
  if (!breaker_.admit(transport::Clock::now(),
                      to_wall(breaker_cfg_.cooldown))) {
    ++stats_.fast_fails;
    return Status::unavailable("transport: breaker open for " +
                               ep_.to_string());
  }

  // One breaker failure per exhausted redial loop, not per dial.
  const uint32_t attempts = std::max<uint32_t>(1, retry_.max_attempts);
  Status last = Status::unavailable("transport: never attempted");
  for (uint32_t a = 1; a <= attempts; ++a) {
    Status st = connect_locked(now);
    if (st.is_ok()) return st;
    last = st;
    if (a < attempts) std::this_thread::sleep_for(to_wall(retry_.backoff(a)));
  }
  breaker_.record_failure(transport::Clock::now(),
                          breaker_cfg_.failure_threshold);
  return last;
}

template <typename Read>
bool RemoteAgent::exchange_locked(const std::string& request, SimTime now,
                                  Read read) {
  // Queries are idempotent reads, so a connection that died *before any
  // reply byte arrived* earns exactly one reconnect + resend.  Once reply
  // bytes exist, no resend: `read` accepts the surviving prefix, which the
  // caller reconciles (resending could double modelled channel time and
  // tear determinism).
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!ensure_connected_locked(now).is_ok()) return false;
    if (attempt > 0) {
      trace_event(transport_trace_id(), now,
                  TraceEventKind::kTransportReconnect, 1.0, "resend");
    }
    if (sock_.send_all(request, deadline_).is_ok() && read()) return true;
    drop_connection_locked();
  }
  return false;
}

BatchResponse RemoteAgent::query_batch(const std::vector<ElementId>& ids,
                                       SimTime now, ThreadPool* /*pool*/) {
  std::lock_guard<std::mutex> lock(mu_);

  // The request carries every id, for the server is the authority on what
  // it serves, except two kinds answered here.  A departed id is a blind
  // spot: the reconnect hello already proved the far end dropped it.  An id
  // too long to encode is counted unknown: no agent can serve one
  // (add_element refuses it).
  const TraceContext ctx = current_trace_context();
  wire::BatchRequestMsg req{now, {}, ctx.trace_id, ctx.span_id, name_};
  req.ids.reserve(ids.size());
  size_t unsendable = 0;
  std::vector<QueryResponse> departures;
  for (const ElementId& id : ids) {
    if (id.name.size() > 0xffff) {
      ++unsendable;
    } else if (!departed_.empty() && departed_.count(id) > 0) {
      departures.push_back(
          blind_spot(id, now, StatusCode::kFailedPrecondition));
    } else {
      req.ids.push_back(id);
    }
  }
  std::sort(departures.begin(), departures.end(), by_element<QueryResponse>);

  // The answer: a whole reply passes through untouched (responses, channel
  // time, unknown count and degraded tally all came off the wire).  A
  // damaged or lost one is reconciled against a plan of the hello cache:
  // every advertised id the reply lacks becomes a blind spot, and ids
  // neither advertised nor departed count unknown.  Only a damaged reply is
  // planned, since a whole one carries its own unknown count.  Departures
  // merge in by element id.
  std::vector<ElementId> known;
  const auto answer = [&](BatchResponse got, bool whole) {
    BatchResponse out;
    if (whole) {
      out = std::move(got);
      out.unknown_ids += unsendable;
    } else {
      const size_t unknown =
          plan_request(ids, known, [&](const ElementId& id) {
            if (element_set_.count(id) > 0) {
              known.push_back(id);
              return true;
            }
            return departed_.count(id) > 0;  // answered above
          });
      out = wire::reconcile(known, got, now);
      out.unknown_ids = unknown;
    }
    if (!departures.empty()) {
      const size_t wired = out.responses.size();
      std::move(departures.begin(), departures.end(),
                std::back_inserter(out.responses));
      std::inplace_merge(out.responses.begin(),
                         out.responses.begin() + wired, out.responses.end(),
                         by_element<QueryResponse>);
      out.degraded += departures.size();
    }
    return out;
  };
  // Every id answered here (departed or unsendable): no wire trip, so no
  // redial and no breaker failure against a dead server.
  if (req.ids.empty()) return answer({}, true);
  ++stats_.batches;
  if (m_batches_ != nullptr) m_batches_->increment();

  // The caller's trace context rides the envelope; {0, 0} (untraced) keeps
  // the request — and the server's reply — byte-identical to a build
  // without tracing.
  const std::string request = wire::encode_message(
      wire::MessageKind::kBatchRequest, wire::encode_batch_request(req));
  const int64_t trip_t0 = transport::span_clock_ns();
  transport::BatchReadResult read;
  if (!exchange_locked(request, now, [&] {
        read = transport::read_batch(sock_, deadline_);
        return read.clean() || !read.bytes.empty();
      })) {
    return answer({}, false);
  }

  wire::DecodeStats dstats;
  Result<BatchResponse> decoded = wire::decode_batch(read.bytes, &dstats);
  if (!decoded.ok()) {
    // Header never made it whole (or is garbage): nothing usable arrived.
    drop_connection_locked();
    ++stats_.damaged;
    if (m_damaged_ != nullptr) m_damaged_->increment();
    return answer({}, false);
  }
  if (read.clean() && dstats.complete()) {
    if (ctx.active()) {
      trace_span(transport_trace_id(), now, TraceEventKind::kSpanTransportTrip,
                 Duration::nanos(transport::span_clock_ns() - trip_t0),
                 next_span_id(), ctx.span_id,
                 static_cast<double>(req.ids.size()), name_);
      // A traced request always has trace data piggybacked right behind the
      // batch; pull it off the stream so the connection stays framed.  A
      // loss here costs the lane (recoverable by harvest), not the batch.
      read_trace_data_locked();
    }
    return answer(std::move(decoded).take(), true);
  }

  // Torn or corrupt stream: the connection's framing is gone, so drop it,
  // and reconcile what survived.
  drop_connection_locked();
  ++stats_.damaged;
  if (m_damaged_ != nullptr) m_damaged_->increment();
  const size_t arrived = decoded.value().responses.size();
  BatchResponse out = answer(std::move(decoded).take(), false);
  trace_event(transport_trace_id(), now, TraceEventKind::kTransportDamaged,
              static_cast<double>(known.size() - std::min(arrived,
                                                           known.size())),
              name_);
  return out;
}

}  // namespace perfsight
