#include "perfsight/streaming.h"

#include <algorithm>
#include <utility>

#include "perfsight/stats.h"

namespace perfsight {

const char* to_string(StreamCache::Provenance p) {
  switch (p) {
    case StreamCache::Provenance::kStreamed:
      return "streamed";
    case StreamCache::Provenance::kRepaired:
      return "repaired";
    case StreamCache::Provenance::kInband:
      return "inband";
  }
  return "?";
}

// --- StreamPublisher ---------------------------------------------------------

StreamPublisher::StreamPublisher(AgentClient* agent, const FaultPlan* plan)
    : agent_(agent), plan_(plan), ids_(agent->element_ids()) {}

Result<StreamPublisher::Published> StreamPublisher::publish(
    SimTime at, const std::vector<ElementId>& ids) {
  BatchResponse batch = agent_->query_batch(ids, at);
  wire::StreamDataMsg msg{agent_->name(), seq_ + 1, at, batch.channel_time,
                          std::move(batch.responses)};

  Result<std::string> body =
      wire::encode_stream_data(msg, has_prev_ ? &prev_ : nullptr);
  if (!body.ok()) return body.status();

  seq_ = msg.seq;
  prev_ = std::move(msg);
  has_prev_ = true;

  Published p;
  p.seq = seq_;
  p.body = std::move(body.value());
  p.dropped = plan_ != nullptr && plan_->stream_drop(agent_->name(), seq_);
  if (p.dropped) ++dropped_;
  return p;
}

// --- StreamCache -------------------------------------------------------------

void StreamCache::store_locked(Stream& s, Provenance provenance,
                               Frame frame) {
  Window& w = s.windows[frame->window_start.ns()];
  if (w.frame != nullptr) count_locked(w, -1);
  w.provenance = provenance;
  w.frame = std::move(frame);
  count_locked(w, +1);
  while (s.windows.size() > retention_) {
    count_locked(s.windows.begin()->second, -1);
    s.windows.erase(s.windows.begin());
    ++stats_.windows_pruned;
  }
}

void StreamCache::count_locked(const Window& w, int sign) {
  if (m_windows_ == nullptr) return;
  m_windows_->add(sign);
  m_records_->add(sign * static_cast<double>(w.frame->responses.size()));
}

Result<StreamCache::ApplyResult> StreamCache::apply(std::string_view body) {
  Result<wire::StreamFrameInfo> info = wire::peek_stream_data(body);
  if (!info.ok()) return info.status();

  std::lock_guard<std::mutex> lock(mu_);
  Stream& s = streams_[info.value().agent];

  ApplyResult r;
  r.seq = info.value().seq;
  r.expected = s.expected;
  r.window_start = info.value().window_start;

  // A fresh (or reset) stream accepts any seq — the first frame after a
  // subscribe is a snapshot, which may join a publisher mid-stream.
  const bool fresh = s.prev == nullptr;
  if (!fresh && r.seq > s.expected) {
    ++stats_.gaps;
    if (m_gaps_ != nullptr) m_gaps_->increment();
    r.missed = r.seq - s.expected;
    return r;  // applied == false: caller repairs, then re-applies
  }
  const bool regressed = !fresh && r.seq < s.expected;

  // A regressed stream lost its base (the publisher restarted): the frame
  // must stand alone, so decode it snapshot-style.  Delta attrs then fail
  // with "delta without base" instead of applying against the wrong world.
  const wire::StreamDataMsg* base = regressed ? nullptr : s.prev.get();
  bool no_base = false;
  Result<wire::StreamDataMsg> decoded =
      wire::decode_stream_data(body, base, &no_base);
  if (!decoded.ok()) {
    if (no_base && base == nullptr) {
      // Not damage: a well-formed delta frame met a stream with no base to
      // decode it against — a fresh/reset cache joining mid-stream, or a
      // restarted publisher's epoch entered at a delta frame.  Answer
      // needs_snapshot (stream state untouched) so the caller resyncs via
      // StreamPublisher::force_snapshot or a resubscribe, instead of the
      // permanent decode-error loop a hard Status would cause here.
      ++stats_.snapshot_requests;
      r.regressed = regressed;
      r.needs_snapshot = true;
      return r;
    }
    return decoded.status();
  }
  if (regressed) {
    ++stats_.resets;
    r.regressed = true;
  }
  s.expected = r.seq + 1;
  // The decoded frame is the window and the next delta base at once.
  s.prev = std::make_shared<const wire::StreamDataMsg>(
      std::move(decoded.value()));
  store_locked(s, Provenance::kStreamed, s.prev);

  ++stats_.frames_applied;
  stats_.bytes_applied += body.size();
  if (m_frames_ != nullptr) m_frames_->increment();
  if (m_bytes_ != nullptr) m_bytes_->add(body.size());
  r.applied = true;
  return r;
}

void StreamCache::repair(const std::string& agent, SimTime window_start,
                         BatchResponse batch) {
  absorb(agent, window_start, Provenance::kRepaired, batch.channel_time,
         std::move(batch.responses), /*rebase=*/true);
}

void StreamCache::ingest(const std::string& agent, SimTime window_start,
                         Provenance p, std::vector<QueryResponse> responses) {
  absorb(agent, window_start, p, Duration{}, std::move(responses),
         /*rebase=*/false);
}

void StreamCache::absorb(const std::string& agent, SimTime window_start,
                         Provenance p, Duration channel_time,
                         std::vector<QueryResponse> responses, bool rebase) {
  // Windows ascend by element id; a duplicated id keeps its order.
  if (!std::is_sorted(responses.begin(), responses.end(),
                      by_element<QueryResponse>)) {
    std::stable_sort(responses.begin(), responses.end(),
                     by_element<QueryResponse>);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Stream& s = streams_[agent];
  // A window older than everything retained (only a full cache has such a
  // horizon) would be inserted only to be pruned back out, or evict a live
  // window and skew windows_pruned; worse, rebasing the delta cursor onto
  // ancient data would corrupt every later in-order decode.  Drop it whole.
  if (s.windows.size() >= retention_ &&
      window_start.ns() < s.windows.begin()->first) {
    ++stats_.repairs_clamped;
    return;
  }
  auto frame = std::make_shared<const wire::StreamDataMsg>(
      wire::StreamDataMsg{agent, rebase ? s.expected : 0, window_start,
                          channel_time, std::move(responses)});
  store_locked(s, p, frame);
  // Side-door windows (in-band telemetry) never touch the seq/delta cursor:
  // they live on their own agent key and carry no wire base to rebase onto.
  if (!rebase) return;
  // The repaired window becomes the delta base: the next in-order frame was
  // encoded against the publisher's capture of this same boundary, and the
  // fault plan's purity makes the pull's attr bits identical to it.
  s.prev = std::move(frame);
  ++s.expected;
  ++stats_.repairs;
  if (m_repairs_ != nullptr) m_repairs_->increment();
}

void StreamCache::reset_stream(const std::string& agent) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(agent);
  if (it == streams_.end()) return;
  it->second.prev = nullptr;
  it->second.expected = 1;
  ++stats_.resets;
}

size_t StreamCache::read(const std::string& agent,
                         std::span<const ElementId* const> ids,
                         SimTime window_start, BatchResponse* out) const {
  Frame frame;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto sit = streams_.find(agent);
    if (sit != streams_.end()) {
      auto wit = sit->second.windows.find(window_start.ns());
      if (wit != sit->second.windows.end()) frame = wit->second.frame;
    }
  }
  // The walk runs on this reader's share of the immutable frame, so a
  // prune or an overwrite meanwhile drops only the cache's reference.
  IdCursor<QueryResponse> cursor(frame != nullptr ? &frame->responses
                                                  : nullptr);
  out->responses.reserve(out->responses.size() + ids.size());
  size_t hits = 0;
  for (const ElementId* id : ids) {
    if (const QueryResponse* r = cursor.find(*id)) {
      out->responses.push_back(*r);
      ++hits;
    } else {
      // A window never streamed or repaired degrades like a lost wire
      // frame: a visible blind spot.
      out->responses.push_back(
          blind_spot(*id, window_start, StatusCode::kUnavailable));
    }
    if (out->responses.back().quality != DataQuality::kFresh) ++out->degraded;
  }
  return hits;
}

std::optional<StreamCache::Provenance> StreamCache::window_provenance(
    const std::string& agent, SimTime window_start) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = streams_.find(agent);
  if (sit == streams_.end()) return std::nullopt;
  auto wit = sit->second.windows.find(window_start.ns());
  if (wit == sit->second.windows.end()) return std::nullopt;
  return wit->second.provenance;
}

uint64_t StreamCache::next_seq(const std::string& agent) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = streams_.find(agent);
  return sit == streams_.end() ? 1 : sit->second.expected;
}

Status StreamCache::set_retention(size_t windows) {
  if (windows == 0) {
    return Status::invalid_argument("stream cache: retention of 0 windows");
  }
  std::lock_guard<std::mutex> lock(mu_);
  retention_ = windows;
  return Status::ok();
}

StreamCache::Stats StreamCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void StreamCache::set_metrics(MetricsRegistry* m) {
  std::lock_guard<std::mutex> lock(mu_);
  m_frames_ = &m->counter("perfsight_stream_frames_applied_total",
                          "Stream frames absorbed into the window cache");
  m_gaps_ = &m->counter("perfsight_stream_gaps_total",
                        "Stream frames refused for a sequence gap");
  m_repairs_ = &m->counter("perfsight_stream_repairs_total",
                           "Windows backfilled by targeted repair pulls");
  m_bytes_ = &m->counter("perfsight_stream_bytes_applied_total",
                         "Encoded stream bytes accepted into the cache");
  m_windows_ = &m->gauge("perfsight_stream_cache_windows",
                         "Windows retained in the stream cache");
  m_records_ = &m->gauge("perfsight_stream_cache_records",
                         "Records held by the stream cache's windows");
  m_windows_->set(0);
  m_records_->set(0);
  for (const auto& [agent, s] : streams_) {
    for (const auto& [ns, w] : s.windows) count_locked(w, +1);
  }
}

// --- StreamCacheAgent --------------------------------------------------------

StreamCacheAgent::StreamCacheAgent(const StreamCache* cache,
                                   std::string agent_name,
                                   std::vector<ElementId> elements)
    : cache_(cache), name_(std::move(agent_name)), ids_(std::move(elements)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

StreamCacheAgent::StreamCacheAgent(const StreamCache* cache,
                                   const AgentClient& like)
    : StreamCacheAgent(cache, like.name(), like.element_ids()) {}

BatchResponse StreamCacheAgent::query_batch(const std::vector<ElementId>& ids,
                                            SimTime now, ThreadPool*) {
  // The plan points into ids_, so pointer order is element-id order.
  std::vector<const ElementId*> plan;
  BatchResponse out;
  IdCursor<ElementId> known(&ids_);
  out.unknown_ids = plan_request(ids, plan, [&](const ElementId& id) {
    const ElementId* k = known.find(id);
    if (k == nullptr) return false;
    plan.push_back(k);
    return true;
  });
  cache_->read(name_, plan, now, &out);
  return out;  // channel_time stays zero: paid once, at capture
}

// --- StreamPipeline ----------------------------------------------------------

void StreamPipeline::add_agent(AgentClient* agent) {
  pubs_.emplace_back(agent, plan_);
}

Status StreamPipeline::pump(SimTime at) {
  for (StreamPublisher& p : pubs_) {
    AgentClient* agent = p.agent();
    Result<StreamPublisher::Published> pub = p.publish(at);
    if (!pub.ok()) return pub.status();
    if (pub.value().dropped) {
      // The watchdog path: this boundary produced no frame, so repair now —
      // a pull at the same instant — before the world moves on.  Purity of
      // the fault plan makes the pull reproduce the dropped capture.
      cache_->repair(agent->name(), at, agent->query_batch(p.elements(), at));
      continue;
    }
    bytes_published_ += pub.value().body.size();
    Result<StreamCache::ApplyResult> applied = cache_->apply(pub.value().body);
    if (!applied.ok()) return applied.status();
    if (!applied.value().applied && applied.value().needs_snapshot) {
      // The cache lost its delta base (reset, or a restarted publisher's
      // epoch): republish this boundary as a snapshot.  The fault plan's
      // purity makes the re-capture bit-identical, and a fresh/regressed
      // stream accepts the bumped seq.
      p.force_snapshot();
      Result<StreamPublisher::Published> again = p.publish(at);
      if (!again.ok()) return again.status();
      bytes_published_ += again.value().body.size();
      applied = cache_->apply(again.value().body);
      if (!applied.ok()) return applied.status();
    }
    if (!applied.value().applied) {
      return Status::failed_precondition(
          "stream pipeline: unexpected gap for agent " + agent->name());
    }
  }
  return Status::ok();
}

uint64_t StreamPipeline::frames_dropped() const {
  uint64_t n = 0;
  for (const StreamPublisher& p : pubs_) n += p.frames_dropped();
  return n;
}

// --- StreamSubscriber --------------------------------------------------------

Status StreamSubscriber::connect(transport::WallDuration deadline,
                                 uint64_t from_seq, Duration window) {
  close();
  Result<transport::Greeting> g = transport::dial_hello(ep_, deadline, bind_);
  if (!g.ok()) return g.status();
  wire::SubscribeMsg sub;
  sub.agent = g.value().agent().name;
  sock_ = std::move(g.value().sock);
  hello_ = std::move(g.value().hello);
  sub.from_seq = from_seq;
  sub.window_ns = window.ns();
  Status sent = sock_.send_all(
      wire::encode_message(wire::MessageKind::kSubscribe,
                           wire::encode_subscribe(sub)),
      deadline);
  if (!sent.is_ok()) close();
  return sent;
}

Result<std::string> StreamSubscriber::next_body(
    transport::WallDuration deadline) {
  if (!sock_.valid()) {
    return Status::unavailable("stream subscriber: not connected");
  }
  Result<wire::Message> msg = transport::read_message(sock_, deadline);
  if (!msg.ok()) return msg.status();
  if (msg.value().kind != wire::MessageKind::kStreamData) {
    return Status::unavailable(
        std::string("stream subscriber: unexpected ") +
        wire::to_string(msg.value().kind));
  }
  return std::move(msg.value().body);
}

void StreamSubscriber::close() { sock_.close(); }

}  // namespace perfsight
