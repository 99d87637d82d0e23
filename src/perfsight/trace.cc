#include "perfsight/trace.h"

#include <algorithm>
#include <array>
#include <map>

#include "common/rng.h"
#include "common/status.h"
#include "perfsight/json_export.h"

namespace perfsight {

const char* to_string(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kDrop:
      return "drop";
    case TraceEventKind::kQueueHighWater:
      return "queue_high_water";
    case TraceEventKind::kQueueLowWater:
      return "queue_low_water";
    case TraceEventKind::kArbiterShortfall:
      return "arbiter_shortfall";
    case TraceEventKind::kArbiterRecovered:
      return "arbiter_recovered";
    case TraceEventKind::kStreamState:
      return "stream_state";
    case TraceEventKind::kAgentQueryIssued:
      return "agent_query_issued";
    case TraceEventKind::kAgentQueryCompleted:
      return "agent_query_completed";
    case TraceEventKind::kDiagnosisStarted:
      return "diagnosis_started";
    case TraceEventKind::kDiagnosisCompleted:
      return "diagnosis_completed";
    case TraceEventKind::kAlertFired:
      return "alert_fired";
    case TraceEventKind::kAgentCacheHit:
      return "agent_cache_hit";
    case TraceEventKind::kAgentRetry:
      return "agent_retry";
    case TraceEventKind::kAgentQueryFailed:
      return "agent_query_failed";
    case TraceEventKind::kAgentBatchDegraded:
      return "agent_batch_degraded";
    case TraceEventKind::kBreakerStateChange:
      return "breaker_state_change";
    case TraceEventKind::kAgentCrashRestart:
      return "agent_crash_restart";
    case TraceEventKind::kControllerScatter:
      return "controller_scatter";
    case TraceEventKind::kControllerGather:
      return "controller_gather";
    case TraceEventKind::kTransportConnect:
      return "transport_connect";
    case TraceEventKind::kTransportReconnect:
      return "transport_reconnect";
    case TraceEventKind::kTransportDamaged:
      return "transport_damaged";
    case TraceEventKind::kSpanScatter:
      return "span_scatter";
    case TraceEventKind::kSpanAgentBatch:
      return "span_agent_batch";
    case TraceEventKind::kSpanChannelTrip:
      return "span_channel_trip";
    case TraceEventKind::kSpanTransportTrip:
      return "span_transport_trip";
    case TraceEventKind::kSpanServerBatch:
      return "span_server_batch";
  }
  return "?";
}

// --- trace context ----------------------------------------------------------

namespace {
thread_local TraceContext t_trace_ctx;
// One process-wide counter; the domain in the top 16 bits separates ids
// minted by different processes (see next_span_id in the header).
std::atomic<uint64_t> g_span_counter{0};
}  // namespace

TraceContext current_trace_context() { return t_trace_ctx; }

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) : prev_(t_trace_ctx) {
  t_trace_ctx = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { t_trace_ctx = prev_; }

uint64_t next_span_id(uint16_t domain) {
  const uint64_t n =
      g_span_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return (static_cast<uint64_t>(domain) << 48) | (n & 0xffffffffffffULL);
}

uint16_t span_domain_for(std::string_view process_name) {
  // FNV-1a folded to 16 bits; never 0 (the controller's domain).
  const uint64_t h = fnv1a64(process_name);
  uint16_t d = static_cast<uint16_t>(h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48));
  return d == 0 ? 1 : d;
}

TraceRing::TraceRing(std::string element, size_t capacity)
    : element_(std::move(element)), buf_(capacity == 0 ? 1 : capacity) {
  // Pre-fill the element name so steady-state pushes only touch the fields
  // that change (the name of a ring's events never does).
  for (TraceEvent& e : buf_) e.element = element_;
}

void TraceRing::push(SimTime t, TraceEventKind kind, double value,
                     std::string_view detail, uint64_t span_id,
                     uint64_t parent_span, Duration dur) {
#ifndef NDEBUG
  // Single-writer contract (see header): a second thread entering while a
  // push is in flight would tear the slot's strings.  The exchange is the
  // whole check — release builds pay nothing.
  const bool reentered = in_push_.exchange(true, std::memory_order_acquire);
  PS_CHECK(!reentered);
#endif
  TraceEvent& e = buf_[next_];
  e.t = t;
  e.kind = kind;
  e.value = value;
  e.detail.assign(detail.data(), detail.size());
  e.span_id = span_id;
  e.parent_span = parent_span;
  e.dur = dur;
  next_ = next_ + 1 == buf_.size() ? 0 : next_ + 1;
  if (count_ < buf_.size()) ++count_;
  ++total_;
#ifndef NDEBUG
  in_push_.store(false, std::memory_order_release);
#endif
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  size_t start = count_ < buf_.size() ? 0 : next_;
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(buf_[(start + i) % buf_.size()]);
  }
  return out;
}

TraceRing* TraceRecorder::ring_locked(const ElementId& id) {
  auto it = rings_.find(id);
  if (it != rings_.end()) return it->second.get();
  auto r = std::make_unique<TraceRing>(id.name, ring_capacity_);
  TraceRing* raw = r.get();
  rings_.emplace(id, std::move(r));
  return raw;
}

TraceRing* TraceRecorder::ring(const ElementId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_locked(id);
}

void TraceRecorder::record(const ElementId& id, SimTime t,
                           TraceEventKind kind, double value,
                           std::string_view detail) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  ring_locked(id)->push(t, kind, value, detail);
}

void TraceRecorder::record_span(const ElementId& id, SimTime t,
                                TraceEventKind kind, Duration dur,
                                uint64_t span_id, uint64_t parent_span,
                                double value, std::string_view detail) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  ring_locked(id)->push(t, kind, value, detail, span_id, parent_span, dur);
}

uint64_t TraceRecorder::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [id, r] : rings_) n += r->dropped_events();
  return n;
}

uint64_t TraceRecorder::total_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [id, r] : rings_) n += r->total_events();
  return n;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, r] : rings_) {
      std::vector<TraceEvent> s = r->snapshot();
      out.insert(out.end(), s.begin(), s.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.element < b.element;
                   });
  return out;
}

std::vector<TraceEvent> TraceRecorder::events_for(const ElementId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(id);
  if (it == rings_.end()) return {};
  return it->second->snapshot();
}

std::vector<TraceEvent> TraceRecorder::drain() {
  std::vector<TraceEvent> out = events();
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
  return out;
}

std::vector<TraceRecorder::RingStats> TraceRecorder::ring_stats() const {
  std::vector<RingStats> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(rings_.size());
    for (const auto& [id, r] : rings_) {
      out.push_back(RingStats{r->element(), r->size(), r->capacity(),
                              r->total_events(), r->dropped_events()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RingStats& a, const RingStats& b) {
              return a.element < b.element;
            });
  return out;
}

void TraceRecorder::add_remote_lane(const std::string& process,
                                    int64_t clock_offset_ns,
                                    std::vector<TraceEvent> events) {
  std::lock_guard<std::mutex> lock(mu_);
  for (RemoteLane& lane : remote_lanes_) {
    if (lane.process == process) {
      lane.clock_offset_ns = clock_offset_ns;
      lane.events.insert(lane.events.end(),
                         std::make_move_iterator(events.begin()),
                         std::make_move_iterator(events.end()));
      return;
    }
  }
  remote_lanes_.push_back(
      RemoteLane{process, clock_offset_ns, std::move(events)});
}

std::vector<TraceRecorder::RemoteLane> TraceRecorder::remote_lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remote_lanes_;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
  remote_lanes_.clear();
}

namespace {
TraceRecorder g_default_recorder;
TraceRecorder* g_recorder = &g_default_recorder;
}  // namespace

TraceRecorder& TraceRecorder::global() { return *g_recorder; }

TraceRecorder* TraceRecorder::install(TraceRecorder* r) {
  TraceRecorder* prev = g_recorder;
  g_recorder = r != nullptr ? r : &g_default_recorder;
  return prev == &g_default_recorder ? nullptr : prev;
}

namespace {

// Joined candidate-resource list per drop location, derived once from the
// standard rule book so the flight recorder and the diagnosis layer can
// never disagree about causes.
const std::string& drop_cause(ElementKind kind) {
  static const std::map<int, std::string> kCauses = [] {
    std::map<int, std::string> m;
    const RuleBook book = RuleBook::standard();
    for (const RuleBook::Rule& r : book.rules()) {
      std::string& s = m[static_cast<int>(r.drop_location)];
      std::string name = to_string(r.resource);
      if (s.find(name) != std::string::npos) continue;
      if (!s.empty()) s += "|";
      s += name;
    }
    return m;
  }();
  static const std::string kUnknown = "unmapped location";
  auto it = kCauses.find(static_cast<int>(kind));
  return it == kCauses.end() ? kUnknown : it->second;
}

}  // namespace

void trace_drop(const ElementId& id, ElementKind kind, uint64_t pkts) {
  TraceRecorder& g = TraceRecorder::global();
  if (!g.enabled()) return;
  g.record(id, g.now(), TraceEventKind::kDrop, static_cast<double>(pkts),
           drop_cause(kind));
}

namespace {

// One event object.  Point events render as instants ("i"), span events as
// complete events ("X") with their duration and resolvable span/parent ids
// (rendered as decimal strings: span ids use all 64 bits, which a JSON
// double cannot carry).
void append_event(std::string& out, const TraceEvent& e, int pid, int tid,
                  int64_t clock_offset_ns) {
  out += "{\"name\":\"" + json::escape(to_string(e.kind)) + "\"";
  if (e.is_span()) {
    out += ",\"ph\":\"X\"";
    out += ",\"dur\":" + json::number(e.dur.us());
  } else {
    out += ",\"ph\":\"i\",\"s\":\"t\"";
  }
  out += ",\"ts\":" +
         json::number(static_cast<double>(e.t.ns() - clock_offset_ns) / 1e3);
  out += ",\"pid\":" + json::number(pid);
  out += ",\"tid\":" + json::number(tid);
  out += ",\"cat\":\"perfsight\"";
  out += ",\"args\":{\"element\":\"" + json::escape(e.element) + "\"";
  out += ",\"value\":" + json::number(e.value);
  out += ",\"detail\":\"" + json::escape(e.detail) + "\"";
  if (e.is_span()) {
    out += ",\"span_id\":\"" + std::to_string(e.span_id) + "\"";
    out += ",\"parent_span\":\"" + std::to_string(e.parent_span) + "\"";
  }
  out += "}}";
}

void append_meta(std::string& out, bool& first, const char* what, int pid,
                 int tid, const std::string& name) {
  if (!first) out += ",";
  first = false;
  out += "{\"name\":\"" + std::string(what) + "\",\"ph\":\"M\",\"ts\":0";
  out += ",\"pid\":" + json::number(pid);
  if (tid >= 0) out += ",\"tid\":" + json::number(tid);
  out += ",\"args\":{\"name\":\"" + json::escape(name) + "\"}}";
}

}  // namespace

std::string to_chrome_trace(const TraceRecorder& recorder) {
  std::vector<TraceEvent> evs = recorder.events();
  std::vector<TraceRecorder::RemoteLane> lanes = recorder.remote_lanes();
  std::sort(lanes.begin(), lanes.end(),
            [](const TraceRecorder::RemoteLane& a,
               const TraceRecorder::RemoteLane& b) {
              return a.process < b.process;
            });

  // Stable virtual-thread ids per element, in name order.
  std::map<std::string, int> tids;
  for (const TraceEvent& e : evs) tids.emplace(e.element, 0);
  int next_tid = 1;
  for (auto& [name, tid] : tids) tid = next_tid++;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // Metadata first (ts 0 keeps the single-lane stream sorted: simulated
  // time never goes negative).  Process names are only worth emitting when
  // more than one process is present.
  if (!lanes.empty()) {
    append_meta(out, first, "process_name", 1, -1, "controller");
  }
  for (const auto& [name, tid] : tids) {
    append_meta(out, first, "thread_name", 1, tid, name);
  }
  for (size_t li = 0; li < lanes.size(); ++li) {
    const int pid = static_cast<int>(li) + 2;
    append_meta(out, first, "process_name", pid, -1, lanes[li].process);
    std::map<std::string, int> lane_tids;
    for (const TraceEvent& e : lanes[li].events) lane_tids.emplace(e.element, 0);
    int lt = 1;
    for (auto& [name, tid] : lane_tids) {
      tid = lt++;
      append_meta(out, first, "thread_name", pid, tid, name);
    }
  }

  for (const TraceEvent& e : evs) {
    if (!first) out += ",";
    first = false;
    append_event(out, e, /*pid=*/1, tids[e.element], /*clock_offset_ns=*/0);
  }

  // Remote lanes: clock-corrected onto the local span clock, sorted within
  // the lane (each lane is monotone; lanes are separate Perfetto processes,
  // so cross-lane array order is irrelevant to viewers).
  for (size_t li = 0; li < lanes.size(); ++li) {
    const int pid = static_cast<int>(li) + 2;
    std::vector<TraceEvent> lane_evs = lanes[li].events;
    std::stable_sort(lane_evs.begin(), lane_evs.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.t != b.t) return a.t < b.t;
                       return a.element < b.element;
                     });
    std::map<std::string, int> lane_tids;
    for (const TraceEvent& e : lane_evs) lane_tids.emplace(e.element, 0);
    int lt = 1;
    for (auto& [name, tid] : lane_tids) tid = lt++;
    for (const TraceEvent& e : lane_evs) {
      if (!first) out += ",";
      first = false;
      append_event(out, e, pid, lane_tids[e.element],
                   lanes[li].clock_offset_ns);
    }
  }

  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":";
  out += json::number(static_cast<double>(recorder.dropped_events()));
  out += "}}";
  return out;
}

}  // namespace perfsight
