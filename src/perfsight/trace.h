// Flight-recorder event tracing for the software dataplane (§4 direction:
// always-on, low-level instrumentation instead of coarse utilization
// monitoring).
//
// Aggregate counters answer "how many packets were lost"; they cannot answer
// "what *sequence* of drops, queue build-ups, grant shortfalls and state
// transitions led to this diagnosis".  The TraceRecorder closes that gap:
// every instrumented element owns a bounded ring of TraceEvents —
//
//   * kDrop                 packet loss, annotated with the rule book's
//                           candidate causes for that drop location
//   * kQueueHighWater/
//     kQueueLowWater        queue occupancy crossing 3/4, draining to 1/4
//   * kArbiterShortfall/
//     kArbiterRecovered     a resource-pool consumer granted less than its
//                           demand (the onset / end of contention)
//   * kStreamState          middlebox ReadBlocked / WriteBlocked /
//                           Overloaded / Underloaded transitions (Fig. 7)
//   * kAgentQueryIssued/
//     kAgentQueryCompleted  agent↔element channel activity (Fig. 9 cost)
//   * kDiagnosisStarted/
//     kDiagnosisCompleted   Algorithm 1/2 runs (self-profiling)
//   * kAlertFired           an AlertWatcher threshold breach
//
// Rings overwrite the oldest event when full and count what they discard
// (`dropped_events`), so the hot path never blocks and never allocates
// unboundedly: recording is a handful of stores (strings stay within SSO
// for the short static details used on fast paths).  With tracing disabled
// the cost is a single branch on a global flag.
//
// The recorder carries a simulated-time clock stamped by the Simulator each
// tick, so instrumentation points without a `now` parameter (queue accept,
// drop charging) still timestamp correctly.  Wall-clock users (the hotpath
// overhead bench) push into rings directly with their own timestamps.
//
// Export: to_chrome_trace() renders the merged, time-ordered event stream
// as Chrome-trace/Perfetto JSON, so any scenario run can be opened in a
// trace viewer (chrome://tracing, ui.perfetto.dev).
//
// Cross-process spans: on top of the point events, the collection path
// records *span* events (span_id != 0, a duration, and a parent link):
// a controller scatter span, one agent-batch span per fanned-out agent,
// one channel-trip span per channel kind inside the batch, and — for
// socket-backed agents — a transport round-trip span client-side plus a
// serve span recorded in the remote process.  The trace context (trace id +
// parent span id) crosses threads via ScopedTraceContext and crosses
// processes on the PSM2 request envelope (wire.h); harvested remote rings
// come back as RemoteLanes, exported as separate Perfetto processes with a
// clock-offset correction negotiated in the hello handshake.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "perfsight/rulebook.h"

namespace perfsight {

// kTraceData (wire.h) carries the kind as a u8, so a kind is never
// renumbered: kinds 11 and 13 are retired (nothing emits them) and keep
// their numbers so every later kind keeps its own.
enum class TraceEventKind {
  kDrop = 0,
  kQueueHighWater,
  kQueueLowWater,
  kArbiterShortfall,
  kArbiterRecovered,
  kStreamState,
  kAgentQueryIssued,
  kAgentQueryCompleted,
  kDiagnosisStarted,
  kDiagnosisCompleted,
  kAlertFired,
  kAgentCacheHit = 11,  // retired (was a cached query served locally)
  // Fault-tolerant collection (faults.h): channel failures, the retry/budget
  // machinery absorbing them, and circuit-breaker state — timelines show the
  // collection layer degrading, not just succeeding.
  kAgentRetry,             // one retry after a failed attempt (value = #)
  kAgentQueryFailed = 13,  // retired (was a failed per-element query)
  kAgentBatchDegraded,     // a batch returned with blind spots (value = count)
  kBreakerStateChange,  // circuit breaker closed/open/half-open transition
  kAgentCrashRestart,   // whole-agent crash: caches lost, counters reset
  // Controller scatter-gather (controller.h): a multi-element query fanned
  // out as per-agent batches over the collection pool, then merged back in
  // element-id order.
  kControllerScatter,  // fan-out issued (value = elements requested)
  kControllerGather,   // merge completed (value = elements served)
  // Socket transport (transport.h / remote_agent.h): connection lifecycle of
  // socket-backed agents, so timelines show when measurement crossed a real
  // process boundary and when that boundary failed.
  kTransportConnect,    // RemoteAgent dialed + completed the hello handshake
  kTransportReconnect,  // a dead connection was re-dialed (value = attempt#)
  kTransportDamaged,    // a batch arrived torn/short (value = frames lost)
  // Cross-process span events (span_id != 0, dur set): the scatter →
  // agent-batch → channel-trip hierarchy, plus the transport/server pair a
  // socket boundary adds.  Rendered as "X" (complete) Chrome-trace events.
  kSpanScatter,        // controller fan-out (value = elements requested)
  kSpanAgentBatch,     // one agent's batch (value = elements in the batch)
  kSpanChannelTrip,    // one channel kind's shared round trip
  kSpanTransportTrip,  // client-side socket round trip (dur = wall time)
  kSpanServerBatch,    // server-side batch serve (span-clock timestamps)
};

const char* to_string(TraceEventKind k);

struct TraceEvent {
  SimTime t;
  TraceEventKind kind = TraceEventKind::kDrop;
  double value = 0;     // kind-specific magnitude (pkts, fraction, us, ...)
  std::string element;  // owning element name
  std::string detail;   // short human-readable annotation
  // Span extension (zero for point events): a span covers [t, t + dur] and
  // links to the span that caused it.  Parent links resolve across process
  // boundaries — a harvested server span's parent is the controller scatter
  // span whose id travelled on the request envelope.
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  Duration dur;

  bool is_span() const { return span_id != 0; }
};

// --- trace context ----------------------------------------------------------
// The causal context a span-recording site inherits: which trace it belongs
// to and which span caused it.  Propagated across pool threads with
// ScopedTraceContext (thread-local, so each fan-out worker carries its own)
// and across processes on the PSM2 request envelope.

struct TraceContext {
  uint64_t trace_id = 0;  // 0 = no active trace: record no spans
  uint64_t span_id = 0;   // the parent for spans recorded under this context
  bool active() const { return trace_id != 0; }
};

// The calling thread's current context ({0, 0} when none is installed).
TraceContext current_trace_context();

// RAII install of a context on the current thread; restores the previous
// one on destruction.  Set inside pool-worker lambdas: thread-locals do not
// cross the fan-out boundary by themselves.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;
  ~ScopedTraceContext();

 private:
  TraceContext prev_;
};

// Allocates a process-unique span id: (domain << 48) | counter.  The domain
// disambiguates ids minted by different processes (a remote agent server
// derives its domain from its agent name) so harvested spans never collide
// with controller-side ones.
uint64_t next_span_id(uint16_t domain = 0);
// Domain for an agent process, derived from its name (never 0 — domain 0 is
// the controller's).
uint16_t span_domain_for(std::string_view process_name);

// Fixed-capacity event ring for one element.  Overwrites the oldest event
// when full; `dropped_events` counts the overwritten ones.
//
// push() is single-writer: callers that cache the ring pointer (the hotpath
// bench) must push from one thread at a time; concurrent recording goes
// through TraceRecorder::record(), which serializes under the recorder
// lock.  Debug builds enforce the contract with an entry guard that aborts
// on a concurrent push instead of silently tearing a slot.
class TraceRing {
 public:
  TraceRing(std::string element, size_t capacity);

  void push(SimTime t, TraceEventKind kind, double value,
            std::string_view detail, uint64_t span_id = 0,
            uint64_t parent_span = 0, Duration dur = Duration());

  size_t size() const { return count_; }
  size_t capacity() const { return buf_.size(); }
  uint64_t total_events() const { return total_; }
  uint64_t dropped_events() const { return total_ - count_; }
  const std::string& element() const { return element_; }

  // Events oldest-first.
  std::vector<TraceEvent> snapshot() const;

 private:
  std::string element_;
  std::vector<TraceEvent> buf_;
  size_t next_ = 0;   // slot the next push writes
  size_t count_ = 0;  // live events (<= capacity)
  uint64_t total_ = 0;
#ifndef NDEBUG
  // Debug-only single-writer guard: slots hold std::strings, so a lock-free
  // concurrent push cannot be made safe — catch the misuse instead.
  std::atomic<bool> in_push_{false};
#endif
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultRingCapacity = 1024;

  explicit TraceRecorder(size_t ring_capacity = kDefaultRingCapacity)
      : ring_capacity_(ring_capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // The recorder's clock; the Simulator stamps this at every tick so that
  // instrumentation points without a time parameter timestamp correctly.
  SimTime now() const { return now_; }
  void set_now(SimTime t) { now_ = t; }

  // Per-element ring, created on first use.  Hot paths that record per
  // packet should cache this pointer; rings live as long as the recorder.
  // Direct TraceRing::push bypasses the recorder lock and is only safe
  // single-threaded; concurrent recording must go through record().
  TraceRing* ring(const ElementId& id);

  // Records one event (no-op while disabled).
  void record(const ElementId& id, SimTime t, TraceEventKind kind,
              double value = 0, std::string_view detail = {});

  // Records one span event covering [t, t + dur] (no-op while disabled).
  void record_span(const ElementId& id, SimTime t, TraceEventKind kind,
                   Duration dur, uint64_t span_id, uint64_t parent_span,
                   double value = 0, std::string_view detail = {});

  size_t ring_capacity() const { return ring_capacity_; }
  size_t num_rings() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rings_.size();
  }
  // Total events discarded by overwrite across all rings.
  uint64_t dropped_events() const;
  uint64_t total_events() const;

  // Per-ring health, sorted by element name (the metrics exposition renders
  // these so ring overwrites stop being silent).
  struct RingStats {
    std::string element;
    size_t size = 0;
    size_t capacity = 0;
    uint64_t total_events = 0;
    uint64_t dropped_events = 0;
  };
  std::vector<RingStats> ring_stats() const;

  // Merged event stream, ordered by timestamp (ties broken by element).
  std::vector<TraceEvent> events() const;
  std::vector<TraceEvent> events_for(const ElementId& id) const;

  // Merged event stream, then clears the rings: what a trace harvest ships.
  // Each event leaves the recorder exactly once, so repeated harvests (or
  // the piggyback-on-reply fast path) never duplicate remote spans.
  std::vector<TraceEvent> drain();

  void clear();

  // --- harvested remote rings ----------------------------------------------
  // Events shipped back from another process's recorder.  They keep that
  // process's span clock; `clock_offset_ns` (remote minus local, estimated
  // from the hello handshake) is subtracted at export so all lanes share
  // the local clock.  Lanes merge by process name across repeated harvests.
  struct RemoteLane {
    std::string process;
    int64_t clock_offset_ns = 0;
    std::vector<TraceEvent> events;
  };
  void add_remote_lane(const std::string& process, int64_t clock_offset_ns,
                       std::vector<TraceEvent> events);
  std::vector<RemoteLane> remote_lanes() const;
  size_t num_remote_lanes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return remote_lanes_.size();
  }

  // The process-wide recorder the instrumentation hooks talk to.  Disabled
  // by default; install() swaps in a caller-owned recorder (tests, tools)
  // and returns the previous one; install(nullptr) restores the default.
  static TraceRecorder& global();
  static TraceRecorder* install(TraceRecorder* r);

 private:
  TraceRing* ring_locked(const ElementId& id);

  bool enabled_ = false;
  SimTime now_;
  size_t ring_capacity_;
  // Guards rings_ and pushes through record(): the parallel collection
  // runtime emits events from worker threads.  Reads (events, counts) take
  // the same lock, so snapshots are consistent.
  mutable std::mutex mu_;
  std::unordered_map<ElementId, std::unique_ptr<TraceRing>> rings_;
  std::vector<RemoteLane> remote_lanes_;
};

// RAII install+enable of a recorder (tests and tools).
class ScopedTraceRecorder {
 public:
  explicit ScopedTraceRecorder(size_t ring_capacity =
                                   TraceRecorder::kDefaultRingCapacity)
      : recorder_(ring_capacity) {
    recorder_.set_enabled(true);
    prev_ = TraceRecorder::install(&recorder_);
  }
  ScopedTraceRecorder(const ScopedTraceRecorder&) = delete;
  ScopedTraceRecorder& operator=(const ScopedTraceRecorder&) = delete;
  ~ScopedTraceRecorder() { TraceRecorder::install(prev_); }

  TraceRecorder& recorder() { return recorder_; }

 private:
  TraceRecorder recorder_;
  TraceRecorder* prev_;
};

// --- hot-path hooks ---------------------------------------------------------
// One branch when tracing is off; callers need not know about the recorder.

inline bool trace_enabled() { return TraceRecorder::global().enabled(); }

// Records at an explicit time (instrumentation points that know `now`).
inline void trace_event(const ElementId& id, SimTime t, TraceEventKind kind,
                        double value = 0, std::string_view detail = {}) {
  TraceRecorder& g = TraceRecorder::global();
  if (!g.enabled()) return;
  g.record(id, t, kind, value, detail);
}

// Records at the recorder's clock (points without a time parameter).
inline void trace_event_now(const ElementId& id, TraceEventKind kind,
                            double value = 0, std::string_view detail = {}) {
  TraceRecorder& g = TraceRecorder::global();
  if (!g.enabled()) return;
  g.record(id, g.now(), kind, value, detail);
}

// Records a span event covering [t, t + dur].
inline void trace_span(const ElementId& id, SimTime t, TraceEventKind kind,
                       Duration dur, uint64_t span_id, uint64_t parent_span,
                       double value = 0, std::string_view detail = {}) {
  TraceRecorder& g = TraceRecorder::global();
  if (!g.enabled()) return;
  g.record_span(id, t, kind, dur, span_id, parent_span, value, detail);
}

// Drop with the rule book's cause taxonomy attached: the detail names the
// candidate resources whose shortage manifests at this element kind
// (Table 1), so the flight recorder explains drops, not just counts them.
void trace_drop(const ElementId& id, ElementKind kind, uint64_t pkts);

// --- export -----------------------------------------------------------------

// Chrome-trace / Perfetto JSON ("object format"): instant events with
// microsecond timestamps, one virtual thread per element, thread_name
// metadata so viewers show element names.  Timestamps are sorted.
//
// Span events render as complete ("X") events with their duration and carry
// span_id / parent_span in args, so a viewer (or the fleet-tracing tests)
// can resolve the scatter → batch → serve causality chain.  Harvested
// remote lanes render as additional Perfetto processes (pid 2, 3, ... in
// process-name order, with process_name metadata), timestamps corrected by
// each lane's clock offset and sorted within the lane.
std::string to_chrome_trace(const TraceRecorder& recorder);

}  // namespace perfsight
