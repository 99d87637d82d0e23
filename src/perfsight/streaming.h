// Push-mode streaming telemetry: the collection direction inverted.
//
// PerfSight's loop is pull-based (controller → agent → channel), so
// steady-state monitoring pays a full sweep per diagnosis window.  This
// subsystem makes agents *publish* each window instead: a StreamPublisher
// captures the agent's whole element set once per window boundary (one
// query_batch — the same records a pull sweep at that boundary would get)
// and ships it as a kStreamData frame (StreamPipeline in process, one
// publisher per served agent in RemoteAgentServer); a StreamCache on the
// controller side materializes the frames into last-known state keyed by
// (element, window); a StreamCacheAgent serves that state through the
// AgentClient seam, so Algorithm 1/2, the Monitor and the AlertWatcher run
// continuously off the cache at per-window granularity — unchanged, and
// byte-identical to the sweep path.
//
// Why byte-identical is achievable at all: FaultPlan::decide() is pure in
// (seed, element, time, attempt), so a capture at window boundary t yields
// exactly the records/qualities/attempts/fail-codes a pull at t would, and
// a *repair* pull replaying boundary t reproduces a dropped capture
// exactly.  The only non-pure quantity is modelled channel jitter, which
// touches response_time alone — and response_time feeds no ranking, blind
// spot, coverage number or alert.
//
// Gap handling is a small state machine per stream (DESIGN.md §15):
//
//     in order  (seq == expected)  → delta-decode, apply, expected++
//     gap       (seq >  expected)  → frame NOT applied (its deltas have no
//                                    sound base); caller repairs the missed
//                                    windows with targeted pulls — each
//                                    repair advances expected and restores
//                                    the delta base — then re-applies
//     regressed (seq <  expected)  → publisher restarted; the frame must be
//                                    a snapshot (all-absolute) and rebases
//                                    the stream
//
// Repaired windows carry Provenance::kRepaired so operators can see where
// push-mode went through the pull repair path, but the records themselves
// are exactly what the pull returned — provenance never leaks into
// diagnosis output, which is what keeps the fidelity contract intact.
//
// Frame ownership: every window the cache absorbs becomes one immutable
// wire::StreamDataMsg behind a shared_ptr.  The retained window and the
// stream's delta base are that same object, and a reader holds it past the
// cache lock, so apply never copies a record and a prune never frees what
// a reader is walking.  Every window is in ascending element-id order
// (apply refuses descending frames; repair and ingest sort), as IdCursor
// (agent.h) needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "perfsight/agent.h"
#include "perfsight/faults.h"
#include "perfsight/metrics.h"
#include "perfsight/transport.h"
#include "perfsight/wire.h"

namespace perfsight {

// --- agent side --------------------------------------------------------------

// Captures one agent's full element set once per window and encodes the
// capture as a kStreamData frame, delta-coded against the previous capture.
// Frame 1 is always a full snapshot (no previous capture to delta against).
class StreamPublisher {
 public:
  // `agent` is not owned and must outlive the publisher; `plan` (optional,
  // not owned) supplies stream-drop fates for the encoded frames.
  explicit StreamPublisher(AgentClient* agent, const FaultPlan* plan = nullptr);

  struct Published {
    uint64_t seq = 0;
    bool dropped = false;  // the plan lost this frame in transit: the
                           // capture was paid, the bytes never arrive
    std::string body;      // encoded kStreamData body (PSM2 payload)
  };

  // The one capture: one query_batch at `at` of `ids` (of the element set
  // read at construction, in the first form), one seq, one encode against
  // the previous capture.  Sequence numbers advance even for dropped frames
  // — that is exactly what makes the drop visible downstream as a gap.  A
  // capture that cannot be encoded advances no seq.
  Result<Published> publish(SimTime at) { return publish(at, ids_); }
  Result<Published> publish(SimTime at, const std::vector<ElementId>& ids);
  // The last capture all-absolute: a joining receiver's first frame.
  Result<std::string> snapshot() const {
    return wire::encode_stream_data(prev_, nullptr);
  }

  // Forgets the delta base: the next publish() is a full snapshot.  This is
  // the resync handle for a receiver that answered needs_snapshot — its
  // cache lost (or never had) the delta base, so only an all-absolute frame
  // can re-anchor the stream.
  void force_snapshot() { has_prev_ = false; }

  uint64_t seq() const { return seq_; }
  uint64_t frames_dropped() const { return dropped_; }
  const std::vector<ElementId>& elements() const { return ids_; }
  AgentClient* agent() const { return agent_; }

 private:
  AgentClient* agent_;
  const FaultPlan* plan_;
  std::vector<ElementId> ids_;  // ascending
  uint64_t seq_ = 0;
  uint64_t dropped_ = 0;
  wire::StreamDataMsg prev_;  // the last capture
  bool has_prev_ = false;     // prev_ is the delta base
};

// --- controller side ---------------------------------------------------------

// Materialized last-known state: every delivered (or repaired) window of
// every subscribed agent, keyed by (element, window-start).  Thread-safe:
// subscribers apply frames while diagnosis reads through StreamCacheAgent.
class StreamCache {
 public:
  enum class Provenance {
    kStreamed,  // arrived in order on the stream
    kRepaired,  // backfilled by a targeted pull after a gap
    kInband,    // aggregated from in-band telemetry flights (inband.h)
  };

  struct ApplyResult {
    bool applied = false;
    uint64_t seq = 0;        // the frame's sequence number
    uint64_t expected = 0;   // what the stream state expected next
    uint64_t missed = 0;     // windows missing before this frame (gap size)
    bool regressed = false;  // seq went backward: publisher restarted
    // The frame is delta-coded but this stream has no delta base (fresh
    // after a reset, or a regressed epoch joined mid-stream): not damage
    // and not a repairable gap — the publisher must resend as a snapshot
    // (StreamPublisher::force_snapshot, or a remote resubscribe).  Stream
    // state is untouched, so retrying with a snapshot always succeeds.
    bool needs_snapshot = false;
    SimTime window_start;
  };

  // Applies one encoded kStreamData body (see the gap state machine in the
  // header comment).  Structural damage and delta-without-base are Status
  // errors; a gap is a successful Result with applied == false.
  Result<ApplyResult> apply(std::string_view body);

  // Backfills one window of `agent` from a targeted pull taken at the same
  // boundary, advancing the stream cursor by one and restoring the delta
  // base for the next in-order frame (the stored window and the base are
  // one frame holding `batch`'s responses, sorted by element id first when
  // out of order, as in ingest: a RemoteAgent passes replies unchecked).  A
  // stale backfill — a boundary older than the retention horizon (the
  // oldest kept window, with the cache at capacity) — is clamped whole:
  // storing it would resurrect a pruned window, and rebasing the live
  // stream's delta cursor onto ancient data would corrupt every frame after
  // it.  Clamps count in Stats::repairs_clamped and leave cache and cursor
  // untouched.
  void repair(const std::string& agent, SimTime window_start,
              BatchResponse batch);

  // Absorbs a window produced outside the frame stream — the in-band
  // telemetry harvester's per-window aggregation (Provenance::kInband).
  // Callers key INT windows under a dedicated agent name (e.g. "a0/int")
  // so they never collide with the same agent's streamed windows; the
  // stream's sequence/delta state is not consulted or advanced.  Subject to
  // the same retention-horizon clamp as repair().
  void ingest(const std::string& agent, SimTime window_start, Provenance p,
              std::vector<QueryResponse> responses);

  // Forgets `agent`'s delta/sequence state (a reconnecting subscriber calls
  // this: the next frame must be a snapshot and may carry any seq).  Cached
  // windows are kept — history is still valid data.
  void reset_stream(const std::string& agent);

  // The one read path (StreamCacheAgent serves every batch through it):
  // answers the ids `ids` points at from `agent`'s window at exactly
  // `window_start`, appending one response per id to `out->responses` in
  // order — the cached response, or a kUnavailable blind spot stamped
  // `window_start` for an id the window lacks (every id, for a window never
  // received).  Responses that are not fresh count in `out->degraded`.  One
  // lock and one stream and window lookup per call; the lookups are an
  // IdCursor walk, so ascending ids (what plan_request leaves) merge-walk
  // the window once.  The ids are read, never copied, except into blind
  // spots.  Returns how many ids the window held.
  size_t read(const std::string& agent, std::span<const ElementId* const> ids,
              SimTime window_start, BatchResponse* out) const;
  // How `agent`'s window at exactly `window_start` arrived, or nullopt when
  // the cache holds no such window.
  std::optional<Provenance> window_provenance(const std::string& agent,
                                              SimTime window_start) const;
  // The seq the stream expects next (1 for a fresh/reset stream).
  uint64_t next_seq(const std::string& agent) const;

  // Bounds memory: keep at most this many windows per agent (oldest pruned
  // first; kDefaultRetention until set).  0 is refused: an unbounded cache
  // grows for as long as the stream runs.
  static constexpr size_t kDefaultRetention = 5;
  Status set_retention(size_t windows);

  struct Stats {
    uint64_t frames_applied = 0;
    uint64_t gaps = 0;            // apply() calls that found a gap
    uint64_t repairs = 0;         // windows backfilled by pulls
    uint64_t resets = 0;          // stream rebases (reconnect/restart)
    uint64_t windows_pruned = 0;  // retention evictions
    uint64_t bytes_applied = 0;   // encoded stream bytes accepted
    uint64_t repairs_clamped = 0;      // stale backfills refused at the
                                       // retention horizon (repair/ingest)
    uint64_t snapshot_requests = 0;    // applies answered needs_snapshot
  };
  Stats stats() const;

  // Creates the perfsight_stream_* counters in `m` (not owned; call before
  // concurrent use), and the perfsight_stream_cache_windows and
  // perfsight_stream_cache_records gauges: the windows retained over every
  // stream and the records they hold, kept current on every store and
  // prune.
  void set_metrics(MetricsRegistry* m);

 private:
  // One absorbed window, immutable once built and shared (see the header
  // comment's frame ownership).
  using Frame = std::shared_ptr<const wire::StreamDataMsg>;
  struct Window {
    Provenance provenance = Provenance::kStreamed;
    Frame frame;
  };
  struct Stream {
    uint64_t expected = 1;
    Frame prev;                         // delta base; null = none
    std::map<int64_t, Window> windows;  // window-start ns → data
  };

  // Retains `frame` as `s`'s window at frame->window_start (replacing any
  // window already there), then prunes down to the retention.
  void store_locked(Stream& s, Provenance provenance, Frame frame);
  // Moves the size gauges by one window (sign +1 stored, -1 dropped).
  void count_locked(const Window& w, int sign);
  // repair (`rebase`: the window becomes the delta base and the cursor
  // advances) and ingest: stores `responses` in element-id order as
  // `agent`'s window at `window_start`, unless past the retention horizon.
  void absorb(const std::string& agent, SimTime window_start, Provenance p,
              Duration channel_time, std::vector<QueryResponse> responses,
              bool rebase);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Stream> streams_;
  size_t retention_ = kDefaultRetention;
  Stats stats_;
  MetricsRegistry::CounterMetric* m_frames_ = nullptr;
  MetricsRegistry::CounterMetric* m_gaps_ = nullptr;
  MetricsRegistry::CounterMetric* m_repairs_ = nullptr;
  MetricsRegistry::CounterMetric* m_bytes_ = nullptr;
  MetricsRegistry::Gauge* m_windows_ = nullptr;
  MetricsRegistry::Gauge* m_records_ = nullptr;
};

// Serves a StreamCache through the AgentClient seam: the controller (and
// everything above it — Algorithm 1/2, Monitor, AlertWatcher) queries the
// cache exactly as it would query the live agent.  name() is the *real*
// agent's name, so failure Status texts match the pull path byte for byte.
// A window the cache never received answers as a kUnavailable blind spot;
// the single query is a batch of one, so both controller paths agree.
class StreamCacheAgent : public AgentClient {
 public:
  StreamCacheAgent(const StreamCache* cache, std::string agent_name,
                   std::vector<ElementId> elements);
  // Convenience: mirror `like`'s name and element set.
  StreamCacheAgent(const StreamCache* cache, const AgentClient& like);

  const std::string& name() const override { return name_; }
  bool has_element(const ElementId& id) const override {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }
  std::vector<ElementId> element_ids() const override { return ids_; }

  // Served entirely from the cache, one StreamCache::read per batch: no
  // channel time is paid at query time (it was paid once, at capture).
  // `pool` is ignored, as by every AgentClient.
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool = nullptr) override;

 private:
  const StreamCache* cache_;
  std::string name_;
  std::vector<ElementId> ids_;  // ascending, unique
};

// Drives in-process push mode: one publisher per agent, one shared cache.
// pump(at) captures + delivers every agent's frame for the boundary `at`;
// a frame the plan drops is repaired immediately by a targeted pull at the
// same boundary (the pipeline is the watchdog — it knows the cadence, so a
// missing window never waits for the next frame to betray it).
class StreamPipeline {
 public:
  explicit StreamPipeline(StreamCache* cache, const FaultPlan* plan = nullptr)
      : cache_(cache), plan_(plan) {}

  void add_agent(AgentClient* agent);

  // One window boundary for every agent: publish, deliver or repair.
  Status pump(SimTime at);

  uint64_t frames_dropped() const;
  uint64_t bytes_published() const { return bytes_published_; }

 private:
  StreamCache* cache_;
  const FaultPlan* plan_;
  std::vector<StreamPublisher> pubs_;  // one per agent
  uint64_t bytes_published_ = 0;
};

// --- remote subscriber -------------------------------------------------------

// The client half of kSubscribe/kStreamData: dials a RemoteAgentServer,
// reads the hello, opens a subscription for one agent (the roster entry
// named `agent`, or the first entry when `agent` is empty), and reads
// frames.
// The connection is dedicated — after the subscribe, only kStreamData
// arrives, so frames never interleave with request/reply traffic.
// Feed the returned bodies to StreamCache::apply; after a reconnect, call
// StreamCache::reset_stream first (the server's first frame to a fresh
// connection is always a snapshot).
class StreamSubscriber {
 public:
  explicit StreamSubscriber(transport::Endpoint ep, std::string agent = {})
      : ep_(std::move(ep)), bind_(std::move(agent)) {}
  ~StreamSubscriber() { close(); }
  StreamSubscriber(const StreamSubscriber&) = delete;
  StreamSubscriber& operator=(const StreamSubscriber&) = delete;

  // Dial + hello + kSubscribe.  `from_seq`/`window` ride the subscribe as
  // hints.  Fails with kFailedPrecondition when the bound name is missing
  // from the roster.  Reconnect by calling connect() again on the same
  // object.
  Status connect(transport::WallDuration deadline, uint64_t from_seq = 0,
                 Duration window = {});

  // Blocks up to `deadline` for the next kStreamData frame and returns its
  // body.  Any other message kind fails kUnavailable.
  Result<std::string> next_body(transport::WallDuration deadline);

  const wire::HelloMsg& hello() const { return hello_; }
  bool connected() const { return sock_.valid(); }
  void close();

 private:
  transport::Endpoint ep_;
  std::string bind_;
  transport::Socket sock_;
  wire::HelloMsg hello_;
};

const char* to_string(StreamCache::Provenance p);

}  // namespace perfsight
