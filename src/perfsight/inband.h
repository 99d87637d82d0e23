// In-band telemetry (INT): the third collection backend, after pull sweeps
// and push-mode streaming.
//
// Polling and streaming both sample element counters at window boundaries,
// so anything that builds and drains *inside* a window — a microburst that
// fills a queue for 20 ms and is gone before the next sweep — leaves no
// boundary-visible trace.  INT closes that blind spot the way "Millions of
// Little Minions" does: the packets themselves carry the evidence.  A
// sampled packet (1-in-N at the ingress element) is tagged with a flight id;
// every participating element it traverses stamps a hop onto the flight's
// metadata stack — element id, queue depth at arrival, io-time spent,
// drop-tail marker — and the last element harvests the completed stack.
//
// Two classes split the work across the dataplane/collection boundary:
//
//  * IntStamper — the dataplane side.  Elements register for a slot and
//    keep a raw pointer + slot index (dp::Element::set_int_stamper); every
//    hook in the packet path is gated on a per-slot enable bit, so a
//    disabled (or never-attached) stamper leaves the packet path and every
//    counter bit-identical to a build without INT.  Each hook is one locked
//    call per hop.  A hop names its element by slot index, so stamping
//    copies no strings.  Tags are issued in sequence, so the bounded
//    in-flight table is a window indexed by tag; completed (harvested or
//    drop-tailed) flights move to a finished list the harvester drains.
//
//  * IntHarvester — the collection side.  close_window(t) drains finished
//    flights, aggregates them per element into the same StatsRecord attr
//    format the agent channels produce (so Algorithms 1/2, the rule book
//    and the AlertWatcher consume INT records unchanged), prices each
//    flight's kIntReport body arithmetically, and ingests one
//    window into a StreamCache under Provenance::kInband.  A queue-depth
//    excursion beyond the configured threshold fires the microburst
//    callback — the hybrid mode wires that callback to a targeted pull
//    sweep (Controller::get_attr_many) over just the implicated elements,
//    so steady traffic costs zero extra queries and a burst pays for
//    exactly one focused sweep.
//
// Overhead is bounded by construction: sampling is 1-in-N, the hop stack is
// capped, the in-flight table is capped, and a flight whose tag is lost in
// the fluid simulation (batch merges/trims) is expired, never leaked.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/ring.h"
#include "common/units.h"
#include "perfsight/rulebook.h"

namespace perfsight {

class StreamCache;
struct PacketBatch;

namespace inband {

// Canonical INT attr names (exported alongside the standard counter names,
// which is what lets the existing diagnosis stack consume INT windows).
inline constexpr const char* kIntSamples = "intSamples";
inline constexpr const char* kIntQueuePeakPkts = "intQueuePeakPkts";
inline constexpr const char* kIntIoTimeNs = "intIoTimeNs";
inline constexpr const char* kIntDropTailFlights = "intDropTailFlights";

// One stamped hop of a flight's metadata stack.  The element is named by
// its stamper slot; IntStamper::slot_info resolves it.
struct Hop {
  int slot = -1;
  uint64_t queue_pkts = 0;  // occupancy of the element's queue at arrival
  Duration io_time;         // io-time attributed while held at this hop
  bool drop_tail = false;   // the tagged packet died in a tail drop here
};

// A sampled packet's journey, ingress tag to harvest (or drop).
struct Flight {
  uint64_t tag = 0;
  SimTime start;
  SimTime end;
  bool dropped = false;
  std::vector<Hop> hops;
};

// What a slot was registered as.
struct SlotInfo {
  ElementId id;
  ElementKind kind = ElementKind::kOther;
  int vm = -1;
};

class IntStamper {
 public:
  struct Config {
    uint64_t sample_every = 64;  // 1-in-N ingress packets starts a flight
    size_t max_hops = 16;        // per-flight hop-stack cap
    size_t max_inflight = 4096;  // in-flight table cap (orphan guard)
  };
  IntStamper() = default;
  explicit IntStamper(Config cfg) : cfg_(cfg) {}

  // --- registration ----------------------------------------------------------
  // Each participating element takes a slot.  Slots start disabled; a
  // disabled slot's hooks reduce to one guarded bool read.
  int register_element(const ElementId& id, ElementKind kind, int vm);
  // Convenience: register `e` (any dp::Element-shaped type) and hand it the
  // back-pointer.  Templated so ps_perfsight never depends on ps_dataplane.
  template <typename E>
  int attach(E& e) {
    int slot = register_element(e.id(), e.kind(), e.vm());
    e.set_int_stamper(this, slot);
    return slot;
  }
  void enable(int slot, bool on);
  void enable_all(bool on);
  // Flights finalize (and the element strips the tag) at a harvest slot —
  // normally the last element of the chain.
  void set_harvest(int slot, bool on);
  SlotInfo slot_info(int slot) const;
  // Appends to `out` the slots registered since it was last filled:
  // out->size() is taken as the number of slots the caller already holds.
  void append_slots(std::vector<SlotInfo>* out) const;

  // --- clock -----------------------------------------------------------------
  // The stamper is not a Steppable; the driver advances its notion of "now"
  // once per tick so hooks (which have no SimTime parameter) stay cheap.
  // The clock only moves forward: flights start in tag order, which is what
  // lets expire() stop at the first flight still young enough to keep.
  void set_now(SimTime now);

  // --- packet-path hooks (called by the dataplane) ---------------------------
  // Each hook takes the lock once.  maybe_tag, arrive and stamp do nothing
  // at a disabled or invalid slot; the tag they return is the one the batch
  // carries on.
  //
  // Ingress sampling: counts `b`'s packets against the 1-in-N knob and, on
  // crossing a sample boundary, opens a flight whose first hop is this slot
  // at `queue_pkts` depth.  Returns the new tag, or 0 (not sampled or
  // in-flight table full); a disabled slot returns b.int_tag unchanged.
  uint64_t maybe_tag(int slot, const PacketBatch& b, uint64_t queue_pkts);
  // The tagged batch reached a queue-owning element at `queue_pkts` arrival
  // depth.  Stamps a hop and returns `tag`; at a harvest slot the hop is
  // the final one, the flight finalizes, and the result is 0 (the tag stops
  // travelling even when its flight was already expired).
  uint64_t arrive(int slot, uint64_t tag, uint64_t queue_pkts);
  // A pump (no queue of its own) moved the tagged batch: appends a hop at
  // `queue_pkts` depth and adds `io_time` to the stack's most recent hop.
  // No-op for unknown/expired tags.
  void stamp(int slot, uint64_t tag, uint64_t queue_pkts,
             Duration io_time = Duration{});
  // The tagged packet tail-dropped at this slot: marks the stack and
  // finalizes the flight as dropped.
  void mark_dropped(int slot, uint64_t tag, uint64_t queue_pkts);

  // --- harvest side ----------------------------------------------------------
  // Drains the finished-flight list (harvested and dropped flights, in
  // completion order) into `*out`, trading storage with it; whatever `*out`
  // held is discarded.  A harvester that drains into the same vector every
  // window and hands it back with recycle() lets the steady-state packet
  // path stamp without allocating.
  void take_finished(std::vector<Flight>* out);
  // Hands spent flights back, once per harvest window: their hop stacks
  // become spares for new flights, and `*spent` is left empty with its
  // capacity.  Spares beyond what the last window started (plus a quarter)
  // are freed, so a burst of flights does not pin its memory.
  void recycle(std::vector<Flight>* spent);
  // Finalizes nothing, forgets everything: in-flight entries older than
  // `max_age` are orphans (their tag died in a merge or a fluid trim) and
  // are dropped from the table.  Walks only the expired prefix.
  void expire(Duration max_age);

  struct Stats {
    uint64_t pkts_seen = 0;          // ingress packets counted for sampling
    uint64_t flights_started = 0;
    uint64_t hops_stamped = 0;       // hops appended across all flights
    uint64_t flights_harvested = 0;
    uint64_t flights_dropped = 0;    // finalized by a drop-tail
    uint64_t flights_expired = 0;    // orphaned tags aged out
    uint64_t hops_truncated = 0;     // hops refused by the max_hops cap
  };
  Stats stats() const;
  Config config() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cfg_;
  }
  void set_sample_every(uint64_t n);

 private:
  struct Slot {
    SlotInfo info;
    bool enabled = false;
    bool harvest = false;
  };

  bool valid_slot(int slot) const {
    return slot >= 0 && static_cast<size_t>(slot) < slots_.size();
  }
  bool active_locked(int slot) const {
    return valid_slot(slot) && slots_[static_cast<size_t>(slot)].enabled;
  }
  // The live flight for `tag`, or null (never issued, finalized or expired).
  Flight* find_locked(uint64_t tag);
  void append_hop_locked(Flight& f, int slot, uint64_t queue_pkts);
  void finalize_locked(Flight& f, bool dropped);

  Config cfg_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  SimTime now_;
  // inflight_[i] is the pool_ index of the flight of tag base_tag_ + i, or
  // kDone once that flight finalized or expired.  Dead entries are trimmed
  // from the front, so the next tag to issue is base_tag_ +
  // inflight_.size().  Orphans pin thousands of dead entries behind them,
  // so an entry is an index, not a Flight.
  static constexpr uint32_t kDone = UINT32_MAX;
  Ring<uint32_t> inflight_;
  uint64_t base_tag_ = 1;
  size_t live_ = 0;  // entries of inflight_ other than kDone
  // The live flights, and the pool_ indices free for new ones.
  std::vector<Flight> pool_;
  std::vector<uint32_t> free_;
  std::vector<Flight> finished_;
  // Cleared hop stacks of expired flights and of recycled ones, reused by
  // maybe_tag.
  std::vector<std::vector<Hop>> spare_hops_;
  size_t longest_finished_ = 0;      // hops of the longest finished flight
  uint64_t started_at_recycle_ = 0;  // stats_.flights_started then
  Stats stats_;
};

// Aggregates finished flights into per-window StatsRecords and feeds them
// to a StreamCache as Provenance::kInband windows.
class IntHarvester {
 public:
  struct Config {
    // StreamCache key for INT windows.  Callers use a dedicated key (e.g.
    // "a0/int") so INT windows never collide with the agent's streamed or
    // repaired windows.
    std::string agent = "int";
    // Queue-depth excursion (packets, per flight hop) that fires the
    // microburst trigger.  0 disables detection.
    uint64_t microburst_depth_pkts = 0;
    // Orphaned in-flight tags older than this are expired at each close.
    Duration expire_after = Duration::millis(500);
  };

  // `stamper` and `cache` are borrowed, not owned; `cache` may be null
  // (harvest aggregates and fires triggers but caches nothing).
  IntHarvester(IntStamper* stamper, StreamCache* cache, Config cfg);

  // An INT-observed queue-depth excursion inside one window.
  struct Microburst {
    SimTime window_start;
    std::vector<ElementId> elements;  // implicated elements, ascending
    uint64_t peak_depth_pkts = 0;
  };
  // Hybrid mode: the trigger typically issues a targeted pull sweep over
  // burst.elements via Controller::get_attr_many.  Called synchronously
  // from close_window, after the window is in the cache.
  using MicroburstFn = std::function<void(const Microburst&)>;
  void set_on_microburst(MicroburstFn fn) { on_microburst_ = std::move(fn); }

  // Closes the window that ends at `window_start` + one cadence: drains the
  // stamper, aggregates per element, ingests one kInband window keyed at
  // `window_start`, and fires the microburst trigger if any element's peak
  // depth crossed the threshold.  Returns the number of flights absorbed.
  size_t close_window(SimTime window_start);

  struct Stats {
    uint64_t windows_closed = 0;
    uint64_t flights_absorbed = 0;
    uint64_t microbursts = 0;
    // Wire cost of the harvested reports (each flight's kIntReport body,
    // sized exactly without encoding it) — the "stamping overhead" the
    // bench gates.
    uint64_t report_bytes = 0;
  };
  Stats stats() const { return stats_; }

 private:
  // Per-record aggregate of one window.
  struct PerElement {
    ElementKind kind = ElementKind::kOther;
    int vm = -1;
    uint64_t samples = 0;
    uint64_t peak_pkts = 0;
    uint64_t drop_tail = 0;
    int64_t io_ns = 0;
  };
  // Picks up slots registered since the last window and re-derives the
  // ascending record order.
  void refresh_slots();

  IntStamper* stamper_;
  StreamCache* cache_;
  Config cfg_;
  MicroburstFn on_microburst_;
  Stats stats_;
  // The stamper's slots as this harvester knows them, and the record each
  // one feeds (an index into ids_): slots registered under one ElementId
  // share a record.
  std::vector<SlotInfo> slots_;
  std::vector<size_t> record_of_;
  std::vector<ElementId> ids_;  // distinct slot ids, ascending
  std::vector<PerElement> agg_;  // one per ids_ entry
  // close_window's per-window storage, reused: the drained flights
  // (recycled into the stamper once aggregated) and the microburst report.
  std::vector<Flight> flights_;
  Microburst burst_;
};

}  // namespace inband
}  // namespace perfsight
