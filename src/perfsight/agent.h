// The per-server PerfSight agent (§4.2).
//
// One agent runs on each physical server.  It owns a registry of the
// server's instrumented elements and, on demand, pulls counter values over
// element-specific channels and returns them in the unified record format.
// Pull-only by design: elements pay nothing while nobody is diagnosing.
//
// Channel latencies are modelled per kind (calibrated against Fig. 9:
// net-device file reads ≈2 ms; /proc, OVS, QEMU-log and middlebox-socket
// reads ≤500 µs) with a small deterministic jitter, so response-time
// behaviour can be studied in simulated time.
//
// Collection runtime (this layer's concurrency contract): the agent is
// safe to use from multiple threads — registry/RNG/histogram state is
// guarded by one internal mutex.  query_batch is the one collection core,
// one pass under that mutex: plan in element-id order (crash absorption,
// one shared round trip per channel kind, fault decisions, retry chains
// billed on top), collect() every planned element, then observe the
// channel histograms and record the trace events.  Concurrent batches on
// one agent therefore run one after another; agents never share a lock.
// Every other surface is batches of one: query and query_attrs read one
// id, and the poll sweep reads each id in turn, so each element still pays
// its own trip (Figs. 9 and 16).
// Element objects are not owned.  remove_element takes the same mutex, so
// it returns only once no collect() of the element is in flight: the
// caller may destroy the StatsSource as soon as it returns.  Because
// collect() runs under the agent lock, a StatsSource must not call back
// into the agent that serves it.
//
// Fault tolerance: an optional FaultPlan (faults.h) makes channels fail —
// transiently, by timing out, by serving stale or torn records, or by
// crashing the whole agent.  The query paths absorb those failures with a
// RetryPolicy (bounded attempts, exponential backoff with deterministic
// jitter, a per-element deadline budget in simulated time) and a per-channel
// circuit breaker that fast-fails queries to a kind that keeps failing until
// a cooldown expires and a half-open probe succeeds.  Every fault decision,
// retry, backoff draw and breaker transition happens in the planning phase,
// before any collect() and in element-id order, so a batch's outcome
// depends only on the agent's state and the requested ids.
// With no plan installed the fault path is never entered and behaviour is
// bit-for-bit the pre-fault agent.
#pragma once

#include <algorithm>
#include <array>
#include <iterator>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "perfsight/faults.h"
#include "perfsight/metrics.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"
#include "perfsight/trace.h"

namespace perfsight {

// Modelled one-way agent→element→agent fetch latency for a channel kind.
struct ChannelLatencyModel {
  Duration base;
  Duration jitter;  // uniform [0, jitter) added per query
};

ChannelLatencyModel default_latency(ChannelKind kind);

struct QueryResponse {
  StatsRecord record;
  Duration response_time;  // modelled element-fetch latency (incl. retries)
  DataQuality quality = DataQuality::kFresh;
  uint32_t attempts = 1;  // channel attempts made (0: breaker fast-fail)
  // Why a kMissing response failed (meaningful only when quality is
  // kMissing): batch callers reconstruct the exact Status the single-query
  // path would have returned.
  StatusCode fail_code = StatusCode::kOk;
};

// The Status a failed element query surfaces, shared by the single-query
// path and the controller's scatter-gather merge so both produce
// byte-identical error messages.
Status query_failure_status(const std::string& agent_name, const ElementId& id,
                            uint32_t attempts, StatusCode code);

// The not_found Status for an id the agent does not serve.
Status no_element_status(const std::string& agent_name, const ElementId& id);

// A blind spot: the kMissing response for an element whose query failed.
// The element stays visible with an empty record stamped `now`, so the
// diagnosis layer sees the hole instead of silently skipping it; `code` and
// `attempts` let a caller rebuild the failure via query_failure_status.
QueryResponse blind_spot(ElementId id, SimTime now, StatusCode code,
                         uint32_t attempts = 1);

// Result of one batched fetch (query_batch): the per-element records plus
// the total modelled channel time actually paid — one round trip per
// channel kind present in the batch, not one per element.  Elements whose
// query failed appear as blind spots (see blind_spot below).
struct BatchResponse {
  std::vector<QueryResponse> responses;  // ordered by element id
  Duration channel_time;                 // sum of the per-kind round trips
  size_t unknown_ids = 0;                // requested ids not registered
  size_t degraded = 0;                   // responses that are not kFresh
};

// How the query paths absorb channel failures.  The default (one attempt,
// no deadline) is exactly the pre-fault behaviour: a failure surfaces
// immediately and nothing extra is drawn from the RNG.
struct RetryPolicy {
  uint32_t max_attempts = 1;  // total attempts (1 = no retry)
  Duration initial_backoff = Duration::micros(200);
  double backoff_multiplier = 2.0;
  Duration max_backoff = Duration::millis(50);
  // Backoff jitter fraction: each backoff is scaled by a uniform draw in
  // [1, 1 + jitter_frac), taken from the agent RNG during the planning
  // phase (like channel jitter, in element-id order).
  double jitter_frac = 0.5;
  // Per-attempt deadline: a timed-out attempt costs at most this much
  // modelled time.  Zero = the fault plan's full timeout spike is paid.
  Duration attempt_timeout;
  // Per-element budget within one sweep, in simulated time.  An element's
  // whole retry chain (channel time + backoff) is clamped to this; hitting
  // it fails the element with kDeadlineExceeded.  Zero = unbounded.
  Duration element_budget;

  // The un-jittered backoff after failed attempt `attempt` (1-based):
  // initial_backoff × backoff_multiplier^(attempt-1), capped at max_backoff
  // (zero = no cap).  The one schedule both the agent's simulated retries
  // and the remote adapter's wall-clock redials follow.
  Duration backoff(uint32_t attempt) const {
    Duration b = initial_backoff;
    for (uint32_t i = 1; i < attempt; ++i) b = b * backoff_multiplier;
    if (max_backoff.ns() > 0 && max_backoff < b) b = max_backoff;
    return b;
  }
};

// Circuit breaker: after `failure_threshold` consecutive failures the
// breaker opens and queries fast-fail without paying channel time; after
// `cooldown` the next query runs as a half-open probe whose outcome closes
// or re-opens the breaker.
struct CircuitBreakerConfig {
  uint32_t failure_threshold = 5;
  Duration cooldown = Duration::millis(20);
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };
const char* to_string(BreakerState s);

// The breaker state machine, generic over its clock: the agent runs one per
// channel kind on SimTime, the remote adapter one per connection on the wall
// clock.  It owns only the transitions; each caller keeps its own stats,
// trace events and policy for what counts as one failure.
template <typename Time>
class CircuitBreaker {
 public:
  using Span = decltype(std::declval<Time>() - std::declval<Time>());

  BreakerState state() const { return state_; }

  // Open and still inside `cooldown` at `now`: an attempt would fast-fail.
  bool cooling(Time now, Span cooldown) const {
    return state_ == BreakerState::kOpen && now - opened_at_ < cooldown;
  }
  // Gate before an attempt: false while cooling (fast-fail).  An open
  // breaker whose cooldown has run out turns half-open and admits the probe.
  bool admit(Time now, Span cooldown) {
    if (cooling(now, cooldown)) return false;
    if (state_ == BreakerState::kOpen) state_ = BreakerState::kHalfOpen;
    return true;
  }
  // A success clears the failure run.  True when it closed the breaker.
  bool record_success() {
    consecutive_failures_ = 0;
    if (state_ == BreakerState::kClosed) return false;
    state_ = BreakerState::kClosed;
    return true;
  }
  // A failure at `now`.  True when it opened the breaker: a failed probe
  // re-opens at once, a closed breaker trips at `failure_threshold`
  // consecutive failures.
  bool record_failure(Time now, uint32_t failure_threshold) {
    ++consecutive_failures_;
    const bool reopen = state_ == BreakerState::kHalfOpen;
    const bool trip = state_ == BreakerState::kClosed &&
                      consecutive_failures_ >= failure_threshold;
    if (!reopen && !trip) return false;
    state_ = BreakerState::kOpen;
    opened_at_ = now;
    return true;
  }
  void reset() { *this = CircuitBreaker{}; }

 private:
  BreakerState state_ = BreakerState::kClosed;
  uint32_t consecutive_failures_ = 0;
  Time opened_at_{};
};

// The request planner every AgentClient answers through.  Each requested
// id is offered to `admit` once per occurrence: duplicates are kept, so a
// request naming x twice gets two answers for x and an unknown id named
// twice counts twice.  `admit` appends the implementation's plan entry for
// the id to `plan` (an ElementId, or a struct whose operator< orders by
// element id) and returns true, or returns false for an id the agent does
// not serve.  The entries are then put in ascending element-id order, the
// order every answer comes back in; a request already in that order (the
// controller's scatter sends ascending ids) is not sorted again.  Returns
// the unknown count.
template <typename Ids, typename Entry, typename Admit>
size_t plan_request(const Ids& ids, std::vector<Entry>& plan, Admit admit) {
  plan.reserve(plan.size() + std::size(ids));
  size_t unknown = 0;
  for (const auto& id : ids) {
    if (!admit(id)) ++unknown;
  }
  if (!std::is_sorted(plan.begin(), plan.end())) {
    std::sort(plan.begin(), plan.end());
  }
  return unknown;
}

// The element id an id-ordered vector is ordered by.
inline const ElementId& element_of(const ElementId& id) { return id; }
inline const ElementId& element_of(const QueryResponse& r) {
  return r.record.element;
}
// Orders ids or responses by element id.
template <typename T>
bool by_element(const T& a, const T& b) {
  return element_of(a) < element_of(b);
}

// Lookup by element id in a vector of ids or responses: the stream codec's
// delta-base lookup, the stream cache's window reads and its agent's id
// admission.  The vector must ascend by element id (duplicates allowed):
// every stream frame, cached window and served id list does by
// construction.  find(id) returns exactly the entry std::lower_bound over
// the whole vector names for `id` — the first of a duplicated id, null for
// an id the vector lacks — for every order of lookups.  A lookup starts at
// the slot after the previous hit and gallops forward, so ascending lookups
// walk the vector once instead of searching it per id.
template <typename T>
class IdCursor {
 public:
  // `v` (null: every lookup misses) is not owned and must outlive the
  // cursor.
  explicit IdCursor(const std::vector<T>* v) : v_(v) {}

  const T* find(const ElementId& id) {
    if (v_ == nullptr) return nullptr;
    const std::vector<T>& v = *v_;
    const auto below = [&](size_t i) { return element_of(v[i]) < id; };
    const size_t n = v.size();
    // Every slot before the previous hit's successor is below `id` when the
    // slot just before it is, so the search starts there.
    size_t lo = next_ > 0 && below(next_ - 1) ? next_ : 0;
    size_t hi = lo;
    for (size_t step = 1; hi < n && below(hi); step *= 2) {
      lo = hi + 1;
      hi = std::min(n, lo + step);
    }
    const auto it =
        std::lower_bound(v.begin() + lo, v.begin() + hi, id,
                         [](const T& e, const ElementId& want) {
                           return element_of(e) < want;
                         });
    const size_t at = static_cast<size_t>(it - v.begin());
    const bool hit = at < n && element_of(v[at]) == id;
    next_ = hit ? at + 1 : at;
    return hit ? &v[at] : nullptr;
  }

 private:
  const std::vector<T>* v_;
  size_t next_ = 0;  // the slot after the previous hit
};

// The single-element answer, derived from a batch of one for `id`: the
// response (projected onto `attrs` when given), the not_found Status when
// the agent does not serve `id`, or the failure Status of a blind spot.
Result<QueryResponse> single_answer(const std::string& agent_name,
                                    const ElementId& id, BatchResponse batch,
                                    const std::vector<std::string>* attrs =
                                        nullptr);

// The query surface the controller scatters over.  In-process `Agent`
// implements it directly, `RemoteAgent` (remote_agent.h) over a socket
// speaking the PSB2/PSM2 wire codec, and `StreamCacheAgent` (streaming.h)
// from a cache of pushed windows.  The contract all three uphold, built
// from the helpers above so it exists once:
//   - query_batch plans the request with plan_request: one response per
//     *known* requested id and occurrence, in ascending element-id order;
//     unknown ids are counted per occurrence in unknown_ids, not returned.
//   - a failed element is a blind_spot: kMissing, stamped with the query
//     time, carrying the attempts/fail_code from which query_failure_status
//     rebuilds the exact single-path Status;
//   - the single-element answer is single_answer over a batch of one:
//     query_attrs below does exactly that, and no implementation overrides
//     it, so a remote single query is one batch request on the wire and an
//     in-process one shares the batch's per-kind billing.
// So the controller merge is byte-identical whichever implementation sits
// behind it.
//
// Tracing: when the calling thread carries an active TraceContext
// (trace.h), implementations record span events under it — the in-process
// agent an agent-batch span with one channel-trip span per kind, the
// remote adapter a transport round-trip span, and the remote *server* a
// serve span in its own process parented to the caller's span id off the
// wire.  With no context (or tracing disabled) both record nothing and the
// remote conversation is byte-identical.
class AgentClient {
 public:
  virtual ~AgentClient() = default;

  virtual const std::string& name() const = 0;
  virtual bool has_element(const ElementId& id) const = 0;
  // Every served id, ascending and unique.
  virtual std::vector<ElementId> element_ids() const = 0;

  // Fetches a projection of one element (the paper's GetAttr reaches this).
  virtual Result<QueryResponse> query_attrs(
      const ElementId& id, const std::vector<std::string>& attrs,
      SimTime now) {
    return single_answer(name(), id, query_batch({id}, now), &attrs);
  }

  // Batched fetch: one channel round trip per channel kind in the batch.
  // `pool` is ignored by every implementation: the in-process agent reads
  // its elements in one locked pass, a remote agent's connection is
  // serialized and a cache agent reads memory.  Concurrency across agents
  // comes from the controller's scatter.
  virtual BatchResponse query_batch(const std::vector<ElementId>& ids,
                                    SimTime now, ThreadPool* pool = nullptr) = 0;
};

// Running totals of the fault machinery, per agent.  Scraped into the
// MetricsRegistry exposition; read under the agent lock via fault_stats().
struct AgentFaultStats {
  uint64_t faults_injected = 0;   // fault-plan decisions != kNone
  uint64_t retries = 0;           // attempts after the first
  uint64_t exhausted = 0;         // queries that failed every attempt
  uint64_t deadline_hits = 0;     // element budgets exceeded
  uint64_t stale_served = 0;      // queries answered from the last-good record
  uint64_t torn_reads = 0;        // records delivered with attrs missing
  uint64_t breaker_opened = 0;    // closed/half-open -> open transitions
  uint64_t breaker_closed = 0;    // half-open -> closed transitions
  uint64_t breaker_fast_fails = 0;  // queries skipped while open
  uint64_t crashes = 0;           // whole-agent crash/restarts absorbed

  bool any() const {
    return faults_injected || retries || exhausted || deadline_hits ||
           stale_served || torn_reads || breaker_opened || breaker_closed ||
           breaker_fast_fails || crashes;
  }
};

class Agent : public AgentClient {
 public:
  explicit Agent(std::string name, uint64_t seed = 1)
      : name_(std::move(name)), rng_(seed) {}

  const std::string& name() const override { return name_; }

  // Registers an element; not owned.  Fails if the id is already taken or
  // longer than the wire's 65535-byte string limit.
  Status add_element(const StatsSource* source);

  // Deregisters an element (VM teardown / element migration) and drops all
  // per-element state the agent kept for it.  Fails if the id is unknown;
  // the Monitor simply stops producing points for it.  Waits for an
  // in-flight batch to finish, so the source may be destroyed on return.
  Status remove_element(const ElementId& id);

  bool has_element(const ElementId& id) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return sources_.count(id) > 0;
  }
  std::vector<ElementId> element_ids() const override;

  // Fetches all counters of one element: a batch of one, so the element
  // pays its own channel trip (Fig. 9).
  Result<QueryResponse> query(const ElementId& id, SimTime now) {
    return single_answer(name_, id, query_batch({id}, now));
  }

  // Batched fetch: one channel round trip amortized across every requested
  // element sharing a channel kind (a real agent reads one /proc file and
  // parses many counters out of it); retries pay their own trips on top.
  // Holds the agent lock across planning and every collect(); `pool` is
  // ignored.
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool = nullptr) override;

  // Fetches every element on this server (one poll sweep, Fig. 16
  // workload): one batch of one per element, in ascending id order, so
  // each element pays its own channel trip.
  std::vector<QueryResponse> poll_all(SimTime now);

  // Overrides the latency model for a channel kind (tests / calibration).
  void set_latency(ChannelKind kind, ChannelLatencyModel m) {
    std::lock_guard<std::mutex> lock(mu_);
    latency_override_[static_cast<size_t>(kind)] = m;
    has_override_[static_cast<size_t>(kind)] = true;
  }

  // --- fault tolerance ------------------------------------------------------
  // Installs a fault plan (not owned; null disables injection).  With no
  // plan the fault path is never entered.
  void set_fault_plan(const FaultPlan* plan) {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = plan;
    memo_ = PlanMemo{};
  }
  void set_retry_policy(RetryPolicy p) {
    std::lock_guard<std::mutex> lock(mu_);
    retry_ = p;
  }
  void set_breaker_config(CircuitBreakerConfig c) {
    std::lock_guard<std::mutex> lock(mu_);
    breaker_cfg_ = c;
  }
  BreakerState breaker_state(ChannelKind kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    return breakers_[static_cast<size_t>(kind)].state();
  }
  AgentFaultStats fault_stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fstats_;
  }

  // Self-profiling: distribution of modelled channel delays this agent has
  // paid, per channel kind (the live Fig. 9 data).  Always on; one observe
  // per batch for each kind's shared first trip — retries are not
  // observed.  Read when no poll is in flight.
  const LatencyHistogram& channel_latency(ChannelKind kind) const {
    return channel_hist_[static_cast<size_t>(kind)];
  }

 private:
  struct PlannedQuery {
    ElementId id;
    const StatsSource* source = nullptr;
    ChannelKind kind = ChannelKind::kNetDeviceFile;
    Duration delay;  // total modelled channel time incl. retries/backoff
    DataQuality quality = DataQuality::kFresh;
    uint32_t attempts = 1;
    uint64_t torn_salt = 0;
    bool failed = false;
    StatusCode fail_code = StatusCode::kUnavailable;
    bool serve_stale = false;
    StatsRecord stale_record;  // snapshot of last-good at planning time

    bool operator<(const PlannedQuery& o) const { return id < o.id; }
  };

  // The plan's answers for this agent at `now` (see memo_).
  struct PlanMemo {
    const FaultPlan* plan = nullptr;
    uint64_t generation = 0;
    SimTime at;
    bool down = false;          // a campaign window covers `at`
    bool serves_stale = false;  // last-good records must be kept
  };
  const PlanMemo& plan_memo_locked(SimTime now);
  // The one collection core behind query_batch and poll_all: plans and
  // answers `ids` into `batch`, reusing the capacity of `plan` and of
  // batch.responses.  Must run with mu_ held.
  void run_batch_locked(std::span<const ElementId> ids, SimTime now,
                        std::vector<PlannedQuery>& plan, BatchResponse& batch);
  Duration channel_delay_locked(ChannelKind kind);
  // Consumes crashes the plan scheduled since the last query: last-good
  // records are lost, every element's counters restart from zero on its
  // next collect.
  void absorb_crashes_locked(SimTime now);
  // Models the full retry chain of one element query: fault decisions,
  // channel delays, backoff, budget clamp, breaker bookkeeping.  Must run
  // with mu_ held, before any collect(), in element-id order.  The first
  // attempt rides the batch's `first_trip` for the element's kind; retries
  // draw their own delays.  When `agent_down` is set (a scheduled campaign
  // window covers `now`), every attempt fails unavailable without
  // consulting the Bernoulli draw — delays, backoff and breakers behave as
  // for real transient failures.
  void plan_outcome_locked(PlannedQuery& q, SimTime now, Duration first_trip,
                           bool agent_down);
  // Post-collect bookkeeping in fault mode: applies crash counter resets
  // and (when the plan can serve stale reads) refreshes the last-good
  // record.  Callers skip it entirely when neither applies, so an inert
  // plan adds no per-element copying.
  void apply_fault_bookkeeping_locked(const ElementId& id, StatsRecord& record,
                                      bool track_last_good);
  // A batch's flight-recorder events: one issued / completed pair (and,
  // under an active trace context, one channel-trip span) per kind paid,
  // plus the degraded-batch marker.
  void trace_batch(const std::vector<PlannedQuery>& plan,
                   const std::array<bool, kNumChannelKinds>& kind_used,
                   const std::array<Duration, kNumChannelKinds>& kind_delay,
                   const BatchResponse& batch, SimTime now);

  std::string name_;
  mutable std::mutex mu_;  // guards rng_, sources_, overrides, hists
  Pcg32 rng_;
  std::unordered_map<ElementId, const StatsSource*> sources_;
  std::array<ChannelLatencyModel, kNumChannelKinds> latency_override_ = {};
  std::array<bool, kNumChannelKinds> has_override_ = {};
  std::array<LatencyHistogram, kNumChannelKinds> channel_hist_ = {};
  // Fault machinery (all under mu_): plan, policy, per-kind breakers,
  // last-good records for stale serving, crash reset bookkeeping, tallies.
  const FaultPlan* plan_ = nullptr;
  RetryPolicy retry_;
  CircuitBreakerConfig breaker_cfg_;
  std::array<CircuitBreaker<SimTime>, kNumChannelKinds> breakers_ = {};
  std::unordered_map<ElementId, StatsRecord> last_good_;
  std::unordered_set<ElementId> pending_reset_;
  std::unordered_map<ElementId, std::vector<Attr>> reset_offset_;
  SimTime last_crash_check_;
  // Valid while plan_, its generation and the batch instant are unchanged:
  // a poll sweep is one batch per element at one instant, so an installed
  // campaign's window lookups run once per sweep, not once per element.
  PlanMemo memo_;
  AgentFaultStats fstats_;
};

}  // namespace perfsight
