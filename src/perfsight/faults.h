// Deterministic fault injection for the collection fabric (§4.2 channels).
//
// PerfSight's agents pull counters over flaky real-world channels —
// net_device files, /proc, the OVS control channel, QEMU logs, middlebox
// sockets.  A production collection layer must keep diagnosing when some of
// those channels misbehave, and the only way to *test* that is to make the
// channels misbehave on demand, reproducibly.  A FaultPlan is a seeded
// description of how channels fail:
//
//   * transient errors   the query fails outright (Status::unavailable);
//   * timeouts           the channel latency spikes past the per-attempt
//                        deadline (Status::deadline_exceeded);
//   * stale reads        the channel serves the last good record with its
//                        true (old) timestamp;
//   * torn reads         the record arrives with a subset of attrs missing
//                        (a partially parsed /proc page);
//   * agent crashes      the whole agent restarts at a scheduled time:
//                        caches are lost and counters restart from zero
//                        (the Monitor's counter-reset detection absorbs the
//                        discontinuity).
//
// Determinism contract: decide() is a pure function of (seed, element, time,
// attempt) — no internal RNG stream is consumed — so the same plan yields
// the same failure schedule regardless of call order, pool size, or how many
// other elements are being polled.  Agents still evaluate decisions in
// element-id order before fanning out, matching the collection runtime's
// byte-identical parallel-vs-sequential contract.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"

namespace perfsight {

// What one channel query is allowed to do to the caller.
enum class FaultKind {
  kNone = 0,
  kTransient,  // fails with Status::unavailable
  kTimeout,    // latency spikes past the deadline; Status::deadline_exceeded
  kStale,      // serves the last good record at its true timestamp
  kTorn,       // record arrives with a subset of attrs missing
};

const char* to_string(FaultKind k);

// Trustworthiness of one returned record, reported per element by the
// collection layer and propagated through every diagnosis verdict.
// Enumerator values are pinned on the wire (PSB2 response quality byte), so
// kReplica is appended after kMissing even though it is *less* severe;
// worse() ranks by severity, not enumerator value.
enum class DataQuality {
  kFresh = 0,    // collected this query, complete, from the primary
  kStale,        // served from an earlier collection; timestamp is honest
  kTorn,         // collected this query but attrs are missing
  kMissing,      // no record: channel dead, retries exhausted, or budget hit
  kReplica,      // complete record, but served by a mirror (primary failed)
};

const char* to_string(DataQuality q);

// Severity rank: fresh < replica < stale < torn < missing.  A replica answer
// is a complete, current record — trustworthy for diagnosis — but coverage
// reports must still distinguish it from a fresh primary read.
inline int quality_rank(DataQuality q) {
  switch (q) {
    case DataQuality::kFresh:
      return 0;
    case DataQuality::kReplica:
      return 1;
    case DataQuality::kStale:
      return 2;
    case DataQuality::kTorn:
      return 3;
    case DataQuality::kMissing:
      return 4;
  }
  return 4;
}

inline bool is_fresh(DataQuality q) { return q == DataQuality::kFresh; }
// True when the record is complete and current enough for Algorithm 1/2 to
// rank on: a fresh primary read or a quorum replica answer.
inline bool is_measured(DataQuality q) {
  return q == DataQuality::kFresh || q == DataQuality::kReplica;
}
inline DataQuality worse(DataQuality a, DataQuality b) {
  return quality_rank(a) >= quality_rank(b) ? a : b;
}

// Per-query fault probabilities for one channel (or one element).
struct ChannelFaultSpec {
  double transient_p = 0;
  double timeout_p = 0;
  double stale_p = 0;
  double torn_p = 0;

  bool any() const {
    return transient_p > 0 || timeout_p > 0 || stale_p > 0 || torn_p > 0;
  }
};

// One channel query's fate, as decided by the plan.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  uint64_t torn_salt = 0;  // selects which attrs a torn read loses
};

// A half-open window [start, end) during which an agent (or every agent on a
// host) is down: every channel attempt fails with Status::unavailable, no
// Bernoulli draw consulted.  Campaigns are pure schedule — the same plan
// yields the same outage at the same simulated time from any thread.
struct OutageWindow {
  SimTime start;
  SimTime end;

  bool contains(SimTime t) const { return start <= t && t < end; }
};

class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed = 1) : seed_(seed) {}

  uint64_t seed() const { return seed_; }

  // Fault probabilities for every element reached over `kind`.
  void set_channel_faults(ChannelKind kind, ChannelFaultSpec spec) {
    channel_[static_cast<size_t>(kind)] = spec;
    touch();
  }
  // Per-element override; wins over the channel-kind spec.
  void set_element_faults(const ElementId& id, ChannelFaultSpec spec) {
    element_[id] = spec;
    touch();
  }

  // Modelled latency of a timed-out attempt (the spike, before any
  // per-attempt deadline clamps it).
  void set_timeout_spike(Duration d) {
    timeout_spike_ = d;
    touch();
  }
  Duration timeout_spike() const { return timeout_spike_; }

  // Schedules a whole-agent crash/restart at simulated time `at`.
  void schedule_crash(const std::string& agent, SimTime at) {
    crashes_[agent].push_back(at);
    touch();
  }
  // Crashes of `agent` scheduled in (since, until]; the agent consumes each
  // crash exactly once by advancing its own watermark.
  size_t crashes_between(const std::string& agent, SimTime since,
                         SimTime until) const;

  // --- Scheduled campaigns (windowed outages, not Bernoulli) ---------------

  // Agent `agent` is down for [start, end): every channel attempt in the
  // window fails like a transient error, retries and breakers included.
  void schedule_outage(const std::string& agent, SimTime start, SimTime end) {
    outages_[agent].push_back(OutageWindow{start, end});
    touch();
  }

  // Tags `agent` as living on host `tag` so host-level windows reach it.
  void set_host(const std::string& agent, const std::string& tag) {
    host_of_[agent] = tag;
    touch();
  }
  // The host tag of `agent`, or "" when untagged.
  const std::string& host_of(const std::string& agent) const;

  // Correlated failure: every agent tagged with `tag` is down for
  // [start, end) together.
  void schedule_host_outage(const std::string& tag, SimTime start,
                            SimTime end) {
    host_outages_[tag].push_back(OutageWindow{start, end});
    touch();
  }

  // Rolling upgrade: agents[i] is down for
  // [start + i*window, start + (i+1)*window) — one agent at a time, in fleet
  // order.  Desugars to per-agent windows at schedule time, so agent_down()
  // stays a plain window-containment check.
  void schedule_rolling_upgrade(const std::vector<std::string>& agents,
                                SimTime start, Duration window);

  // True when `agent` is inside any scheduled outage window at `now`
  // (its own windows or its host's).
  bool agent_down(const std::string& agent, SimTime now) const;

  // True when any outage window (agent- or host-level) contains `now`.
  bool campaign_active(SimTime now) const;

  // True when any campaign windows are scheduled at all; gates the
  // perfsight_fault_campaign_active exposition and the per-query
  // agent_down() check (no campaign → no per-sweep map lookups).
  bool has_campaign() const {
    return !outages_.empty() || !host_outages_.empty();
  }

  // True when any fault source is configured (agents skip the fault path
  // entirely otherwise, preserving the exact pre-fault behaviour).
  bool enabled() const;

  // The spec decide() would consult for this query (element override wins).
  // Agents use it to skip the decision hash entirely for elements the plan
  // cannot touch — the installed-but-inert plan must stay near-free.
  const ChannelFaultSpec& spec_for(const ElementId& id,
                                   ChannelKind kind) const {
    if (!element_.empty()) {
      auto it = element_.find(id);
      if (it != element_.end()) return it->second;
    }
    return channel_[static_cast<size_t>(kind)];
  }

  // True when any spec can produce a stale read; agents only maintain the
  // last-good records stale serving needs while this holds.
  bool serves_stale() const;

  // Changes whenever the plan does: every mutator draws a fresh value from
  // one process-wide counter, and a copy carries its source's, so two plans
  // with the same generation hold the same schedule.  Agents memoize their
  // per-instant answers (agent_down, serves_stale) against it.
  uint64_t generation() const { return generation_; }

  // --- push-mode stream faults ----------------------------------------------
  // Probability that one published stream frame is lost in transit.  This is
  // a transport-layer fault consumed by the streaming pipeline (streaming.h),
  // not by agents: a dropped frame becomes a sequence gap the subscriber
  // must detect and repair with a targeted pull, while the channel queries
  // behind the capture are untouched.  Deliberately NOT part of enabled():
  // agents never consult it.
  void set_stream_drop(double p) {
    stream_drop_p_ = p;
    touch();
  }

  // The fate of stream frame `seq` published by `agent`.  Pure function of
  // (seed, agent, seq) — campaigns and channel decisions draw nothing from
  // it, and it draws nothing from them — so a repair pull replaying the
  // dropped window reproduces the capture exactly.
  bool stream_drop(const std::string& agent, uint64_t seq) const;

  // The fate of attempt `attempt` (1-based) of a query to `id` over `kind`
  // at simulated time `now`.  Pure function of the plan's seed and the
  // arguments: same plan, same query, same fate — in any order, from any
  // thread.
  FaultDecision decide(const ElementId& id, ChannelKind kind, SimTime now,
                       uint32_t attempt) const;

  // Builds a plan from the PERFSIGHT_FAULTS environment variable, e.g.
  //   PERFSIGHT_FAULTS="seed=7,transient=0.05,timeout=0.01,stale=0.02,torn=0.02"
  // (probabilities apply to every channel kind).  Campaign grammar, all
  // times in integer simulated milliseconds:
  //   outage=NAME@T0-T1       agent NAME down for [T0ms, T1ms)
  //   host=NAME:TAG           tag agent NAME as living on host TAG
  //   host_outage=TAG@T0-T1   every agent tagged TAG down for [T0ms, T1ms)
  //   rolling=PREFIX*N@T0+W   rolling upgrade of agents PREFIX0..PREFIX(N-1):
  //                           agent i down for [T0+i*W, T0+(i+1)*W) ms
  // nullopt when the variable is unset or empty.  Parsing is strict: an
  // unknown key, a value with trailing garbage, or an empty value is
  // rejected with a warning (never silently treated as 0), and
  // probabilities are clamped to [0,1].
  static std::optional<FaultPlan> from_env();

  // The parser behind from_env(), usable on any spec string (tests feed it
  // generated plans without touching the process environment).  Rejected
  // items never poison valid keys around them and never half-apply.
  static std::optional<FaultPlan> parse(const std::string& spec);

  // The plan re-serialized in the PERFSIGHT_FAULTS grammar, canonically
  // ordered (probabilities, then outage=/host=/host_outage= sorted by name
  // and window) with shortest-round-trip number formatting, so
  // parse(p.to_env_string()) reconstructs the same schedule and the string
  // form is a fixed point.  Grammar-expressible state only: per-element and
  // per-kind spec overrides, scheduled crashes, and rolling upgrades (which
  // desugar to plain outage windows at schedule time) project onto the
  // grammar — a plan built programmatically beyond it loses those extras.
  std::string to_env_string() const;

 private:
  static uint64_t next_generation() {
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void touch() { generation_ = next_generation(); }

  uint64_t seed_;
  uint64_t generation_ = next_generation();
  double stream_drop_p_ = 0;
  Duration timeout_spike_ = Duration::millis(10);
  std::array<ChannelFaultSpec, kNumChannelKinds> channel_ = {};
  std::unordered_map<ElementId, ChannelFaultSpec> element_;
  std::unordered_map<std::string, std::vector<SimTime>> crashes_;
  std::unordered_map<std::string, std::vector<OutageWindow>> outages_;
  std::unordered_map<std::string, std::string> host_of_;
  std::unordered_map<std::string, std::vector<OutageWindow>> host_outages_;
};

// Deterministically drops a subset of `r`'s attrs (at least one survives,
// at least one is lost when the record has two or more).  `salt` comes from
// FaultDecision::torn_salt, so the same torn read always loses the same
// attrs.
StatsRecord apply_torn_read(const StatsRecord& r, uint64_t salt);

// True for the canonical attributes that are monotone counters — the ones a
// crash/restart resets to zero.  Gauges (capacity, queue depth) and
// structural attrs (type, vm) keep their values across a restart.
bool is_monotone_counter(const std::string& attr_name);

}  // namespace perfsight
