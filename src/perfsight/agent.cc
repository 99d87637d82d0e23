#include "perfsight/agent.h"

#include <algorithm>

#include "perfsight/trace.h"

namespace perfsight {

const char* to_string(ChannelKind k) {
  switch (k) {
    case ChannelKind::kNetDeviceFile:
      return "net_device";
    case ChannelKind::kProcFs:
      return "procfs";
    case ChannelKind::kOvsChannel:
      return "ovs_channel";
    case ChannelKind::kQemuLog:
      return "qemu_log";
    case ChannelKind::kGuestProc:
      return "guest_proc";
    case ChannelKind::kMbSocket:
      return "mb_socket";
  }
  return "unknown";
}

ChannelLatencyModel default_latency(ChannelKind kind) {
  using namespace literals;
  // Calibrated to Fig. 9: net-device file reads ~2 ms; everything else
  // completes within 500 us.
  switch (kind) {
    case ChannelKind::kNetDeviceFile:
      return {Duration::micros(1900), Duration::micros(400)};
    case ChannelKind::kProcFs:
      return {Duration::micros(120), Duration::micros(60)};
    case ChannelKind::kOvsChannel:
      return {Duration::micros(350), Duration::micros(120)};
    case ChannelKind::kQemuLog:
      return {Duration::micros(400), Duration::micros(100)};
    case ChannelKind::kGuestProc:
      return {Duration::micros(250), Duration::micros(100)};
    case ChannelKind::kMbSocket:
      return {Duration::micros(180), Duration::micros(80)};
  }
  return {Duration::micros(500), Duration::micros(100)};
}

Status query_failure_status(const std::string& agent_name, const ElementId& id,
                            uint32_t attempts, StatusCode code) {
  std::string m = "agent " + agent_name + ": element " + id.name;
  if (code == StatusCode::kFailedPrecondition) {
    // The element vanished from the agent's advertised set between
    // connections (reconnect-aware hello diff); no attempts were spent on a
    // channel, the roster itself is the authority.
    m += " departed at reconnect";
    return Status::failed_precondition(std::move(m));
  }
  if (attempts == 0) {
    m += " skipped: circuit open";
  } else if (code == StatusCode::kDeadlineExceeded) {
    m += " deadline exceeded after " + std::to_string(attempts) + " attempt(s)";
  } else {
    m += " unavailable after " + std::to_string(attempts) + " attempt(s)";
  }
  return code == StatusCode::kDeadlineExceeded
             ? Status::deadline_exceeded(std::move(m))
             : Status::unavailable(std::move(m));
}

Status no_element_status(const std::string& agent_name, const ElementId& id) {
  return Status::not_found("agent " + agent_name + ": no element " + id.name);
}

QueryResponse blind_spot(ElementId id, SimTime now, StatusCode code,
                         uint32_t attempts) {
  QueryResponse r;
  r.record.element = std::move(id);
  r.record.timestamp = now;
  r.quality = DataQuality::kMissing;
  r.attempts = attempts;
  r.fail_code = code;
  return r;
}

Result<QueryResponse> single_answer(const std::string& agent_name,
                                    const ElementId& id, BatchResponse batch,
                                    const std::vector<std::string>* attrs) {
  if (batch.responses.empty()) return no_element_status(agent_name, id);
  QueryResponse& r = batch.responses.front();
  if (r.quality == DataQuality::kMissing) {
    return query_failure_status(agent_name, id, r.attempts, r.fail_code);
  }
  if (attrs != nullptr) r.record = project(std::move(r.record), *attrs);
  return std::move(r);
}

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

Status Agent::add_element(const StatsSource* source) {
  PS_CHECK(source != nullptr);
  // Ids travel in hellos and PSB2 frames as u16-length strings: refuse one
  // the wire cannot carry here, where it enters, instead of failing every
  // later encode that names it.
  const std::string& name = source->id().name;
  if (name.size() > 0xffff) {
    return Status::invalid_argument(
        "element id of " + std::to_string(name.size()) +
        " bytes exceeds the 65535-byte wire limit: " + name.substr(0, 64));
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sources_.emplace(source->id(), source);
  (void)it;
  if (!inserted) {
    return Status::invalid_argument("duplicate element id: " +
                                    source->id().name);
  }
  return Status::ok();
}

Status Agent::remove_element(const ElementId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sources_.erase(id) == 0) return no_element_status(name_, id);
  // Forget every per-element record of the departed element: a source
  // re-added under the same id must not inherit its last-good record, nor
  // the crash offset that made its counters restart from zero.
  last_good_.erase(id);
  reset_offset_.erase(id);
  pending_reset_.erase(id);
  return Status::ok();
}

std::vector<ElementId> Agent::element_ids() const {
  std::vector<ElementId> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(sources_.size());
    for (const auto& [id, src] : sources_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Duration Agent::channel_delay_locked(ChannelKind kind) {
  ChannelLatencyModel m = has_override_[static_cast<size_t>(kind)]
                              ? latency_override_[static_cast<size_t>(kind)]
                              : default_latency(kind);
  return m.base + m.jitter * rng_.next_double();
}

void Agent::absorb_crashes_locked(SimTime now) {
  if (plan_ == nullptr || now <= last_crash_check_) return;
  size_t n = plan_->crashes_between(name_, last_crash_check_, now);
  last_crash_check_ = now;
  if (n == 0) return;
  // The whole agent restarted: in-memory state is gone and every element's
  // counters read from zero on the next collect (the Monitor's negative-
  // delta reset detection absorbs the discontinuity).
  fstats_.crashes += n;
  last_good_.clear();
  reset_offset_.clear();
  pending_reset_.clear();
  for (const auto& [id, src] : sources_) {
    (void)src;
    pending_reset_.insert(id);
  }
  for (CircuitBreaker<SimTime>& b : breakers_) b.reset();
  if (trace_enabled()) {
    trace_event(ElementId{name_}, now, TraceEventKind::kAgentCrashRestart,
                static_cast<double>(n), "counters reset");
  }
}

void Agent::plan_outcome_locked(PlannedQuery& q, SimTime now,
                                Duration first_trip, bool agent_down) {
  CircuitBreaker<SimTime>& br = breakers_[static_cast<size_t>(q.kind)];
  const bool tracing = trace_enabled();
  // Built only when a transition is traced: the per-element path pays no
  // string allocation for it.
  const auto breaker_id = [&] {
    return ElementId{name_ + "/" + to_string(q.kind)};
  };

  if (br.state() == BreakerState::kOpen) {
    if (!br.admit(now, breaker_cfg_.cooldown)) {
      // Fast fail: known-dead channel, no modelled time paid, no RNG drawn.
      q.failed = true;
      q.attempts = 0;
      q.delay = Duration::nanos(0);
      q.fail_code = StatusCode::kUnavailable;
      ++fstats_.breaker_fast_fails;
      return;
    }
    if (tracing) {
      trace_event(
          breaker_id(), now, TraceEventKind::kBreakerStateChange,
          static_cast<double>(static_cast<int>(BreakerState::kHalfOpen)),
          "half_open");
    }
  }

  Duration elapsed;
  const uint32_t max_attempts = std::max<uint32_t>(1, retry_.max_attempts);
  const Duration budget = retry_.element_budget;
  // Hoisted once per element: when the effective spec cannot fire, the
  // per-attempt decision hash is skipped entirely (decide() would return
  // kNone anyway), keeping an installed-but-inert plan near-free.
  const ChannelFaultSpec* fspec =
      plan_ != nullptr ? &plan_->spec_for(q.id, q.kind) : nullptr;
  const bool may_fault = fspec != nullptr && fspec->any();
  uint32_t attempt = 1;
  bool success = false;
  StatusCode last_code = StatusCode::kUnavailable;
  for (;; ++attempt) {
    Duration d = attempt == 1 ? first_trip : channel_delay_locked(q.kind);
    // A scheduled outage window makes every attempt fail like a transient
    // error — the schedule is the authority, no Bernoulli draw consulted,
    // so the same plan at the same simulated time fails identically in every
    // query path.
    FaultDecision dec;
    if (may_fault && !agent_down) dec = plan_->decide(q.id, q.kind, now, attempt);
    if (dec.kind != FaultKind::kNone) ++fstats_.faults_injected;
    bool attempt_failed = agent_down;
    DataQuality quality = DataQuality::kFresh;
    if (agent_down) last_code = StatusCode::kUnavailable;
    switch (dec.kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kStale: {
        auto lg = last_good_.find(q.id);
        if (lg != last_good_.end()) {
          q.serve_stale = true;
          q.stale_record = lg->second;
          quality = DataQuality::kStale;
        } else {
          attempt_failed = true;  // nothing cached to serve: acts transient
          last_code = StatusCode::kUnavailable;
        }
        break;
      }
      case FaultKind::kTorn:
        q.torn_salt = dec.torn_salt;
        quality = DataQuality::kTorn;
        break;
      case FaultKind::kTimeout:
        d = plan_->timeout_spike();
        if (retry_.attempt_timeout.ns() > 0 && retry_.attempt_timeout < d) {
          d = retry_.attempt_timeout;
        }
        attempt_failed = true;
        last_code = StatusCode::kDeadlineExceeded;
        break;
      case FaultKind::kTransient:
        attempt_failed = true;
        last_code = StatusCode::kUnavailable;
        break;
    }
    if (budget.ns() > 0 && elapsed + d > budget) {
      // Budget clamp: the sweep never runs past its deadline; the element
      // is reported missing rather than late.
      elapsed = budget;
      q.fail_code = StatusCode::kDeadlineExceeded;
      ++fstats_.deadline_hits;
      break;
    }
    elapsed += d;
    if (!attempt_failed) {
      success = true;
      q.quality = quality;
      if (quality == DataQuality::kStale) ++fstats_.stale_served;
      if (quality == DataQuality::kTorn) ++fstats_.torn_reads;
      break;
    }
    if (attempt >= max_attempts) {
      q.fail_code = last_code;
      ++fstats_.exhausted;
      break;
    }
    // Exponential backoff with deterministic jitter, drawn before any
    // collect() from the same RNG stream as the channel jitter.
    Duration backoff = retry_.backoff(attempt);
    if (retry_.jitter_frac > 0) {
      backoff = backoff * (1.0 + retry_.jitter_frac * rng_.next_double());
    }
    if (budget.ns() > 0 && elapsed + backoff >= budget) {
      elapsed = budget;
      q.fail_code = StatusCode::kDeadlineExceeded;
      ++fstats_.deadline_hits;
      break;
    }
    elapsed += backoff;
    ++fstats_.retries;
    if (tracing) {
      trace_event(q.id, now + elapsed, TraceEventKind::kAgentRetry,
                  static_cast<double>(attempt), to_string(dec.kind));
    }
  }
  q.delay = elapsed;
  q.attempts = attempt;
  q.failed = !success;

  if (success) {
    if (br.record_success()) {
      ++fstats_.breaker_closed;
      if (tracing) {
        trace_event(
            breaker_id(), now, TraceEventKind::kBreakerStateChange,
            static_cast<double>(static_cast<int>(BreakerState::kClosed)),
            "closed");
      }
    }
  } else if (br.record_failure(now, breaker_cfg_.failure_threshold)) {
    ++fstats_.breaker_opened;
    if (tracing) {
      trace_event(breaker_id(), now, TraceEventKind::kBreakerStateChange,
                  static_cast<double>(static_cast<int>(BreakerState::kOpen)),
                  "open");
    }
  }
}

void Agent::apply_fault_bookkeeping_locked(const ElementId& id,
                                           StatsRecord& record,
                                           bool track_last_good) {
  if (pending_reset_.erase(id) > 0) {
    // First collect after a crash: capture the current monotone counter
    // values as offsets so the element appears to restart from zero.
    std::vector<Attr> offsets;
    for (const Attr& a : record.attrs) {
      if (is_monotone_counter(a.name)) offsets.push_back(a);
    }
    reset_offset_[id] = std::move(offsets);
  }
  auto it = reset_offset_.find(id);
  if (it != reset_offset_.end()) {
    for (Attr& a : record.attrs) {
      for (const Attr& o : it->second) {
        if (o.name == a.name) {
          a.value = a.value >= o.value ? a.value - o.value : 0;
          break;
        }
      }
    }
  }
  if (track_last_good) last_good_[id] = record;
}

const Agent::PlanMemo& Agent::plan_memo_locked(SimTime now) {
  if (memo_.plan != plan_ || memo_.generation != plan_->generation() ||
      memo_.at != now) {
    memo_.plan = plan_;
    memo_.generation = plan_->generation();
    memo_.at = now;
    memo_.down = plan_->has_campaign() && plan_->agent_down(name_, now);
    memo_.serves_stale = plan_->serves_stale();
  }
  return memo_;
}

BatchResponse Agent::query_batch(const std::vector<ElementId>& ids,
                                 SimTime now, ThreadPool* /*pool*/) {
  BatchResponse batch;
  std::vector<PlannedQuery> plan;
  // One lock for the whole batch: every RNG draw, fault decision and retry
  // chain happens in element-id order, and every collect() runs before the
  // lock is released, so a remove_element returns only once no read of the
  // element is in flight.
  std::lock_guard<std::mutex> lock(mu_);
  run_batch_locked(ids, now, plan, batch);
  return batch;
}

void Agent::run_batch_locked(std::span<const ElementId> ids, SimTime now,
                             std::vector<PlannedQuery>& plan,
                             BatchResponse& batch) {
  plan.clear();
  batch.responses.clear();
  batch.channel_time = Duration();
  batch.unknown_ids = 0;
  batch.degraded = 0;
  std::array<bool, kNumChannelKinds> kind_used = {};
  std::array<Duration, kNumChannelKinds> kind_delay = {};
  absorb_crashes_locked(now);
  bool down = false, track_last_good = false, bookkeep = false;
  if (plan_ != nullptr) {
    const PlanMemo& memo = plan_memo_locked(now);
    track_last_good = memo.serves_stale;
    bookkeep = track_last_good || !pending_reset_.empty() ||
               !reset_offset_.empty();
    down = memo.down;
  }
  batch.unknown_ids = plan_request(ids, plan, [&](const ElementId& id) {
    auto it = sources_.find(id);
    if (it == sources_.end()) return false;
    PlannedQuery& q = plan.emplace_back();
    q.id = id;
    q.source = it->second;
    q.kind = it->second->channel_kind();
    return true;
  });
  // One round trip per channel kind present, drawn in kind order so the
  // RNG stream is independent of the requested id order.  A kind whose
  // breaker is open (and still cooling down) gets no round trip at all;
  // its elements fast-fail in planning below.
  for (const PlannedQuery& q : plan) {
    const size_t k = static_cast<size_t>(q.kind);
    if (!breakers_[k].cooling(now, breaker_cfg_.cooldown)) {
      kind_used[k] = true;
    }
  }
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    if (!kind_used[k]) continue;
    kind_delay[k] = channel_delay_locked(static_cast<ChannelKind>(k));
    batch.channel_time += kind_delay[k];
  }
  // Every occurrence is planned before any is collected: a stale read
  // serves the last-good record as it stood before this batch.
  for (PlannedQuery& q : plan) {
    const size_t k = static_cast<size_t>(q.kind);
    // The first attempt rides the kind's round trip; only retries pay
    // trips of their own, billed on top.
    plan_outcome_locked(q, now, kind_delay[k], down);
    if (q.delay > kind_delay[k]) {
      batch.channel_time += q.delay - kind_delay[k];
    }
  }

  batch.responses.resize(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    PlannedQuery& q = plan[i];
    QueryResponse& r = batch.responses[i];
    if (q.failed) {
      r = blind_spot(q.id, now, q.fail_code, q.attempts);
    } else {
      r.quality = q.quality;
      r.attempts = q.attempts;
      if (q.serve_stale) {
        r.record = std::move(q.stale_record);  // true (old) timestamp kept
      } else {
        r.record = q.source->collect(now);
        if (bookkeep) {
          apply_fault_bookkeeping_locked(q.id, r.record, track_last_good);
        }
        if (q.quality == DataQuality::kTorn) {
          r.record = apply_torn_read(r.record, q.torn_salt);
        }
      }
    }
    r.response_time = q.delay;
    if (r.quality != DataQuality::kFresh) ++batch.degraded;
  }

  // Self-profiling: one histogram observe and one trace pair per kind's
  // shared round trip actually paid.
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    if (kind_used[k]) channel_hist_[k].observe(kind_delay[k].sec());
  }
  if (trace_enabled()) trace_batch(plan, kind_used, kind_delay, batch, now);
}

void Agent::trace_batch(const std::vector<PlannedQuery>& plan,
                        const std::array<bool, kNumChannelKinds>& kind_used,
                        const std::array<Duration, kNumChannelKinds>& kind_delay,
                        const BatchResponse& batch, SimTime now) {
  const ElementId batch_id{name_ + "/batch"};
  // With an active trace context (a traced scatter above us — installed by
  // the controller's fan-out worker or a remote server's serve loop), the
  // batch also records its span subtree: one kSpanAgentBatch covering the
  // slowest channel trip, one kSpanChannelTrip child per kind paid.
  const TraceContext ctx = current_trace_context();
  const uint64_t batch_span = ctx.active() ? next_span_id() : 0;
  Duration slowest;
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    if (!kind_used[k]) continue;
    size_t group = 0;
    for (const PlannedQuery& q : plan) {
      if (static_cast<size_t>(q.kind) == k) ++group;
    }
    const char* kind = to_string(static_cast<ChannelKind>(k));
    trace_event(batch_id, now, TraceEventKind::kAgentQueryIssued,
                static_cast<double>(group), kind);
    trace_event(batch_id, now + kind_delay[k],
                TraceEventKind::kAgentQueryCompleted, kind_delay[k].us(), kind);
    if (ctx.active()) {
      trace_span(batch_id, now, TraceEventKind::kSpanChannelTrip,
                 kind_delay[k], next_span_id(), batch_span,
                 static_cast<double>(group), kind);
      if (kind_delay[k] > slowest) slowest = kind_delay[k];
    }
  }
  if (ctx.active()) {
    trace_span(batch_id, now, TraceEventKind::kSpanAgentBatch, slowest,
               batch_span, ctx.span_id, static_cast<double>(plan.size()),
               name_);
  }
  // Blind spots must be visible in the flight recorder: unknown ids and
  // non-fresh responses degrade the batch.
  if (batch.unknown_ids > 0 || batch.degraded > 0) {
    trace_event(batch_id, now, TraceEventKind::kAgentBatchDegraded,
                static_cast<double>(batch.unknown_ids + batch.degraded),
                "unknown or degraded elements");
  }
}

std::vector<QueryResponse> Agent::poll_all(SimTime now) {
  const std::vector<ElementId> ids = element_ids();
  std::vector<QueryResponse> out;
  out.reserve(ids.size());
  // Batches of one that share their plan and response scratch.
  std::vector<PlannedQuery> plan;
  BatchResponse batch;
  for (const ElementId& id : ids) {
    std::lock_guard<std::mutex> lock(mu_);
    run_batch_locked({&id, 1}, now, plan, batch);
    for (QueryResponse& r : batch.responses) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace perfsight
