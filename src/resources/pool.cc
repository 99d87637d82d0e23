#include "resources/pool.h"

#include <algorithm>
#include <limits>

#include "common/ids.h"
#include "perfsight/trace.h"

namespace perfsight {

double ResourcePool::request(ConsumerId id, double want) {
  PS_CHECK(id < consumers_.size());
  State& c = consumers_[id];
  if (want <= 0) return 0;
  c.demand_accum += want;

  double cap_tick = c.cfg.cap_per_sec < 0
                        ? std::numeric_limits<double>::infinity()
                        : c.cfg.cap_per_sec * last_dt_.sec();
  double cap_room = std::max(0.0, cap_tick - c.consumed_tick);

  double from_budget = std::min({want, c.budget, cap_room});
  c.budget -= from_budget;
  double granted = from_budget;

  double still = std::min(want - granted, cap_room - granted);
  if (still > 0 && spare_ > 0) {
    double from_spare = std::min(still, spare_);
    spare_ -= from_spare;
    granted += from_spare;
  }
  c.consumed_tick += granted;
  c.consumed_total += granted;
  return granted;
}

double ResourcePool::available(ConsumerId id) const {
  PS_CHECK(id < consumers_.size());
  const State& c = consumers_[id];
  double cap_tick = c.cfg.cap_per_sec < 0
                        ? std::numeric_limits<double>::infinity()
                        : c.cfg.cap_per_sec * last_dt_.sec();
  double cap_room = std::max(0.0, cap_tick - c.consumed_tick);
  return std::min(c.budget + spare_, cap_room);
}

void ResourcePool::step(SimTime now, Duration dt) {
  // Close out the previous tick: record demands/utilization, then divide
  // this tick's capacity according to those demands.
  double consumed = 0;
  for (State& c : consumers_) {
    c.demand_prev = c.demand_accum / (last_dt_.sec() > 0 ? last_dt_.sec() : 1);
    c.rate_prev = c.consumed_tick / (last_dt_.sec() > 0 ? last_dt_.sec() : 1);
    consumed += c.consumed_tick;
    c.demand_accum = 0;
    c.consumed_tick = 0;
  }
  double cap_prev_tick = capacity_per_sec_ * last_dt_.sec();
  utilization_ = cap_prev_tick > 0 ? std::min(1.0, consumed / cap_prev_tick) : 0;
  utilization_ewma_ = 0.98 * utilization_ewma_ + 0.02 * utilization_;

  last_dt_ = dt;
  double cap_tick = capacity_per_sec_ * dt.sec();
  demands_.clear();
  for (const State& c : consumers_) {
    double amount = c.demand_prev * dt.sec();
    double weight = c.cfg.weight;
    if (policy_ == PoolPolicy::kProportional) {
      // Share follows issue rate: effective weight scales with demand.
      weight *= std::max(amount, 1e-9);
    }
    demands_.push_back(Demand{
        amount, weight,
        c.cfg.cap_per_sec < 0 ? -1.0 : c.cfg.cap_per_sec * dt.sec()});
  }
  weighted_maxmin(cap_tick, demands_, &alloc_, &maxmin_);
  double allotted = 0;
  for (size_t i = 0; i < consumers_.size(); ++i) {
    consumers_[i].budget = alloc_[i];
    allotted += alloc_[i];
  }
  spare_ = std::max(0.0, cap_tick - allotted);

  // Flight recorder: edge-triggered grant-shortfall events.  A consumer is
  // in shortfall when the arbiter allots meaningfully less than it demanded
  // (95% slack absorbs fluid-model rounding); only transitions are logged,
  // so a sustained squeeze costs two events, not one per tick.
  if (trace_enabled()) {
    for (size_t i = 0; i < consumers_.size(); ++i) {
      State& c = consumers_[i];
      double want = demands_[i].amount;
      if (want <= 0) continue;
      bool short_now = alloc_[i] < 0.95 * want;
      if (short_now == c.in_shortfall) continue;
      c.in_shortfall = short_now;
      ElementId id{name_ + "/" + c.cfg.name};
      if (short_now) {
        trace_event(id, now, TraceEventKind::kArbiterShortfall,
                    alloc_[i] / want, "grant below demand");
      } else {
        trace_event(id, now, TraceEventKind::kArbiterRecovered,
                    alloc_[i] / want, "grant meets demand");
      }
    }
  }
}

}  // namespace perfsight
