// Per-tick shared resource pools (CPU, memory bandwidth, NIC capacity).
//
// A ResourcePool divides a rate capacity (units/second — cpu-seconds,
// bus-bytes, bits) among registered consumers each tick.  Consumers call
// request(id, want) during their own step and receive a grant; the pool
// remembers each consumer's demand and computes next tick's budgets by
// weighted max-min fairness over those demands (one-tick adaptation lag,
// negligible at millisecond ticks).  Within a tick, budget left unused by
// one consumer is lent to later-stepping consumers ("spare"), so the pool
// is work conserving even when demands shift abruptly.
//
// Per-consumer caps model allocation limits: a 1-vCPU VM can never use more
// than one core even on an idle host, which is exactly the distinction
// between a *bottlenecked VM* (its own cap binds; only its TUN drops) and
// *host contention* (the shared capacity binds; every VM's TUN drops) that
// PerfSight's rule book relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "resources/maxmin.h"
#include "sim/simulator.h"

namespace perfsight {

// How an oversubscribed pool divides capacity.
//
//  * kMaxMin: weighted max-min fairness — small demands are protected, the
//    way a fair CPU scheduler protects light threads.
//  * kProportional: weighted proportional-to-demand — a consumer's share
//    scales with how much it asks for, the way a memory controller serves
//    whoever issues more requests.  A memcpy hog therefore starves even a
//    modest network consumer, which max-min would protect — this is the
//    mechanism behind Fig. 3's linear memory/network tradeoff (allocation
//    is work conserving, so under saturation d(net)/d(hog) = −1 bus byte
//    per bus byte).  Implemented as max-min with effective weight w·d,
//    which keeps per-consumer caps and redistribution exact.
enum class PoolPolicy { kMaxMin, kProportional };

class ResourcePool : public sim::Steppable {
 public:
  using ConsumerId = uint32_t;

  struct ConsumerCfg {
    std::string name;
    double weight = 1.0;
    double cap_per_sec = -1.0;  // <0: uncapped
  };

  ResourcePool(std::string name, double capacity_per_sec,
               PoolPolicy policy = PoolPolicy::kMaxMin)
      : name_(std::move(name)),
        capacity_per_sec_(capacity_per_sec),
        policy_(policy) {}

  ConsumerId add_consumer(ConsumerCfg cfg) {
    consumers_.push_back(State{std::move(cfg), /*demand_prev=*/capacity_per_sec_,
                               0, 0, 0, 0});
    return static_cast<ConsumerId>(consumers_.size() - 1);
  }

  // Asks for `want` units this tick; returns the grant (<= want).  May be
  // called multiple times per tick by the same consumer; demands accumulate.
  double request(ConsumerId id, double want);

  // How much `id` could still obtain this tick without consuming it.
  double available(ConsumerId id) const;

  void step(SimTime now, Duration dt) override;
  std::string name() const override { return name_; }

  double capacity_per_sec() const { return capacity_per_sec_; }
  void set_capacity_per_sec(double c) { capacity_per_sec_ = c; }

  // Fraction of last tick's capacity that was consumed (0..1).
  double utilization() const { return utilization_; }
  // Smoothed utilization over ~50 ticks.
  double utilization_ewma() const { return utilization_ewma_; }

  double consumed_total(ConsumerId id) const {
    return consumers_[id].consumed_total;
  }
  // Consumer's achieved rate (units/sec) over the previous tick.
  double rate_prev_tick(ConsumerId id) const {
    return consumers_[id].rate_prev;
  }
  const std::string& consumer_name(ConsumerId id) const {
    return consumers_[id].cfg.name;
  }
  // Introspection for tests/diagnostics: demand rate (units/sec) declared
  // last tick and the budget allotted this tick.
  double demand_prev(ConsumerId id) const { return consumers_[id].demand_prev; }
  double budget_now(ConsumerId id) const { return consumers_[id].budget; }
  size_t num_consumers() const { return consumers_.size(); }

 private:
  struct State {
    ConsumerCfg cfg;
    double demand_prev;     // units/sec demanded last tick
    double demand_accum;    // units demanded so far this tick
    double budget;          // units allotted this tick
    double consumed_tick;   // units consumed this tick
    double consumed_total;  // lifetime units
    double rate_prev = 0;   // units/sec achieved last tick
    bool in_shortfall = false;  // arbiter granted meaningfully below demand
  };

  std::string name_;
  double capacity_per_sec_;
  PoolPolicy policy_;
  Duration last_dt_ = Duration::millis(1);
  double spare_ = 0;  // unallocated capacity this tick, lent FCFS
  double utilization_ = 0;
  double utilization_ewma_ = 0;
  std::vector<State> consumers_;
  // step()'s max-min input, output and working storage, reused every tick.
  std::vector<Demand> demands_;
  std::vector<double> alloc_;
  MaxMinScratch maxmin_;
};

}  // namespace perfsight
