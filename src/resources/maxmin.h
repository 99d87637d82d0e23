// Weighted max-min fair allocation (progressive filling / water-filling).
//
// All shared resources in the machine model — CPU cycles, memory-bus bytes,
// NIC bits — are divided among their consumers with this one algorithm:
// capacity is poured across unsatisfied consumers proportionally to their
// weights until each is either satisfied (got its demand, possibly clipped
// by a per-consumer cap) or the capacity is exhausted.  This matches how a
// work-conserving fair scheduler behaves under persistent backlog and is
// the mechanism by which contention symptoms (queues backing up at specific
// elements) emerge in the simulator.
#pragma once

#include <vector>

namespace perfsight {

struct Demand {
  double amount = 0;   // how much the consumer wants this round
  double weight = 1;   // fair-share weight (>0)
  double cap = -1;     // hard per-consumer limit; <0 means uncapped
};

// Working storage of weighted_maxmin.  A caller that divides capacity every
// tick keeps one next to its output vector: both grow to the largest demand
// set seen and are reused, so a steady-state call allocates nothing.
struct MaxMinScratch {
  std::vector<double> want;          // min(amount, cap) per demand
  std::vector<unsigned char> done;   // satisfied (or idle) per demand
};

// Writes one allocation per demand into `*alloc` (resized to
// demands.size()).  Guarantees:
//   * sum(alloc) <= capacity (+ epsilon)
//   * alloc[i] <= min(demand, cap) for every i
//   * work conserving: if sum(min(demand,cap)) >= capacity, the full
//     capacity is allocated
//   * max-min fair w.r.t. weights among unsatisfied consumers
void weighted_maxmin(double capacity, const std::vector<Demand>& demands,
                     std::vector<double>* alloc, MaxMinScratch* scratch);

// Convenience form with fresh storage; the result is bit-identical.
std::vector<double> weighted_maxmin(double capacity,
                                    const std::vector<Demand>& demands);

}  // namespace perfsight
