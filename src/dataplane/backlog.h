// The per-core pCPU backlog — the shared enqueue point both the receive
// path (NAPI poll → backlog) and every VM's transmit path (TAP transmit →
// backlog) funnel through (Fig. 5), and therefore the premier contention
// point of the virtualization stack (Fig. 10).
//
// Each core's queue holds at most `per_core_pkts` packets (Linux
// netdev_max_backlog = 300 in the paper's kernel) regardless of packet
// size, which is why a small-packet flood starves a high-byte-rate flow:
// slots, not bytes, run out.
//
// Service is modelled fluidly per tick: producers call offer() during a
// tick; at the next step() the element obtains CPU (softirq consumer) and
// memory-bus grants, computes each core's drain capacity, forwards what it
// can to the virtual switch, and charges drop-tail losses — split across
// the tick's arrivals in proportion to their volume — to its own drop
// counters ("backlog enqueue" drops).
#pragma once

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dataplane/element.h"
#include "packet/queue.h"
#include "resources/pool.h"
#include "sim/simulator.h"

namespace perfsight::dp {

class PCpuBacklog : public Element, public sim::Steppable {
 public:
  struct Config {
    int cores = 8;
    uint64_t per_core_pkts = 300;
    double proc_cost_per_pkt = 1.6e-6;  // softirq cpu-seconds per packet
    double mem_per_byte = 1.0;          // bus bytes per processed byte
  };

  PCpuBacklog(ElementId id, Config cfg, ResourcePool* cpu,
              ResourcePool::ConsumerId cpu_consumer, ResourcePool* membus,
              ResourcePool::ConsumerId mem_consumer, PortIn* out)
      : Element(std::move(id), ElementKind::kPCpuBacklog),
        cfg_(cfg),
        cpu_(cpu),
        cpu_consumer_(cpu_consumer),
        membus_(membus),
        mem_consumer_(mem_consumer),
        out_(out),
        cores_(static_cast<size_t>(cfg.cores)) {}

  // Enqueue-side entry point.  `core < 0` hashes the flow to a core; flows
  // can be pinned (scenarios use this to co-locate a victim and an
  // aggressor on one core).
  void offer(PacketBatch b, int core = -1);
  void pin_flow(FlowId f, int core) { pinned_[f] = core; }
  int core_for(FlowId f) const;

  void step(SimTime now, Duration dt) override;
  std::string name() const override { return id().name; }

  uint64_t queued_packets() const;

 protected:
  void extra_attrs(StatsRecord& r) const override;

 private:
  struct Core {
    std::vector<PacketBatch> level;     // carried-over queue (within cap)
    uint64_t level_pkts = 0;
    uint64_t level_bytes = 0;
    std::vector<PacketBatch> arrivals;  // offered since last step
    uint64_t arrival_pkts = 0;
    uint64_t arrival_bytes = 0;
  };

  Config cfg_;
  ResourcePool* cpu_;
  ResourcePool::ConsumerId cpu_consumer_;
  ResourcePool* membus_;
  ResourcePool::ConsumerId mem_consumer_;
  PortIn* out_;
  std::vector<Core> cores_;
  // step()'s working storage, reused every tick: each core's CPU demand,
  // and the FIFO one core serves (swapped with that core's level, so the
  // buffers trade places instead of being rebuilt).
  std::vector<double> want_core_;
  std::vector<PacketBatch> serve_;
  std::unordered_map<FlowId, int> pinned_;
  // Unbiased rounding of fractional per-batch drops: a small flow sharing a
  // core with a flood must lose its proportional share, not round up to
  // losing everything.
  Pcg32 rng_{0x9e3779b97f4a7c15ULL};
};

}  // namespace perfsight::dp
