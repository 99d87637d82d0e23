#include "dataplane/backlog.h"

#include <algorithm>

namespace perfsight::dp {

void PCpuBacklog::offer(PacketBatch b, int core) {
  if (b.empty()) return;
  note_in(b);
  size_t q = core >= 0 ? static_cast<size_t>(core) % cores_.size()
                       : static_cast<size_t>(core_for(b.flow));
  Core& c = cores_[q];
  c.arrivals.push_back(b);
  c.arrival_pkts += b.packets;
  c.arrival_bytes += b.bytes;
}

int PCpuBacklog::core_for(FlowId f) const {
  auto it = pinned_.find(f);
  if (it != pinned_.end()) {
    return it->second % static_cast<int>(cores_.size());
  }
  // Toeplitz-ish spreading: multiply to decorrelate consecutive flow ids.
  return static_cast<int>((f.value() * 2654435761u) % cores_.size());
}

uint64_t PCpuBacklog::queued_packets() const {
  uint64_t total = 0;
  for (const Core& c : cores_) total += c.level_pkts + c.arrival_pkts;
  return total;
}

void PCpuBacklog::extra_attrs(StatsRecord& r) const {
  r.set(attr::kQueuePkts, static_cast<double>(queued_packets()));
}

void PCpuBacklog::step(SimTime /*now*/, Duration dt) {
  // CPU demand: cost of working off everything queued + newly arrived, but
  // a core can contribute at most `dt` of cpu time per tick.
  double want_cpu = 0;
  want_core_.resize(cores_.size());
  uint64_t total_bytes = 0;
  for (size_t q = 0; q < cores_.size(); ++q) {
    const Core& c = cores_[q];
    double w = static_cast<double>(c.level_pkts + c.arrival_pkts) *
               cfg_.proc_cost_per_pkt;
    want_core_[q] = std::min(w, dt.sec());
    want_cpu += want_core_[q];
    total_bytes += c.arrival_bytes + c.level_bytes;
  }
  double cpu_grant = cpu_->request(cpu_consumer_, want_cpu);
  double cpu_scale = want_cpu > 0 ? cpu_grant / want_cpu : 1.0;

  double want_mem = static_cast<double>(total_bytes) * cfg_.mem_per_byte;
  double mem_grant =
      cfg_.mem_per_byte > 0 ? membus_->request(mem_consumer_, want_mem) : 0;
  double mem_scale = want_mem > 0 ? mem_grant / want_mem : 1.0;
  double scale = std::min(cpu_scale, cfg_.mem_per_byte > 0 ? mem_scale : 1.0);

  for (size_t q = 0; q < cores_.size(); ++q) {
    Core& c = cores_[q];
    uint64_t backlog_pkts = c.level_pkts + c.arrival_pkts;
    if (backlog_pkts == 0) continue;

    // This core's service this tick, in packets.
    double svc_cpu = want_core_[q] * scale;
    uint64_t service =
        static_cast<uint64_t>(svc_cpu / cfg_.proc_cost_per_pkt + 0.5);
    service = std::min(service, backlog_pkts);

    // Tick-end overflow: whatever could neither be served nor fit in the
    // per-core cap is dropped, charged proportionally to this tick's
    // arrivals (queued packets are never revoked).
    uint64_t carry = backlog_pkts - service;
    uint64_t dropped =
        carry > cfg_.per_core_pkts ? carry - cfg_.per_core_pkts : 0;
    double drop_frac =
        c.arrival_pkts > 0
            ? static_cast<double>(dropped) / static_cast<double>(c.arrival_pkts)
            : 0.0;

    // Serve FIFO: carried-over level first, then admitted arrivals.  The
    // level moves into the serve list and the core keeps the list's old
    // buffer for this tick's residue.
    serve_.clear();
    serve_.swap(c.level);
    c.level_pkts = 0;
    c.level_bytes = 0;

    // Trim arrivals by the drop fraction (drop-tail falls on new arrivals).
    for (PacketBatch& b : c.arrivals) {
      double exact = static_cast<double>(b.packets) * drop_frac;
      uint64_t drop_p = static_cast<uint64_t>(exact);
      // Probabilistic rounding of the fractional packet (deterministic rng).
      if (rng_.next_double() < exact - static_cast<double>(drop_p)) ++drop_p;
      drop_p = std::min(drop_p, b.packets);
      if (drop_p > 0) {
        PacketBatch lost = take_front(b, drop_p, UINT64_MAX);
        note_drop(lost.packets, lost.bytes);
      }
      if (!b.empty()) serve_.push_back(b);
    }
    c.arrivals.clear();
    c.arrival_pkts = 0;
    c.arrival_bytes = 0;

    uint64_t budget = service;
    for (PacketBatch& b : serve_) {
      if (budget > 0 && !b.empty()) {
        PacketBatch served = take_front(b, budget, UINT64_MAX);
        budget -= served.packets;
        note_out(served);
        out_->accept(served);
      }
      if (!b.empty()) {
        // Residual stays queued; clamp defensively to the cap.
        if (c.level_pkts >= cfg_.per_core_pkts) {
          note_drop(b.packets, b.bytes);
          continue;
        }
        uint64_t room = cfg_.per_core_pkts - c.level_pkts;
        if (b.packets > room) {
          PacketBatch keep = take_front(b, room, UINT64_MAX);
          note_drop(b.packets, b.bytes);
          b = keep;
        }
        c.level_pkts += b.packets;
        c.level_bytes += b.bytes;
        c.level.push_back(b);
      }
    }
  }
}

}  // namespace perfsight::dp
