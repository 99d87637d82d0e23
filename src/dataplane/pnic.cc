#include "dataplane/pnic.h"

#include <algorithm>

#include "perfsight/inband.h"

namespace perfsight::dp {

void PNic::offer_rx(PacketBatch b) {
  if (b.empty()) return;
  rx_staged_bytes_ += b.bytes;
  rx_staging_.push_back(std::move(b));
}

void PNic::admit_rx(Duration dt) {
  if (rx_staging_.empty()) return;
  uint64_t budget = cfg_.line_rate.bytes_in(dt);
  // Proportional clamp when the tick's offers exceed line rate: arrivals
  // interleave on the wire, so everyone loses the same fraction.
  double admit_frac =
      rx_staged_bytes_ <= budget
          ? 1.0
          : static_cast<double>(budget) / static_cast<double>(rx_staged_bytes_);
  for (PacketBatch& b : rx_staging_) {
    PacketBatch fit = b;
    if (admit_frac < 1.0) {
      uint64_t admit_pkts = static_cast<uint64_t>(
          static_cast<double>(b.packets) * admit_frac + 0.5);
      fit = take_front(b, admit_pkts, UINT64_MAX);
      if (!b.empty()) {
        note_drop(b.packets, b.bytes);
        rx_drop_pkts_ += b.packets;
      }
    }
    if (fit.empty()) continue;
    if (int_stamper() != nullptr) {
      // Ingress sampling: the pNIC is where flights begin.  The stamped
      // depth is the ring occupancy the sampled packet found on arrival.
      fit.int_tag =
          int_stamper()->maybe_tag(int_slot(), fit, rx_ring_.packets());
    }
    uint64_t dp = rx_ring_.dropped_packets();
    uint64_t db = rx_ring_.dropped_bytes();
    uint64_t accepted_pkts = rx_ring_.enqueue(fit);
    if (fit.int_tag != 0 && accepted_pkts == 0) {
      int_stamper()->mark_dropped(int_slot(), fit.int_tag,
                                  rx_ring_.packets());
    }
    uint64_t newly_dp = rx_ring_.dropped_packets() - dp;
    note_drop(newly_dp, rx_ring_.dropped_bytes() - db);
    rx_drop_pkts_ += newly_dp;
    if (accepted_pkts > 0) {
      double frac = static_cast<double>(accepted_pkts) /
                    static_cast<double>(accepted_pkts + newly_dp);
      uint64_t bytes_in =
          static_cast<uint64_t>(static_cast<double>(fit.bytes) * frac);
      note_in(PacketBatch{fit.flow, accepted_pkts, bytes_in});
      rx_wire_bytes_ += bytes_in;
    }
  }
  rx_staging_.clear();
  rx_staged_bytes_ = 0;
}

PacketBatch PNic::fetch_rx(uint64_t max_pkts, uint64_t max_bytes) {
  return rx_ring_.dequeue(max_pkts, max_bytes);
}

void PNic::accept(PacketBatch b) {
  if (b.empty()) return;
  uint64_t dp = tx_ring_.dropped_packets();
  uint64_t db = tx_ring_.dropped_bytes();
  tx_ring_.enqueue(b);
  uint64_t newly = tx_ring_.dropped_packets() - dp;
  note_drop(newly, tx_ring_.dropped_bytes() - db);
  tx_drop_pkts_ += newly;
}

void PNic::step(SimTime /*now*/, Duration dt) {
  // Admit wire arrivals staged during the previous tick.
  admit_rx(dt);
  // Drain the tx ring at line rate.
  uint64_t budget = cfg_.line_rate.bytes_in(dt);
  while (budget > 0 && !tx_ring_.empty()) {
    PacketBatch b = tx_ring_.dequeue(UINT64_MAX, budget);
    if (b.empty()) break;
    budget -= std::min(budget, b.bytes);
    note_out(b);
    tx_wire_bytes_ += b.bytes;
    if (tx_sink_) tx_sink_(std::move(b));
  }
}

void PNic::extra_attrs(StatsRecord& r) const {
  r.set("rxDropPkts", static_cast<double>(rx_drop_pkts_));
  r.set("txDropPkts", static_cast<double>(tx_drop_pkts_));
  r.set(attr::kQueuePkts,
        static_cast<double>(rx_ring_.packets() + tx_ring_.packets()));
  r.set(attr::kCapacityMbps, cfg_.line_rate.mbits_per_sec());
}

}  // namespace perfsight::dp
