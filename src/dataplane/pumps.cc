#include "dataplane/pumps.h"

#include <algorithm>

#include "perfsight/inband.h"

namespace perfsight::dp {

void NapiPoll::step(SimTime /*now*/, Duration dt) {
  if (pnic_->rx_empty()) return;
  // Ask for enough CPU to clear the ring, bounded by one tick of one core
  // (the poll loop runs on a single core at a time).
  // Demand is estimated from what is visible in the ring right now.
  double want = std::min(
      static_cast<double>(pnic_->rx_queued_packets()) * cfg_.cost_per_pkt,
      dt.sec());
  double grant = cpu_->request(cpu_consumer_, want);
  uint64_t budget_pkts =
      static_cast<uint64_t>(grant / cfg_.cost_per_pkt + 0.5);
  while (budget_pkts > 0) {
    PacketBatch b = pnic_->fetch_rx(budget_pkts, UINT64_MAX);
    if (b.empty()) break;
    budget_pkts -= b.packets;
    if (b.int_tag != 0 && int_stamper() != nullptr) {
      // The poll loop holds no queue; the stamped depth is what remains in
      // the ring behind the tagged packet, and the io-time is its share of
      // this tick's per-packet poll cost.
      int_stamper()->stamp(int_slot(), b.int_tag, pnic_->rx_queued_packets(),
                           Duration::seconds(static_cast<double>(b.packets) *
                                             cfg_.cost_per_pkt));
    }
    note_in(b);
    note_out(b);
    backlog_->offer(std::move(b));
  }
}

void HypervisorIo::step(SimTime /*now*/, Duration dt) {
  uint64_t rx_pkts = tun_->queued_packets();
  uint64_t rx_bytes = tun_->queued_bytes();
  uint64_t tx_pkts = vnic_->tx_queued_packets();
  uint64_t tx_bytes = vnic_->tx_queued_bytes();

  uint64_t total_pkts = rx_pkts + tx_pkts;
  if (total_pkts == 0) {
    // Nothing to move: the I/O thread blocks on the TAP fd.
    note_in_time(dt);
    return;
  }
  uint64_t total_bytes = rx_bytes + tx_bytes;
  // Per-tick work bound, applied uniformly to both directions so the
  // rx/tx split stays consistent with the resource demands below.
  double max_bytes_tick = cfg_.max_bytes_per_sec * dt.sec();
  double f_cap = static_cast<double>(total_bytes) > max_bytes_tick
                     ? max_bytes_tick / static_cast<double>(total_bytes)
                     : 1.0;
  double want_pkts = static_cast<double>(total_pkts) * f_cap;
  double want_bytes = static_cast<double>(total_bytes) * f_cap;

  double want_cpu = want_pkts * cfg_.cost_per_pkt +
                    want_bytes * cfg_.cost_per_byte;
  double cpu_grant = cpu_->request(cpu_consumer_, want_cpu);
  double cpu_scale = want_cpu > 0 ? cpu_grant / want_cpu : 1.0;

  double want_mem = want_bytes * cfg_.mem_per_byte;
  double mem_grant = membus_->request(mem_consumer_, want_mem);
  double mem_scale = want_mem > 0 ? mem_grant / want_mem : 1.0;

  // Fraction of the queued work this tick's grants can move.
  double scale = f_cap * std::min(cpu_scale, mem_scale);
  auto scaled = [&](uint64_t v) {
    return static_cast<uint64_t>(static_cast<double>(v) * scale + 0.5);
  };
  uint64_t rx_pkt_budget = scaled(rx_pkts);
  uint64_t tx_pkt_budget = scaled(tx_pkts);
  uint64_t rx_byte_budget = scaled(rx_bytes);
  uint64_t tx_byte_budget = scaled(tx_bytes);

  uint64_t moved_bytes = 0;

  // Receive: TUN -> vNIC rx ring, gated by ring space (when the guest is
  // not consuming, packets stay in the TUN and drop there).
  uint64_t rx_space = vnic_->rx_space_packets();
  rx_pkt_budget = std::min(rx_pkt_budget, rx_space);
  while (rx_pkt_budget > 0 && rx_byte_budget > 0) {
    PacketBatch b = tun_->fetch(rx_pkt_budget, rx_byte_budget);
    if (b.empty()) break;
    rx_pkt_budget -= b.packets;
    rx_byte_budget -= std::min(rx_byte_budget, b.bytes);
    moved_bytes += b.bytes;
    if (b.int_tag != 0 && int_stamper() != nullptr) {
      // Copy-engine hop: depth is what is still waiting in the TUN, and the
      // io-time is the memcpy cost of this batch.
      int_stamper()->stamp(int_slot(), b.int_tag, tun_->queued_packets(),
                           Duration::seconds(static_cast<double>(b.bytes) /
                                             cfg_.memcpy_bytes_per_sec));
    }
    note_in(b);
    note_out(b);
    vnic_->push_rx(std::move(b));
  }

  // Transmit: vNIC tx ring -> pCPU backlog enqueue.
  while (tx_pkt_budget > 0 && tx_byte_budget > 0) {
    PacketBatch b = vnic_->fetch_tx(tx_pkt_budget, tx_byte_budget);
    if (b.empty()) break;
    tx_pkt_budget -= b.packets;
    tx_byte_budget -= std::min(tx_byte_budget, b.bytes);
    moved_bytes += b.bytes;
    note_in(b);
    note_out(b);
    backlog_->offer(std::move(b));
  }

  // I/O-time accounting: copying time for what moved; the rest of the tick
  // was either blocked (nothing available / no grant) or overhead.
  double copy_sec = static_cast<double>(moved_bytes) / cfg_.memcpy_bytes_per_sec;
  note_out_time(Duration::seconds(std::min(copy_sec, dt.sec())));
}

void GuestStack::step(SimTime /*now*/, Duration /*dt*/) {
  // Stage 1: vNIC rx ring -> guest backlog ("interrupt", cheap).
  while (true) {
    uint64_t space = backlog_->space_packets();
    if (space == 0) break;
    PacketBatch b = vnic_->fetch_rx(space, UINT64_MAX);
    if (b.empty()) break;
    backlog_->accept(std::move(b));
  }

  // Stage 2: guest backlog -> socket buffer, paced by vCPU.
  uint64_t pkts = backlog_->queued_packets();
  uint64_t bytes = backlog_->queued_bytes();
  if (pkts == 0) return;
  double want = static_cast<double>(pkts) * cfg_.cost_per_pkt +
                static_cast<double>(bytes) * cfg_.cost_per_byte;
  double grant = cpu_->request(vcpu_consumer_, want);
  double scale = want > 0 ? grant / want : 1.0;
  uint64_t pkt_budget =
      static_cast<uint64_t>(static_cast<double>(pkts) * scale + 0.5);
  while (pkt_budget > 0) {
    PacketBatch b = backlog_->fetch(pkt_budget, UINT64_MAX);
    if (b.empty()) break;
    pkt_budget -= b.packets;
    socket_->accept(std::move(b));
  }
}

}  // namespace perfsight::dp
