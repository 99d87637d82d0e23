// Bounded drop-tail packet queue.
//
// Every buffer in the software dataplane (pNIC DMA ring, pCPU backlog,
// TUN socket queue, vNIC ring, guest backlog) is one of these.  Two caps
// matter independently: the Linux per-core backlog limits *packets*
// (netdev_max_backlog = 300 in the paper's kernel — this is what makes the
// Fig. 10 small-packet flood starve VM1), while socket buffers limit
// *bytes*.  A queue enforces whichever caps are set and counts drops, which
// is precisely the statistic Algorithm 1 ranks elements by.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "common/ring.h"
#include "packet/batch.h"

namespace perfsight {

struct QueueCaps {
  uint64_t max_packets = std::numeric_limits<uint64_t>::max();
  uint64_t max_bytes = std::numeric_limits<uint64_t>::max();
};

class BoundedPacketQueue {
 public:
  explicit BoundedPacketQueue(QueueCaps caps = {}) : caps_(caps) {}

  // Enqueues as much of `b` as fits; the overflow is dropped (drop-tail) and
  // accounted.  Returns the number of packets accepted.
  uint64_t enqueue(PacketBatch b) {
    if (b.empty()) return 0;
    // Saturating: caps may have been re-clamped (memory pressure) below the
    // current contents.
    uint64_t space_pkts =
        caps_.max_packets > packets_ ? caps_.max_packets - packets_ : 0;
    uint64_t space_bytes =
        caps_.max_bytes > bytes_ ? caps_.max_bytes - bytes_ : 0;
    if (space_pkts == 0 || space_bytes < static_cast<uint64_t>(b.avg_packet_size())) {
      drop(b);
      return 0;
    }
    PacketBatch fit = take_front(b, space_pkts, space_bytes);
    push(fit);
    if (!b.empty()) drop(b);
    return fit.packets;
  }

  // Dequeues up to `max_packets`/`max_bytes` worth of traffic, preserving
  // FIFO order; batches at the head are split if needed.
  PacketBatch dequeue(uint64_t max_packets, uint64_t max_bytes);

  // Dequeue honoring per-batch granularity for callers that iterate flows:
  // pops the head batch limited by the caps; returns empty batch when the
  // caps are exhausted or the queue is empty.
  PacketBatch pop_some(uint64_t& budget_packets, uint64_t& budget_bytes);

  bool empty() const { return q_.empty(); }
  uint64_t packets() const { return packets_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t dropped_packets() const { return dropped_packets_; }
  uint64_t dropped_bytes() const { return dropped_bytes_; }
  const QueueCaps& caps() const { return caps_; }
  void set_caps(QueueCaps caps) { caps_ = caps; }

  // Per-flow drop accounting (used by scenario assertions and per-rule
  // virtual-switch statistics).
  uint64_t dropped_packets_for(FlowId f) const {
    auto it = per_flow_drops_.find(f);
    return it == per_flow_drops_.end() ? 0 : it->second;
  }

 private:
  void push(const PacketBatch& b) {
    // Merge with tail if same flow — keeps the ring small under steady
    // per-tick arrivals without changing FIFO semantics between flows that
    // never interleave within a tick.
    if (!q_.empty() && q_.back().flow == b.flow) {
      PacketBatch& tail = q_.back();
      tail.packets += b.packets;
      tail.bytes += b.bytes;
      // A merged batch can carry only one INT tag; the tail keeps its own,
      // an untagged tail adopts the arrival's.  (A tag lost this way is an
      // orphaned flight the stamper expires — never a wrong counter.)
      if (tail.int_tag == 0) tail.int_tag = b.int_tag;
    } else {
      q_.push_back(b);
    }
    packets_ += b.packets;
    bytes_ += b.bytes;
  }
  void drop(const PacketBatch& b) {
    dropped_packets_ += b.packets;
    dropped_bytes_ += b.bytes;
    per_flow_drops_[b.flow] += b.packets;
  }

  QueueCaps caps_;
  Ring<PacketBatch> q_;  // grows on first use, never in the constructor
  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
  uint64_t dropped_packets_ = 0;
  uint64_t dropped_bytes_ = 0;
  std::unordered_map<FlowId, uint64_t> per_flow_drops_;
};

}  // namespace perfsight
