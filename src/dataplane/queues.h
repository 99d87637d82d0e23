// Queue-owning elements of the software dataplane: TUN/TAP socket queues,
// vNIC rings, guest backlog and guest socket buffers.
//
// Each wraps a BoundedPacketQueue and records arrivals, departures and
// drop-tail losses in its PerfSight counters; the drop *location* (which of
// these elements lost the packets) is the primary signal Algorithm 1 feeds
// into the rule book.
#pragma once

#include "dataplane/element.h"
#include "packet/queue.h"
#include "perfsight/inband.h"

namespace perfsight::dp {

// Generic bounded-buffer element: upstream pushes via accept() (drops are
// charged here, matching nonblocking writers in the real stack), downstream
// pulls via fetch().
class QueueElement : public Element, public PortIn {
 public:
  QueueElement(ElementId id, ElementKind kind, int vm, QueueCaps caps)
      : Element(std::move(id), kind, vm), q_(caps) {}

  void accept(PacketBatch b) override {
    note_in(b);
    if (b.int_tag != 0 && int_stamper() != nullptr) {
      // Stamp the arrival occupancy — the depth the tagged packet found,
      // not the depth after it joined.  At a harvest slot the flight
      // finalizes here and the tag stops travelling.
      b.int_tag = int_stamper()->arrive(int_slot(), b.int_tag, q_.packets());
    }
    const uint64_t tag = b.int_tag;
    uint64_t dp = q_.dropped_packets();
    uint64_t db = q_.dropped_bytes();
    const uint64_t accepted = q_.enqueue(b);
    note_drop(q_.dropped_packets() - dp, q_.dropped_bytes() - db);
    if (tag != 0 && accepted == 0 && int_stamper() != nullptr) {
      // The tag rides the batch's first packet; a full-batch drop is the
      // only way the tagged packet itself tail-dropped.  (A tag can reach
      // an unattached element when only part of the chain participates.)
      int_stamper()->mark_dropped(int_slot(), tag, q_.packets());
    }
    if (trace_enabled()) note_watermark();
  }

  PacketBatch fetch(uint64_t max_pkts, uint64_t max_bytes) {
    PacketBatch b = q_.dequeue(max_pkts, max_bytes);
    if (!b.empty()) note_out(b);
    if (trace_enabled()) note_watermark();
    return b;
  }

  bool queue_empty() const { return q_.empty(); }
  uint64_t queued_packets() const { return q_.packets(); }
  uint64_t queued_bytes() const { return q_.bytes(); }
  uint64_t space_packets() const {
    uint64_t cap = q_.caps().max_packets;
    return cap > q_.packets() ? cap - q_.packets() : 0;
  }
  uint64_t space_bytes() const {
    uint64_t cap = q_.caps().max_bytes;
    return cap > q_.bytes() ? cap - q_.bytes() : 0;
  }
  void set_caps(QueueCaps caps) { q_.set_caps(caps); }
  const BoundedPacketQueue& queue() const { return q_; }

 protected:
  void extra_attrs(StatsRecord& r) const override {
    r.set(attr::kQueuePkts, static_cast<double>(q_.packets()));
    r.set(attr::kQueueBytes, static_cast<double>(q_.bytes()));
  }

  BoundedPacketQueue q_;

 private:
  // Occupancy as a fraction of the tightest finite cap dimension; unbounded
  // dimensions (UINT64_MAX) don't constrain and are skipped.
  double occupancy_fraction() const {
    double frac = 0;
    const QueueCaps caps = q_.caps();
    if (caps.max_packets != UINT64_MAX && caps.max_packets > 0) {
      frac = static_cast<double>(q_.packets()) /
             static_cast<double>(caps.max_packets);
    }
    if (caps.max_bytes != UINT64_MAX && caps.max_bytes > 0) {
      double bf = static_cast<double>(q_.bytes()) /
                  static_cast<double>(caps.max_bytes);
      if (bf > frac) frac = bf;
    }
    return frac;
  }

  // Hysteresis watermark events: one event on crossing 75% occupancy, one
  // on draining back below 25%.  The two-threshold gap keeps a queue
  // hovering near a single threshold from flooding the flight recorder.
  void note_watermark() {
    double frac = occupancy_fraction();
    if (!above_high_ && frac >= 0.75) {
      above_high_ = true;
      trace_event_now(id(), TraceEventKind::kQueueHighWater, frac,
                      "occupancy above 75%");
    } else if (above_high_ && frac <= 0.25) {
      above_high_ = false;
      trace_event_now(id(), TraceEventKind::kQueueLowWater, frac,
                      "drained below 25%");
    }
  }

  bool above_high_ = false;
};

// TUN/TAP: the socket queue between the virtual switch and the hypervisor
// I/O handler — "the last buffer before entering VMs" and the single most
// diagnostic drop location in the rule book (CPU / memory-bandwidth /
// egress contention when many VMs drop here; a VM bottleneck when one
// does).  Its byte cap can be re-clamped each tick under buffer-memory
// pressure (the Memory Space row of Table 1).
class Tun : public QueueElement {
 public:
  Tun(ElementId id, int vm, QueueCaps caps)
      : QueueElement(std::move(id), ElementKind::kTun, vm, caps) {}
};

// Paired rx/tx rings between QEMU and the guest.  Drops are charged to the
// vNIC when a ring is full (virtio ring exhaustion).
class VNic : public Element {
 public:
  VNic(ElementId id, int vm, uint64_t ring_pkts)
      : Element(std::move(id), ElementKind::kVNic, vm),
        rx_(QueueCaps{ring_pkts, UINT64_MAX}),
        tx_(QueueCaps{ring_pkts, UINT64_MAX}) {}

  // Hypervisor side.
  void push_rx(PacketBatch b) {
    note_in(b);
    if (b.int_tag != 0 && int_stamper() != nullptr) {
      b.int_tag = int_stamper()->arrive(int_slot(), b.int_tag, rx_.packets());
    }
    const uint64_t tag = b.int_tag;
    uint64_t dp = rx_.dropped_packets(), db = rx_.dropped_bytes();
    const uint64_t accepted = rx_.enqueue(b);
    note_drop(rx_.dropped_packets() - dp, rx_.dropped_bytes() - db);
    if (tag != 0 && accepted == 0 && int_stamper() != nullptr) {
      int_stamper()->mark_dropped(int_slot(), tag, rx_.packets());
    }
  }
  PacketBatch fetch_tx(uint64_t max_pkts, uint64_t max_bytes) {
    return tx_.dequeue(max_pkts, max_bytes);
  }

  // Guest side.
  PacketBatch fetch_rx(uint64_t max_pkts, uint64_t max_bytes) {
    PacketBatch b = rx_.dequeue(max_pkts, max_bytes);
    if (!b.empty()) note_out(b);
    return b;
  }
  void push_tx(PacketBatch b) {
    uint64_t dp = tx_.dropped_packets(), db = tx_.dropped_bytes();
    tx_.enqueue(b);
    note_drop(tx_.dropped_packets() - dp, tx_.dropped_bytes() - db);
  }

  uint64_t rx_space_packets() const {
    return rx_.caps().max_packets - rx_.packets();
  }
  uint64_t rx_queued_packets() const { return rx_.packets(); }
  uint64_t tx_queued_packets() const { return tx_.packets(); }
  uint64_t tx_queued_bytes() const { return tx_.bytes(); }
  bool rx_empty() const { return rx_.empty(); }
  bool tx_empty() const { return tx_.empty(); }

 protected:
  void extra_attrs(StatsRecord& r) const override {
    r.set("rxQueuePkts", static_cast<double>(rx_.packets()));
    r.set("txQueuePkts", static_cast<double>(tx_.packets()));
  }

 private:
  BoundedPacketQueue rx_;
  BoundedPacketQueue tx_;
};

// Guest-kernel vCPU backlog (mirror of the host's, inside the VM).
class GuestBacklog : public QueueElement {
 public:
  GuestBacklog(ElementId id, int vm, uint64_t pkts)
      : QueueElement(std::move(id), ElementKind::kGuestBacklog, vm,
                     QueueCaps{pkts, UINT64_MAX}) {}
};

// Socket receive buffer between the guest kernel and middlebox software;
// overflows when the application reads slower than the vNIC delivers.
class GuestSocket : public QueueElement {
 public:
  GuestSocket(ElementId id, int vm, uint64_t bytes)
      : QueueElement(std::move(id), ElementKind::kGuestSocket, vm,
                     QueueCaps{UINT64_MAX, bytes}) {}
};

}  // namespace perfsight::dp
