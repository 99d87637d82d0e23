// Element: base class for every instrumented software-dataplane component.
//
// An element is "a logical unit that reads traffic from or writes traffic
// to another by buffers or function calls" (§1).  Each element owns the
// standard PerfSight counter set and implements StatsSource, so the agent
// can interrogate it over the channel matching its real-world access path
// (net_device file for NICs/TUNs, /proc for backlogs, the OVS control
// channel for the virtual switch, QEMU logs for the hypervisor I/O handler,
// sockets for middlebox software).
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "common/ids.h"
#include "packet/batch.h"
#include "perfsight/counters.h"
#include "perfsight/histogram.h"
#include "perfsight/rulebook.h"
#include "perfsight/stats_source.h"
#include "perfsight/trace.h"

namespace perfsight::inband {
class IntStamper;
}

namespace perfsight::dp {

// Channel the agent uses for an element of this kind (§6's implementation
// mapping).
ChannelKind channel_for(ElementKind kind);

class Element : public StatsSource {
 public:
  // `vm` is the owning VM index within its machine, or -1 for elements of
  // the shared virtualization stack.
  Element(ElementId id, ElementKind kind, int vm = -1)
      : id_(std::move(id)), kind_(kind), vm_(vm) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return channel_for(kind_); }
  ElementKind kind() const { return kind_; }
  int vm() const { return vm_; }

  StatsRecord collect(SimTime now) const override;

  const ElementStats& stats() const { return stats_; }

  // Optional richer statistic (§4.1): per-element packet-size distribution.
  // Off by default; the operator opts in per element and accepts the cost.
  void enable_size_tracking() {
    if (!size_hist_) size_hist_ = std::make_unique<PacketSizeHistogram>();
  }
  const PacketSizeHistogram* size_histogram() const {
    return size_hist_.get();
  }

  // In-band telemetry attachment (perfsight/inband.h), set by
  // IntStamper::attach.  A never-attached element's INT hooks reduce to one
  // null-pointer test, so the default packet path is bit-identical to a
  // build without INT.
  void set_int_stamper(inband::IntStamper* s, int slot) {
    int_stamper_ = s;
    int_slot_ = slot;
  }
  inband::IntStamper* int_stamper() const { return int_stamper_; }
  int int_slot() const { return int_slot_; }

 protected:
  // Counter updates used by subclasses on their datapaths.
  void note_in(const PacketBatch& b) {
    stats_.pkts_in.add(b.packets);
    stats_.bytes_in.add(b.bytes);
    if (size_hist_ && b.packets > 0) {
      size_hist_->record(static_cast<uint32_t>(b.avg_packet_size()),
                         b.packets);
    }
  }
  void note_out(const PacketBatch& b) {
    stats_.pkts_out.add(b.packets);
    stats_.bytes_out.add(b.bytes);
  }
  void note_drop(uint64_t pkts, uint64_t bytes) {
    if (pkts == 0 && bytes == 0) return;
    stats_.drop_pkts.add(pkts);
    stats_.drop_bytes.add(bytes);
    // Flight recorder: drops are the rule book's primary evidence, so each
    // burst is logged with the candidate resources for this element kind.
    trace_drop(id_, kind_, pkts);
  }
  void note_in_time(Duration d) { stats_.in_time.add(d); }
  void note_out_time(Duration d) { stats_.out_time.add(d); }

  // Subclasses append element-specific attributes (queue depth, rule stats).
  virtual void extra_attrs(StatsRecord& r) const { (void)r; }

  ElementStats stats_;

 private:
  ElementId id_;
  ElementKind kind_;
  int vm_;
  std::unique_ptr<PacketSizeHistogram> size_hist_;
  inband::IntStamper* int_stamper_ = nullptr;
  int int_slot_ = -1;
};

// Anything that accepts traffic pushed by an upstream element.
class PortIn {
 public:
  virtual ~PortIn() = default;
  virtual void accept(PacketBatch b) = 0;
};

}  // namespace perfsight::dp
