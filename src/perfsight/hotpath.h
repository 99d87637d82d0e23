// Real (wall-clock) packet-processing harness for overhead measurements.
//
// The paper's Table 2 / Fig. 15 / Fig. 16 quantify what the instrumentation
// itself costs a busy element.  Simulated time cannot answer that, so this
// harness runs an honest per-packet work loop on the host CPU — one work
// model per middlebox kind the paper tested (proxy, load balancer, cache,
// redundancy eliminator, IPS) — with the production counter types compiled
// in or out, and reports achieved packets/second.  The same harness backs
// the per-update cost measurements (≈ns for simple counters, ≈0.1–0.3 µs
// for time counters).
#pragma once

#include <cstdint>
#include <vector>

#include "perfsight/counters.h"
#include "perfsight/stats_source.h"

namespace perfsight {

enum class MbWorkKind {
  kProxy = 0,       // read + write memcpy, no inspection
  kLoadBalancer,    // header hash + forward
  kCache,           // payload digest + table lookup
  kRedundancyElim,  // rolling fingerprints over payload
  kIps,             // byte-wise multi-pattern scan
};

const char* to_string(MbWorkKind k);

struct HotpathConfig {
  MbWorkKind kind = MbWorkKind::kProxy;
  uint32_t packet_bytes = 1500;
  bool simple_counters = false;  // pkts/bytes counters on the fast path
  bool time_counters = false;    // ScopedIoTimer around read/write
  // Flight-recorder event per packet into the global TraceRecorder's ring
  // (the worst case for tracing overhead: every packet is an event).  The
  // global recorder must also be enabled, else the per-packet cost is the
  // single branch production code pays.
  bool trace_events = false;
};

struct HotpathResult {
  uint64_t packets = 0;
  uint64_t wall_ns = 0;
  uint64_t checksum = 0;  // anti-DCE sink; also a determinism probe
  // Payload bytes the work model hashed, scanned or copied (kernel I/O
  // emulation excluded): the deterministic work count behind each kind's
  // cost, which a test can compare where wall-clock would flake.
  uint64_t payload_bytes_worked = 0;
  ElementStats stats;     // counters as maintained during the run

  double pkts_per_sec() const {
    return wall_ns == 0 ? 0
                        : static_cast<double>(packets) * 1e9 /
                              static_cast<double>(wall_ns);
  }
  double gbps(uint32_t packet_bytes) const {
    return pkts_per_sec() * packet_bytes * 8.0 / 1e9;
  }
};

// Processes `packets` packets through the configured element and returns
// timing + counters.
HotpathResult run_hotpath(const HotpathConfig& cfg, uint64_t packets);

// Cost of one counter update in isolation, averaged over `iters` updates.
double measure_simple_counter_ns(uint64_t iters);
double measure_time_counter_ns(uint64_t iters);

// A StatsSource wrapping hotpath counters, so real agents can poll real
// elements (Fig. 16's polling-overhead experiment).
class HotpathStatsSource : public StatsSource {
 public:
  HotpathStatsSource(ElementId id, const ElementStats* stats)
      : id_(std::move(id)), stats_(stats) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kMbSocket; }
  StatsRecord collect(SimTime now) const override;

 private:
  ElementId id_;
  const ElementStats* stats_;
};

}  // namespace perfsight
