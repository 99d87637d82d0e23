// Algorithm 1 (§5.1): detect contention and bottleneck middleboxes.
//
// Scans every virtualization-stack element on the machines hosting a
// tenant, measures each element's packet loss over one shared
// Controller::sample_window (not one window per element), ranks elements by
// loss, and classifies:
//
//   * loss at a shared element (pNIC, pCPU backlog)            -> contention
//     for that element's resource among its users;
//   * loss at per-VM elements (TUNs) across multiple VMs        -> contention
//     for a shared resource (CPU / memory bandwidth / egress — the rule
//     book's ambiguous set, narrowed by auxiliary signals);
//   * loss confined to a single VM's datapath                   -> that VM is
//     a bottleneck (under-provisioned), not a victim of contention.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfsight/controller.h"
#include "perfsight/metrics.h"
#include "perfsight/rulebook.h"

namespace perfsight {

struct ElementLossEntry {
  ElementId id;
  ElementKind kind = ElementKind::kOther;
  int vm = -1;  // owning VM, -1 for shared elements
  int64_t loss_pkts = 0;
};

struct ContentionReport {
  // An element the sweep could not measure reliably: its counters came back
  // stale, torn, or not at all (fault-tolerant collection).  Such elements
  // are excluded from the loss ranking — a stale counter pair yields a
  // bogus delta — and reported here instead, so the verdict is explicit
  // about where it is blind.
  struct BlindSpot {
    ElementId id;
    DataQuality quality = DataQuality::kMissing;
  };

  // All reliably-measured elements, sorted by descending loss
  // (Algorithm 1's output).
  std::vector<ElementLossEntry> ranked;
  bool problem_found = false;
  ElementKind primary_location = ElementKind::kOther;
  LossSpread spread = LossSpread::kNone;
  bool is_contention = false;  // vs single-VM bottleneck
  std::vector<int> affected_vms;
  std::vector<ResourceKind> candidate_resources;
  // Elements with degraded or missing data, in element-id order, and the
  // fraction of the scan set measured fresh (1.0 = full confidence).
  std::vector<BlindSpot> blind_spots;
  double coverage = 1.0;
  std::string narrative;
};

class ContentionDetector {
 public:
  ContentionDetector(const Controller* controller, RuleBook rulebook)
      : controller_(controller), rulebook_(std::move(rulebook)) {}

  // Minimum packet loss over the window to consider an element lossy
  // (filters measurement noise).
  void set_loss_threshold(int64_t pkts) { loss_threshold_ = pkts; }

  // Self-profiling sink: each diagnose() observes its end-to-end cost
  // (measurement window + modelled channel time) into
  // perfsight_contention_diagnosis_seconds, created here.  Optional; not
  // owned.
  void set_metrics(MetricsRegistry* m);

  ContentionReport diagnose(TenantId tenant, Duration window,
                            const AuxSignals& aux = {}) const;

 private:
  const Controller* controller_;
  RuleBook rulebook_;
  int64_t loss_threshold_ = 1;
  LatencyHistogram* cost_ = nullptr;
};

std::string to_text(const ContentionReport& report);

}  // namespace perfsight
