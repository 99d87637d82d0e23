// Bottleneck-middlebox detection as described in §5.1:
//
//   "the operator first selects middleboxes with high resource utilization
//    and includes them in a 'suspicious' set; in the degenerate case all of
//    the tenant's middleboxes could be included.  Then, we use our
//    light-weight statistics to distinguish those middleboxes that are
//    facing legitimate issues, such as packet drops, against those whose
//    resources naturally run at a high utilization but are otherwise not
//    bottlenecks (e.g., a video encoder)."
//
// The detector takes the utilization snapshot (the same input the naive
// baseline uses) as a pre-filter, then measures packet loss on each
// suspect VM's datapath over one Controller::sample_window.  Suspects with
// real loss are confirmed bottlenecks; busy-but-healthy ones are
// exonerated — the video transcoder case that breaks utilization-only
// monitoring.  A suspect with any datapath element the window could not
// measure (failed, stale or torn) is neither: it is reported unmeasured.
#pragma once

#include <string>
#include <vector>

#include "perfsight/baseline.h"
#include "perfsight/controller.h"

namespace perfsight {

struct SuspectVm {
  std::string vm_name;
  // Elements on this VM's datapath whose drops implicate it (typically its
  // TUN and guest socket).
  std::vector<ElementId> datapath;
};

struct BottleneckVerdict {
  std::string vm_name;
  double cpu_utilization = 0;
  int64_t loss_pkts = 0;   // over the measured datapath elements
  bool confirmed = false;  // high utilization AND real loss
  bool unmeasured = false;  // some datapath element could not be measured
};

struct BottleneckReport {
  std::vector<BottleneckVerdict> verdicts;  // every suspect, judged
  std::vector<std::string> confirmed;       // bottlenecks to act on
  std::vector<std::string> exonerated;      // busy but healthy
  std::vector<std::string> unmeasured;      // neither: counters unreadable
};

class BottleneckDetector {
 public:
  BottleneckDetector(const Controller* controller,
                     double utilization_threshold = 0.9)
      : controller_(controller), threshold_(utilization_threshold) {}

  // `vms` maps utilization entries to datapath elements; VMs below the
  // utilization threshold are skipped unless `degenerate` is set (the
  // paper's fallback when no utilization stands out).
  BottleneckReport diagnose(TenantId tenant,
                            const UtilizationSnapshot& utilization,
                            const std::vector<SuspectVm>& vms,
                            Duration window, bool degenerate = false) const;

 private:
  const Controller* controller_;
  double threshold_;
};

std::string to_text(const BottleneckReport& report);

}  // namespace perfsight
