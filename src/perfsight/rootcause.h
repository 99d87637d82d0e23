// Algorithm 2 (§5.2): locate the root-cause middlebox in a chain.
//
// Performance problems propagate through TCP backpressure: an Overloaded
// middlebox makes its predecessors WriteBlocked and successors ReadBlocked;
// an Underloaded source makes its successors ReadBlocked (Fig. 7).  The
// analyzer samples each middlebox's (inBytes, inTime, outBytes, outTime)
// over one Controller::sample_window, computes its state against the vNIC
// capacity C —
//
//   ReadBlocked   iff  b_in  / t_in  <  C   (reads slower than the wire can
//                                            deliver: it was waiting)
//   WriteBlocked  iff  b_out / t_out <  C   (writes slower than the wire can
//                                            accept: the kernel buffer was
//                                            full)
//
// — then filters the candidate set: a ReadBlocked middlebox exonerates
// itself and its (transitive) successors; a WriteBlocked one exonerates
// itself and its predecessors.  What remains are the plausible root causes.
#pragma once

#include <string>
#include <vector>

#include "perfsight/controller.h"
#include "perfsight/metrics.h"

namespace perfsight {

enum class MbState { kNormal, kReadBlocked, kWriteBlocked };
const char* to_string(MbState s);

// How a surviving candidate relates to its neighbours — the paper's
// Overloaded / Underloaded vocabulary, reported for the operator.
enum class MbRole { kUnknown, kOverloaded, kUnderloaded };
const char* to_string(MbRole r);

struct MbObservation {
  ElementId id;
  MbState state = MbState::kNormal;
  double in_rate_mbps = -1;   // b_in / t_in; <0 when the side is unused
  double out_rate_mbps = -1;  // b_out / t_out
  double capacity_mbps = 0;
  bool has_input = false;
  bool has_output = false;
  // Collection quality of the two samples behind this observation (the
  // worse of the pair).  Non-fresh middleboxes are never classified
  // ReadBlocked/WriteBlocked: exoneration from stale or torn counters could
  // silently remove the true root cause, so they stay kNormal and remain
  // candidates.
  DataQuality quality = DataQuality::kFresh;
};

struct RootCauseReport {
  std::vector<MbObservation> observations;  // every middlebox, chain order
  std::vector<ElementId> root_causes;       // surviving candidates
  std::vector<MbRole> root_cause_roles;     // parallel to root_causes
  // Middleboxes whose counters were degraded (stale/torn/missing), and the
  // fraction observed fresh.  A verdict with coverage < 1 is conservative:
  // degraded middleboxes cannot be exonerated.
  std::vector<MbObservation> blind_spots;
  double coverage = 1.0;
  std::string narrative;
};

class RootCauseAnalyzer {
 public:
  explicit RootCauseAnalyzer(const Controller* controller)
      : controller_(controller) {}

  // Self-profiling sink: each analyze() observes its end-to-end cost into
  // perfsight_rootcause_diagnosis_seconds, created here.  Optional; not
  // owned.
  void set_metrics(MetricsRegistry* m);

  RootCauseReport analyze(TenantId tenant, Duration window) const;

 private:
  const Controller* controller_;
  LatencyHistogram* cost_ = nullptr;
};

std::string to_text(const RootCauseReport& report);

}  // namespace perfsight
