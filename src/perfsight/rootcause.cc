#include "perfsight/rootcause.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace perfsight {

const char* to_string(MbState s) {
  switch (s) {
    case MbState::kNormal:
      return "normal";
    case MbState::kReadBlocked:
      return "ReadBlocked";
    case MbState::kWriteBlocked:
      return "WriteBlocked";
  }
  return "?";
}

const char* to_string(MbRole r) {
  switch (r) {
    case MbRole::kUnknown:
      return "root-cause";
    case MbRole::kOverloaded:
      return "Overloaded";
    case MbRole::kUnderloaded:
      return "Underloaded";
  }
  return "?";
}

namespace {

const ElementId kAlgo2Id{"diagnosis/rootcause"};

// One chain-walk sample, by position in the window's attrs.
enum MbAttr : size_t { kInBytes, kInTime, kOutBytes, kOutTime, kCapacity };
const std::vector<std::string> kSampleAttrs = {
    attr::kInBytes, attr::kInTimeNs, attr::kOutBytes, attr::kOutTimeNs,
    attr::kCapacityMbps};

// Bytes a side must move within the window before its rate is trusted;
// guards against classifying an idle side from a handful of bytes.
constexpr double kMinSideBytes = 1.0;

// b/t in Mbps; -1 when the side saw no activity worth judging.
double side_rate_mbps(double bytes, double time_ns) {
  if (time_ns <= 0) return -1;
  if (bytes < kMinSideBytes && time_ns < 1e5) return -1;
  return bytes * 8.0 / (time_ns / 1e9) / 1e6;
}

}  // namespace

void RootCauseAnalyzer::set_metrics(MetricsRegistry* m) {
  cost_ = m == nullptr
              ? nullptr
              : &m->histogram("perfsight_rootcause_diagnosis_seconds",
                              "End-to-end Algorithm 2 cost: measurement "
                              "window plus modelled channel time");
}

RootCauseReport RootCauseAnalyzer::analyze(TenantId tenant,
                                           Duration window) const {
  const DiagnosisFrame frame(controller_, kAlgo2Id, tenant,
                             "Algorithm 2 chain walk", cost_);
  RootCauseReport report;
  const std::vector<ElementId>& mbs = controller_->middleboxes(tenant);
  const ChainTopology& chain = controller_->chain(tenant);

  const std::vector<Controller::WindowSample> samples =
      controller_->sample_window(tenant, mbs, kSampleAttrs, window);
  std::unordered_map<ElementId, MbState> states;
  for (size_t mi = 0; mi < mbs.size(); ++mi) {
    const ElementId& mb = mbs[mi];
    const Controller::WindowSample& w = samples[mi];
    MbObservation obs;
    obs.id = mb;
    obs.quality = w.quality;
    // Refusal to exonerate on degraded data: only a measured sample pair
    // (fresh primary or quorum replica) may classify a middlebox as blocked
    // (and thereby remove candidates).  A stale/torn/missing middlebox stays
    // kNormal — still a suspect.
    if (w.ok() && is_measured(obs.quality)) {
      auto delta = [&](MbAttr a) {
        return w.second(a).value_or(0) - w.first(a).value_or(0);
      };
      obs.capacity_mbps = w.second(kCapacity).value_or(0);
      obs.in_rate_mbps = side_rate_mbps(delta(kInBytes), delta(kInTime));
      obs.out_rate_mbps = side_rate_mbps(delta(kOutBytes), delta(kOutTime));
      obs.has_input = obs.in_rate_mbps >= 0;
      obs.has_output = obs.out_rate_mbps >= 0;
      // Algorithm 2, lines 12-17: blocked iff the side moved data slower
      // than the vNIC could have carried it.
      if (obs.has_input && obs.capacity_mbps > 0 &&
          obs.in_rate_mbps < obs.capacity_mbps) {
        obs.state = MbState::kReadBlocked;
      } else if (obs.has_output && obs.capacity_mbps > 0 &&
                 obs.out_rate_mbps < obs.capacity_mbps) {
        obs.state = MbState::kWriteBlocked;
      }
    }
    states[mb] = obs.state;
    if (!is_measured(obs.quality)) report.blind_spots.push_back(obs);
    report.observations.push_back(obs);
  }
  report.coverage = coverage(mbs.size(), report.blind_spots.size());

  // Candidate filtering (Algorithm 2, lines 14/17) with one refinement for
  // branched topologies: a ReadBlocked middlebox exonerates its successors
  // *because they are also ReadBlocked* (the paper's own justification) —
  // so the removal walks only through successors that are themselves
  // ReadBlocked.  Unconditional removal over a DAG with a shared element
  // (two content filters logging to one NFS) would let an idle branch
  // exonerate the true root cause.
  std::unordered_set<ElementId> cand(mbs.begin(), mbs.end());
  auto walk_remove = [&](const ElementId& start, MbState state,
                         bool forward) {
    cand.erase(start);
    std::vector<ElementId> stack{start};
    std::unordered_set<ElementId> seen{start};
    while (!stack.empty()) {
      ElementId n = stack.back();
      stack.pop_back();
      const std::vector<ElementId>& next =
          forward ? chain.direct_successors(n) : chain.direct_predecessors(n);
      for (const ElementId& m : next) {
        if (!seen.insert(m).second) continue;
        if (states[m] == state) {
          cand.erase(m);
          stack.push_back(m);
        }
      }
    }
  };
  for (const ElementId& mb : mbs) {
    if (states[mb] == MbState::kReadBlocked) {
      walk_remove(mb, MbState::kReadBlocked, /*forward=*/true);
    } else if (states[mb] == MbState::kWriteBlocked) {
      walk_remove(mb, MbState::kWriteBlocked, /*forward=*/false);
    }
  }
  for (const ElementId& mb : mbs) {
    if (cand.count(mb)) report.root_causes.push_back(mb);
  }

  // Annotate surviving candidates with the Overloaded/Underloaded role.
  for (const ElementId& mb : report.root_causes) {
    MbRole role = MbRole::kUnknown;
    bool preds_write_blocked = false;
    bool succs_read_blocked = false;
    for (const ElementId& p : chain.predecessors(mb)) {
      if (states[p] == MbState::kWriteBlocked) preds_write_blocked = true;
    }
    for (const ElementId& s : chain.successors(mb)) {
      if (states[s] == MbState::kReadBlocked) succs_read_blocked = true;
    }
    if (preds_write_blocked) {
      role = MbRole::kOverloaded;
    } else if (succs_read_blocked) {
      role = MbRole::kUnderloaded;
    }
    report.root_cause_roles.push_back(role);
  }

  std::unordered_map<ElementId, DataQuality> quality_of;
  for (const MbObservation& o : report.observations) quality_of[o.id] = o.quality;
  if (report.root_causes.empty()) {
    report.narrative =
        "no middlebox survives filtering: chain states are consistent with "
        "healthy end-to-end flow";
  } else {
    report.narrative = "root cause candidate(s):";
    for (size_t i = 0; i < report.root_causes.size(); ++i) {
      report.narrative += " " + report.root_causes[i].name + " (" +
                          to_string(report.root_cause_roles[i]) + ")";
      const DataQuality q = quality_of[report.root_causes[i]];
      if (!is_measured(q)) {
        // A candidate that survived because it *could not* be measured is a
        // different claim than one measured and not exonerated.
        report.narrative += std::string(" [unverified: ") + to_string(q) +
                            " counters]";
      }
    }
  }
  if (!report.blind_spots.empty()) {
    report.narrative += "; " + std::to_string(report.blind_spots.size()) +
                        " middlebox(es) with degraded counters (" +
                        coverage_text(report.coverage) + ")";
  }
  frame.finish(report.root_causes.empty() ? "no root cause"
                                          : "root cause found");
  return report;
}

std::string to_text(const RootCauseReport& r) {
  std::string out;
  out += "=== Algorithm 2: root-cause report ===\n";
  for (const MbObservation& o : r.observations) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-24s b/t_in=%8.1f Mbps  b/t_out=%8.1f Mbps  C=%6.1f  "
                  "state=%s",
                  o.id.name.c_str(), o.in_rate_mbps, o.out_rate_mbps,
                  o.capacity_mbps, to_string(o.state));
    out += line;
    // Quality markers only for degraded rows: fresh output stays
    // byte-identical to the pre-fault format.
    if (!is_fresh(o.quality)) {
      out += std::string("  [") + to_string(o.quality) + "]";
    }
    out += "\n";
  }
  out += "  " + r.narrative + "\n";
  return out;
}

}  // namespace perfsight
