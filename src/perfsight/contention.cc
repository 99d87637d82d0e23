#include "perfsight/contention.h"

#include <algorithm>
#include <set>

namespace perfsight {

namespace {

const ElementId kAlgo1Id{"diagnosis/contention"};

// One contention sample: the loss counters, then the element's kind and VM.
constexpr size_t kTypeAttr = 3;
constexpr size_t kVmAttr = 4;
const std::vector<std::string> kSampleAttrs = {
    attr::kDropPkts, attr::kRxPkts, attr::kTxPkts, attr::kType, attr::kVm};

bool is_shared_kind(ElementKind k) {
  switch (k) {
    case ElementKind::kPNic:
    case ElementKind::kPCpuBacklog:
    case ElementKind::kNapi:
    case ElementKind::kVSwitch:
      return true;
    default:
      return false;
  }
}

}  // namespace

void ContentionDetector::set_metrics(MetricsRegistry* m) {
  cost_ = m == nullptr
              ? nullptr
              : &m->histogram("perfsight_contention_diagnosis_seconds",
                              "End-to-end Algorithm 1 cost: measurement "
                              "window plus modelled channel time");
}

ContentionReport ContentionDetector::diagnose(TenantId tenant, Duration window,
                                              const AuxSignals& aux) const {
  const DiagnosisFrame frame(controller_, kAlgo1Id, tenant,
                             "Algorithm 1 sweep", cost_);
  ContentionReport report;
  const std::vector<ElementId> elements =
      controller_->stack_elements_for(tenant);

  // One shared measurement window for the whole scan set (not one window
  // per element).
  const std::vector<Controller::WindowSample> samples =
      controller_->sample_window(tenant, elements, kSampleAttrs, window);
  report.ranked.reserve(elements.size());
  for (size_t i = 0; i < elements.size(); ++i) {
    const Controller::WindowSample& w = samples[i];
    // A loss delta is only trustworthy when *both* endpoints were actually
    // measured (fresh primary or quorum replica): stale counters produce
    // bogus deltas and torn records may be missing the very counters the
    // delta needs.  Degraded elements become blind spots instead of ranked
    // entries.
    if (!w.ok() || !is_measured(w.quality)) {
      report.blind_spots.push_back(
          ContentionReport::BlindSpot{elements[i], w.quality});
      continue;
    }
    ElementLossEntry entry;
    entry.id = elements[i];
    entry.kind = static_cast<ElementKind>(static_cast<int>(
        w.second(kTypeAttr).value_or(static_cast<int>(ElementKind::kOther))));
    entry.vm = static_cast<int>(w.second(kVmAttr).value_or(-1));
    entry.loss_pkts = std::max<int64_t>(0, pkt_loss(w));
    report.ranked.push_back(entry);
  }
  // Loss descending, ties by id: the scan set is ascending and unique, so a
  // stable sort on the loss alone keeps equal losses in id order.
  std::stable_sort(report.ranked.begin(), report.ranked.end(),
                   [](const ElementLossEntry& a, const ElementLossEntry& b) {
                     return a.loss_pkts > b.loss_pkts;
                   });

  report.coverage = coverage(elements.size(), report.blind_spots.size());
  // Appended to every narrative when the sweep had blind spots: a verdict
  // from partial data must say so.
  auto blind_note = [&]() -> std::string {
    if (report.blind_spots.empty()) return "";
    return "; " + std::to_string(report.blind_spots.size()) +
           " element(s) unmeasured (" + coverage_text(report.coverage) + ")";
  };

  if (report.ranked.empty() ||
      report.ranked.front().loss_pkts < loss_threshold_) {
    report.narrative = "no significant packet loss in the software dataplane" +
                       blind_note();
    frame.finish("healthy");
    return report;
  }

  const ElementLossEntry& primary = report.ranked.front();
  report.problem_found = true;
  report.primary_location = primary.kind;

  // Spread: which VMs' per-VM elements (of the primary kind) are losing?
  std::set<int> vms;
  for (const ElementLossEntry& e : report.ranked) {
    if (e.kind == primary.kind && e.loss_pkts >= loss_threshold_ &&
        e.vm >= 0) {
      vms.insert(e.vm);
    }
  }
  report.affected_vms.assign(vms.begin(), vms.end());
  if (is_shared_kind(primary.kind)) {
    report.spread = LossSpread::kSharedElement;
    report.is_contention = true;
  } else if (vms.size() > 1) {
    report.spread = LossSpread::kMultiVm;
    report.is_contention = true;
  } else {
    report.spread = LossSpread::kSingleVm;
    report.is_contention = false;
  }

  report.candidate_resources =
      rulebook_.candidates(primary.kind, report.spread);
  report.candidate_resources =
      RuleBook::disambiguate(report.candidate_resources, aux);

  std::string where = to_string(primary.kind);
  report.narrative = "loss concentrated at " + where + " (" +
                     primary.id.name + ", " +
                     std::to_string(primary.loss_pkts) + " pkts); " +
                     (report.is_contention
                          ? std::string("contention across ") +
                                std::to_string(std::max<size_t>(
                                    vms.size(), report.is_contention ? 2 : 1)) +
                                " VMs"
                          : "bottleneck confined to one VM");
  report.narrative += blind_note();
  frame.finish("problem found");
  return report;
}

std::string to_text(const ContentionReport& r) {
  std::string out;
  out += "=== Algorithm 1: contention / bottleneck report ===\n";
  if (!r.problem_found) {
    out += "  no significant loss detected\n";
    if (!r.blind_spots.empty()) {
      out += "  WARNING: verdict from partial data; " +
             std::to_string(r.blind_spots.size()) + " element(s) unmeasured (" +
             coverage_text(r.coverage) + ")\n";
    }
    return out;
  }
  out += "  primary drop location: ";
  out += to_string(r.primary_location);
  out += "  (spread: ";
  out += to_string(r.spread);
  out += ", classified as ";
  out += r.is_contention ? "CONTENTION" : "BOTTLENECK";
  out += ")\n  candidate resources:";
  for (ResourceKind res : r.candidate_resources) {
    out += " ";
    out += to_string(res);
  }
  out += "\n  ranked element losses:\n";
  for (const ElementLossEntry& e : r.ranked) {
    if (e.loss_pkts <= 0) continue;
    out += "    " + e.id.name + " [" + to_string(e.kind) +
           "]: " + std::to_string(e.loss_pkts) + " pkts\n";
  }
  if (!r.blind_spots.empty()) {
    out += "  blind spots (excluded from ranking, " +
           coverage_text(r.coverage) + "):\n";
    for (const ContentionReport::BlindSpot& b : r.blind_spots) {
      out += "    " + b.id.name + ": " + to_string(b.quality) + "\n";
    }
  }
  return out;
}

}  // namespace perfsight
