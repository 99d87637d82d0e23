#include "perfsight/bottleneck.h"

namespace perfsight {

namespace {

double util_of(const UtilizationSnapshot& snap, const std::string& vm) {
  for (const VmUtilization& u : snap.vms) {
    if (u.vm_name == vm) return u.cpu;
  }
  return 0;
}

}  // namespace

BottleneckReport BottleneckDetector::diagnose(
    TenantId tenant, const UtilizationSnapshot& utilization,
    const std::vector<SuspectVm>& vms, Duration window,
    bool degenerate) const {
  BottleneckReport report;

  // Build the suspicious set.
  std::vector<const SuspectVm*> suspects;
  for (const SuspectVm& vm : vms) {
    if (degenerate || util_of(utilization, vm.vm_name) >= threshold_) {
      suspects.push_back(&vm);
    }
  }

  // One shared window for every suspect's datapath elements.
  std::vector<ElementId> ids;
  for (const SuspectVm* vm : suspects) {
    ids.insert(ids.end(), vm->datapath.begin(), vm->datapath.end());
  }
  const std::vector<Controller::WindowSample> samples =
      controller_->sample_window(tenant, ids, kLossAttrs, window);

  const Controller::WindowSample* w = samples.data();
  for (const SuspectVm* vm : suspects) {
    BottleneckVerdict v;
    v.vm_name = vm->vm_name;
    v.cpu_utilization = util_of(utilization, vm->vm_name);
    for (size_t i = 0; i < vm->datapath.size(); ++i, ++w) {
      // Counters it could not read never exonerate (nor confirm) a suspect.
      if (!w->ok() || !is_measured(w->quality)) {
        v.unmeasured = true;
      } else {
        v.loss_pkts += pkt_loss(*w);
      }
    }
    v.confirmed = !v.unmeasured && v.loss_pkts > 0;
    if (v.unmeasured) {
      report.unmeasured.push_back(v.vm_name);
    } else if (v.confirmed) {
      report.confirmed.push_back(v.vm_name);
    } else {
      report.exonerated.push_back(v.vm_name);
    }
    report.verdicts.push_back(std::move(v));
  }
  return report;
}

std::string to_text(const BottleneckReport& report) {
  std::string out = "=== bottleneck-middlebox report ===\n";
  for (const BottleneckVerdict& v : report.verdicts) {
    out += "  " + v.vm_name + ": cpu=" +
           std::to_string(static_cast<int>(v.cpu_utilization * 100)) + "% ";
    if (v.unmeasured) {
      out += "loss=? -> unmeasured (degraded datapath counters)\n";
      continue;
    }
    out += "loss=" + std::to_string(v.loss_pkts) + " pkts -> " +
           (v.confirmed ? "BOTTLENECK" : "busy-but-healthy") + "\n";
  }
  return out;
}

}  // namespace perfsight
