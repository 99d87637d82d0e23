#include "fleet.h"

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "harness.h"

namespace perfbench {

using namespace perfsight;

StatsRecord SynthSource::collect(SimTime now) const {
  const auto w = static_cast<double>(now.ns() / kFleetWindow.ns());
  const auto rx = static_cast<double>(rates_.rx_pkts);
  const auto drop = static_cast<double>(rates_.drop_pkts);
  const auto size = static_cast<double>(rates_.pkt_bytes);
  StatsRecord r;
  r.timestamp = now;
  r.element = id_;
  r.attrs = {
      {attr::kRxPkts, rx * w},
      {attr::kTxPkts, (rx - drop) * w},
      {attr::kRxBytes, rx * size * w},
      {attr::kTxBytes, (rx - drop) * size * w},
      {attr::kDropPkts, drop * w},
      {attr::kDropBytes, drop * size * w},
      {attr::kInTimeNs, static_cast<double>(rates_.in_time_ns) * w},
      {attr::kOutTimeNs, static_cast<double>(rates_.out_time_ns) * w},
      {attr::kQueuePkts, static_cast<double>(rates_.queue_pkts)},
      {attr::kQueueBytes, static_cast<double>(rates_.queue_pkts) * size},
      {attr::kType, static_cast<double>(static_cast<int>(kind_))},
      {attr::kVm, static_cast<double>(vm_)},
  };
  return r;
}

namespace {

// Per-VM elements cycle through these three kinds; the shared elements
// (pNIC, pCPU backlog, vswitch) take the first three slots of each agent.
struct KindSpec {
  const char* suffix;
  ElementKind kind;
  ChannelKind channel;
};
constexpr KindSpec kShared[] = {
    {"pnic", ElementKind::kPNic, ChannelKind::kNetDeviceFile},
    {"backlog", ElementKind::kPCpuBacklog, ChannelKind::kProcFs},
    {"vswitch", ElementKind::kVSwitch, ChannelKind::kOvsChannel},
};
constexpr KindSpec kPerVm[] = {
    {"tun", ElementKind::kTun, ChannelKind::kNetDeviceFile},
    {"qemu-io", ElementKind::kHypervisorIo, ChannelKind::kQemuLog},
    {"vnic", ElementKind::kVNic, ChannelKind::kGuestProc},
};
constexpr int kNumShared = 3;
constexpr int kNumPerVm = 3;

std::string vm_name(int a, int v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "m%d/vm%03d/", a, v);
  return buf;
}

}  // namespace

Fleet::Fleet(uint64_t seed) {
  Pcg32 rng(mix64(seed ^ 0x666c656574ULL));  // "fleet"
  const int vms_per_agent = (kElementsPerAgent - kNumShared) / kNumPerVm + 1;
  const int lossy_agent = static_cast<int>(rng.next_below(kFleetAgents));
  const int lossy_local_vm = static_cast<int>(
      rng.next_below(static_cast<uint32_t>((kElementsPerAgent - kNumShared) /
                                           kNumPerVm)));

  ids_.resize(kFleetAgents);
  for (int a = 0; a < kFleetAgents; ++a) {
    agents_.push_back(
        std::make_unique<Agent>("agent-m" + std::to_string(a),
                                mix64(seed * 31 + static_cast<uint64_t>(a))));
    Agent* agent = agents_.back().get();
    for (int j = 0; j < kElementsPerAgent; ++j) {
      ElementRates rates;
      rates.rx_pkts = 2000 + rng.next_below(18000);
      rates.pkt_bytes = 64 + rng.next_below(1437);
      rates.in_time_ns = 1000000 + rng.next_below(9000000);
      rates.out_time_ns = rates.in_time_ns + rng.next_below(1000000);
      rates.queue_pkts = rng.next_below(64);
      std::string name;
      const KindSpec* spec = nullptr;
      int vm = -1;
      if (j < kNumShared) {
        spec = &kShared[j];
        name = "m" + std::to_string(a) + "/" + spec->suffix;
      } else {
        const int local_vm = (j - kNumShared) / kNumPerVm;
        spec = &kPerVm[(j - kNumShared) % kNumPerVm];
        vm = a * vms_per_agent + local_vm;
        name = vm_name(a, local_vm) + spec->suffix;
        if (a == lossy_agent && local_vm == lossy_local_vm &&
            spec->kind == ElementKind::kTun) {
          rates.drop_pkts = rates.rx_pkts / 10 + rng.next_below(100);
          lossy_id_ = ElementId{name};
          lossy_vm_ = vm;
          lossy_drop_ = static_cast<int64_t>(rates.drop_pkts);
        }
      }
      sources_.push_back(std::make_unique<SynthSource>(
          ElementId{name}, spec->channel, spec->kind, vm, rates));
      PS_CHECK(agent->add_element(sources_.back().get()).is_ok());
      ids_[a].push_back(ElementId{name});
    }
    std::sort(ids_[a].begin(), ids_[a].end());
  }
  PS_CHECK(lossy_vm_ >= 0);
}

std::vector<Agent*> Fleet::agents() const {
  std::vector<Agent*> out;
  for (const auto& a : agents_) out.push_back(a.get());
  return out;
}

void register_fleet(Controller& ctl, const std::vector<AgentClient*>& clients,
                    const Fleet& fleet) {
  for (size_t a = 0; a < clients.size(); ++a) {
    AgentClient* c = clients[a];
    ctl.register_agent(c);
    for (const ElementId& id : fleet.ids(static_cast<int>(a))) {
      ctl.register_stack_element(c, id);
    }
    const ElementId tenant_tun{vm_name(static_cast<int>(a), 0) + "tun"};
    PS_CHECK(ctl.register_element(kFleetTenant, tenant_tun, c).is_ok());
  }
}

bool fleet_verdict_ok(const ContentionReport& r, const Fleet& fleet) {
  return r.problem_found && !r.ranked.empty() &&
         r.ranked.front().id == fleet.lossy_id() &&
         r.ranked.front().loss_pkts == fleet.lossy_drop_per_window() &&
         (r.ranked.size() < 2 || r.ranked[1].loss_pkts == 0) &&
         r.primary_location == ElementKind::kTun &&
         r.spread == LossSpread::kSingleVm && !r.is_contention &&
         r.affected_vms == std::vector<int>{fleet.lossy_vm()} &&
         r.blind_spots.empty() && r.coverage == 1.0;
}

}  // namespace perfbench
