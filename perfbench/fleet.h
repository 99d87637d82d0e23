// The synthetic fleet shared by pull_fleet and push_stream: 4 agents, each
// serving 1024 twelve-attr elements whose counters advance by integral
// amounts every 100 ms window.  Exactly one per-VM element drops packets;
// the seed picks which one, every element's rates, and the agent RNG seeds.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "perfsight/agent.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"

namespace perfbench {

inline constexpr int kFleetAgents = 4;
inline constexpr int kElementsPerAgent = 1024;
inline constexpr perfsight::Duration kFleetWindow =
    perfsight::Duration::millis(100);
inline constexpr perfsight::TenantId kFleetTenant{1};

// Counter rates of one synthetic element, per window.  Every counter is
// `rate * window_index`, so consecutive windows differ by exact integers.
struct ElementRates {
  uint64_t rx_pkts = 0;
  uint64_t drop_pkts = 0;  // nonzero only for the lossy element
  uint64_t pkt_bytes = 0;
  uint64_t in_time_ns = 0;
  uint64_t out_time_ns = 0;
  uint64_t queue_pkts = 0;  // a gauge: constant
};

class SynthSource : public perfsight::StatsSource {
 public:
  SynthSource(perfsight::ElementId id, perfsight::ChannelKind channel,
              perfsight::ElementKind kind, int vm, ElementRates rates)
      : id_(std::move(id)), channel_(channel), kind_(kind), vm_(vm),
        rates_(rates) {}

  perfsight::ElementId id() const override { return id_; }
  perfsight::ChannelKind channel_kind() const override { return channel_; }
  perfsight::StatsRecord collect(perfsight::SimTime now) const override;

 private:
  perfsight::ElementId id_;
  perfsight::ChannelKind channel_;
  perfsight::ElementKind kind_;
  int vm_;
  ElementRates rates_;
};

class Fleet {
 public:
  explicit Fleet(uint64_t seed);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::vector<perfsight::Agent*> agents() const;
  // Agent a's element ids, ascending.
  const std::vector<perfsight::ElementId>& ids(int a) const { return ids_[a]; }

  const perfsight::ElementId& lossy_id() const { return lossy_id_; }
  int lossy_vm() const { return lossy_vm_; }
  int64_t lossy_drop_per_window() const { return lossy_drop_; }

 private:
  std::vector<std::unique_ptr<SynthSource>> sources_;
  std::vector<std::unique_ptr<perfsight::Agent>> agents_;
  std::vector<std::vector<perfsight::ElementId>> ids_;
  perfsight::ElementId lossy_id_;
  int lossy_vm_ = -1;
  int64_t lossy_drop_ = 0;
};

// Registers `clients` (one per fleet agent, same order) with `ctl`: every
// element is a stack element of its agent, and each agent's first TUN
// belongs to kFleetTenant, so Algorithm 1 scans all 4096 elements.
void register_fleet(perfsight::Controller& ctl,
                    const std::vector<perfsight::AgentClient*>& clients,
                    const Fleet& fleet);

// The verdict oracle: the seeded lossy element ranks first with exactly its
// per-window loss, the spread is one VM (a bottleneck, not contention), and
// every element was measured.
bool fleet_verdict_ok(const perfsight::ContentionReport& r, const Fleet& fleet);

}  // namespace perfbench
