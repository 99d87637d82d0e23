// Controller scatter-gather scaling over the Deployment pool.
//
// A multi-element controller query (get_attr_many and every measurement
// window built on it) groups elements by owning agent, issues one
// Agent::query_batch per agent, and fans the agents over the deployment's
// collection pool.  The per-element cost that matters in a real dataplane
// is channel latency (Fig. 9: ~2 ms net_device reads, hundreds of
// microseconds elsewhere); those waits are independent across agents, so
// the scatter overlaps them and the query wall time drops with workers
// until the largest per-agent batch dominates.
//
// Gates: >= 2x wall-clock speedup at 4 workers for a 64-element sweep,
// byte-identical records between the sequential oracle (one get_attr_many
// batch of one per element) and the pooled batch path, and a strictly
// smaller modelled channel bill for the batch path (one round trip per
// channel kind per agent instead of one per element).  BASELINE also pins
// the has_element probes a sweep of registered stack elements costs the
// controller: 0.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/deployment.h"
#include "perfsight/agent.h"
#include "perfsight/controller.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"
#include "sim/simulator.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

constexpr size_t kAgents = 8;
constexpr size_t kElementsPerAgent = 8;  // 64-element sweep
constexpr int kSweepsPerConfig = 16;
// Stand-in for the per-element channel round trip (Fig. 9 territory).
constexpr auto kChannelRtt = std::chrono::microseconds(150);
const TenantId kTenant{1};

// Counters arrive as /proc-style text: collect() waits out the channel RTT,
// then parses the blob it "read".
class ProcTextSource : public StatsSource {
 public:
  ProcTextSource(ElementId id, uint64_t seed) : id_(std::move(id)) {
    blob_ = " rx_packets: " + std::to_string(1000000 + seed * 17) +
            "\n rx_bytes: " + std::to_string(1500000000ull + seed * 1313) +
            "\n tx_packets: " + std::to_string(900000 + seed * 11) +
            "\n drop: " + std::to_string(seed % 7) + "\n";
  }

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kProcFs; }

  StatsRecord collect(SimTime now) const override {
    std::this_thread::sleep_for(kChannelRtt);  // channel round trip
    StatsRecord r;
    r.element = id_;
    r.timestamp = now;
    size_t pos = 0;
    while (pos < blob_.size()) {
      size_t colon = blob_.find(':', pos);
      size_t eol = blob_.find('\n', pos);
      if (colon == std::string::npos || eol == std::string::npos) break;
      std::string key = blob_.substr(pos, colon - pos);
      while (!key.empty() && key.front() == ' ') key.erase(key.begin());
      uint64_t value = std::stoull(blob_.substr(colon + 1, eol - colon - 1));
      r.attrs.push_back(Attr{key, static_cast<double>(value)});
      pos = eol + 1;
    }
    return r;
  }

 private:
  ElementId id_;
  std::string blob_;
};

struct Fleet {
  sim::Simulator sim{Duration::millis(1)};
  cluster::Deployment dep;
  std::vector<std::unique_ptr<ProcTextSource>> sources;
  std::vector<ElementId> ids;

  explicit Fleet(size_t pool_workers) : dep(&sim, pool_workers) {
    for (size_t a = 0; a < kAgents; ++a) {
      Agent* agent = dep.add_agent("host" + std::to_string(a));
      for (size_t e = 0; e < kElementsPerAgent; ++e) {
        sources.push_back(std::make_unique<ProcTextSource>(
            ElementId{"host" + std::to_string(a) + "/eth" + std::to_string(e)},
            a * kElementsPerAgent + e));
        PS_CHECK(agent->add_element(sources.back().get()).is_ok());
        PS_CHECK(
            dep.assign(kTenant, sources.back()->id(), agent).is_ok());
        ids.push_back(sources.back()->id());
      }
    }
  }
};

const std::vector<std::string> kAttrs = {"rx_packets", "rx_bytes",
                                         "tx_packets", "drop"};

// Forwards to an agent and counts the has_element probes it is asked.
class ProbeCounter : public AgentClient {
 public:
  explicit ProbeCounter(AgentClient* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  bool has_element(const ElementId& id) const override {
    ++probes;
    return inner_->has_element(id);
  }
  std::vector<ElementId> element_ids() const override {
    return inner_->element_ids();
  }
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool) override {
    return inner_->query_batch(ids, now, pool);
  }

  mutable size_t probes = 0;

 private:
  AgentClient* inner_;
};

// One sweep of Algorithm 1's scan set over kStackAgents agents, each with
// kElementsPerAgent registered stack elements and one tenant element: how
// many records it read and how many has_element probes the controller
// asked to route them.  A registered element needs no probe.
constexpr size_t kStackAgents = 4;
struct StackSweep {
  size_t records = 0;
  size_t probes = 0;
};
StackSweep stack_sweep() {
  Controller ctl([](Duration) { return SimTime(); }, [] { return SimTime(); });
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<ProbeCounter>> clients;
  std::vector<std::unique_ptr<ProcTextSource>> sources;
  for (size_t a = 0; a < kStackAgents; ++a) {
    const std::string host = "host" + std::to_string(a);
    agents.push_back(std::make_unique<Agent>(host, a + 1));
    clients.push_back(std::make_unique<ProbeCounter>(agents.back().get()));
    ProbeCounter* client = clients.back().get();
    ctl.register_agent(client);
    for (size_t e = 0; e <= kElementsPerAgent; ++e) {
      const bool tenant = e == kElementsPerAgent;
      sources.push_back(std::make_unique<ProcTextSource>(
          ElementId{host + (tenant ? "/vm0" : "/eth" + std::to_string(e))},
          a * kElementsPerAgent + e));
      const ElementId id = sources.back()->id();
      PS_CHECK(agents.back()->add_element(sources.back().get()).is_ok());
      if (tenant) {
        PS_CHECK(ctl.register_element(kTenant, id, client).is_ok());
      } else {
        ctl.register_stack_element(client, id);
      }
    }
  }
  for (auto& c : clients) c->probes = 0;
  const std::vector<ElementId> scan = ctl.stack_elements_for(kTenant);
  for (const auto& r : ctl.get_attr_many(kTenant, scan, kAttrs)) {
    PS_CHECK(r.ok());
  }
  StackSweep out{scan.size(), 0};
  for (auto& c : clients) out.probes += c->probes;
  return out;
}

// Wall time of kSweepsPerConfig 64-element queries, plus the concatenated
// wire encoding of the last sweep's records (for the determinism check).
// With `per_id` each sweep is the sequential oracle: one get_attr_many
// batch of one per element, in input order.
double sweep_seconds(Fleet& fleet, std::string* wire_out, bool per_id) {
  Controller* c = fleet.dep.controller();
  auto start = std::chrono::steady_clock::now();
  for (int s = 0; s < kSweepsPerConfig; ++s) {
    std::vector<Result<Controller::QualifiedRecord>> got;
    if (per_id) {
      for (const ElementId& id : fleet.ids) {
        got.push_back(c->get_attr_many(kTenant, {id}, kAttrs).front());
      }
    } else {
      got = c->get_attr_many(kTenant, fleet.ids, kAttrs);
    }
    if (s == kSweepsPerConfig - 1 && wire_out != nullptr) {
      for (const auto& r : got) {
        PS_CHECK(r.ok());
        *wire_out += to_text(r.value().record);
        *wire_out += '|';
      }
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  heading("Controller scatter-gather over the deployment pool",
          "PerfSight (IMC'15) Sec. 5 GetAttr fan-in, batched per agent");
  Reporter report("controller_scatter");
  note("%zu agents x %zu elements, %d sweeps per config", kAgents,
       kElementsPerAgent, kSweepsPerConfig);
  note("per-element cost: %lld us channel RTT + /proc text parse",
       static_cast<long long>(kChannelRtt.count()));

  // Sequential oracle: the per-element batch-of-one loop.
  std::string wire_seq;
  Controller::CostSnapshot seq_cost;
  {
    Fleet fleet(1);
    double s = sweep_seconds(fleet, &wire_seq, /*per_id=*/true);
    seq_cost = fleet.dep.controller()->cost();
    row({"oracle", fmt("%.2f", s * 1e3 / kSweepsPerConfig), "-"});
  }

  row({"workers", "sweep(ms)", "speedup"});
  double base_s = 0;
  double speedup_at_4 = 0;
  std::string wire_par;
  Controller::CostSnapshot batch_cost;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    Fleet fleet(workers);
    std::string* wire = workers == 4 ? &wire_par : nullptr;
    double s = sweep_seconds(fleet, wire, /*per_id=*/false);
    if (workers == 1) base_s = s;
    if (workers == 4) {
      speedup_at_4 = base_s / s;
      batch_cost = fleet.dep.controller()->cost();
    }
    row({fmt("%.0f", static_cast<double>(workers)),
         fmt("%.2f", s * 1e3 / kSweepsPerConfig),
         fmt("%.2fx", base_s / s)});
  }

  note("modelled channel bill per %d sweeps: sequential %.2f ms, "
       "batched %.2f ms (one round trip per channel kind per agent)",
       kSweepsPerConfig, seq_cost.channel_time.ns() / 1e6,
       batch_cost.channel_time.ns() / 1e6);

  // Modelled channel bills and the wire rendering are deterministic; the
  // wall-clock speedup is the runner's business.
  report.gate("batched_channel_ms",
              static_cast<double>(batch_cost.channel_time.ns()) / 1e6);
  report.gate("sequential_channel_ms",
              static_cast<double>(seq_cost.channel_time.ns()) / 1e6);
  report.gate("wire_bytes", static_cast<double>(wire_seq.size()));
  report.info("speedup_at_4", speedup_at_4);

  // Routing a registered stack element is a registry lookup, not a probe
  // of every agent in turn.
  const StackSweep sweep = stack_sweep();
  note("registered-stack sweep: %zu records, %zu has_element probes",
       sweep.records, sweep.probes);
  report.gate("stack_sweep_has_element_calls",
              static_cast<double>(sweep.probes));

  shape_check(speedup_at_4 >= 2.0,
              "64-element query >= 2x faster with 4 workers than 1");
  shape_check(!wire_seq.empty() && wire_seq == wire_par,
              "pooled batch records byte-identical to sequential oracle");
  shape_check(sweep.records == kStackAgents * kElementsPerAgent,
              "the registered-stack sweep reads every stack element");
  shape_check(batch_cost.queries == seq_cost.queries &&
                  batch_cost.channel_time.ns() < seq_cost.channel_time.ns(),
              "batching amortises the modelled channel time");
  return 0;
}
