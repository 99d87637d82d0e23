// Remote agents over a real socket: the controller side of PerfSight talking
// to a per-server fleet stub through the PSB2/PSM2 wire protocol.
//
// One process plays both roles for the demo: two Agents — the machine's edge
// dataplane and its middlebox chain — share a single RemoteAgentServer on a
// unix-domain socket.  The server is one poll() event loop, so both agents
// (and any number of controllers) multiplex through one serve thread; the
// hello handshake advertises the roster, and Deployment::add_remote_agents
// dials once and binds one adapter per fleet member.  After that the
// controller cannot tell either apart from an in-process agent.  The second
// half darkens one element's channel on the agents' machine to show the
// degradation contract across the socket: the lost read comes back as a
// kMissing blind spot ("unavailable after 1 attempt(s)"), never as silent
// absence.  (tests/transport_test.cc tears, corrupts and drops replies on
// the wire itself, through a relay.)  The finale turns on fleet tracing: a
// traced query scatters with a trace context on the envelope, each agent's
// serve spans come back on its replies under its own process lane, and the
// merged Chrome trace lands in a file you can open at ui.perfetto.dev.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "cluster/deployment.h"
#include "perfsight/agent.h"
#include "perfsight/faults.h"
#include "perfsight/remote_agent.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"
#include "perfsight/trace.h"
#include "perfsight/transport.h"
#include "sim/simulator.h"

using namespace perfsight;

namespace {

class ConstSource : public StatsSource {
 public:
  ConstSource(ElementId id, double rx, double drop) : id_(std::move(id)) {
    attrs_ = {{attr::kRxPkts, rx},
              {attr::kTxPkts, rx * 0.97},
              {attr::kDropPkts, drop}};
  }
  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kProcFs; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.element = id_;
    r.timestamp = now;
    r.attrs = attrs_;
    return r;
  }

 private:
  ElementId id_;
  std::vector<Attr> attrs_;
};

}  // namespace

int main() {
  // --- the agents' machine: two agents, one serve loop ---------------------
  Agent edge("edge-0", /*seed=*/1);
  ConstSource tun{ElementId{"edge-0/vm0/tun"}, 125000, 40};
  ConstSource vnic{ElementId{"edge-0/vm0/vnic"}, 124960, 0};
  ConstSource pnic{ElementId{"edge-0/pnic"}, 250000, 2};
  for (ConstSource* s : {&tun, &vnic, &pnic}) {
    PS_CHECK(edge.add_element(s).is_ok());
  }

  Agent chain("chain-0", /*seed=*/2);
  ConstSource lb{ElementId{"chain-0/lb"}, 80000, 0};
  ConstSource nfs{ElementId{"chain-0/nfs"}, 79800, 120};
  for (ConstSource* s : {&lb, &nfs}) {
    PS_CHECK(chain.add_element(s).is_ok());
  }

  const std::string sock_path =
      "/tmp/perfsight-remote-agent-" + std::to_string(::getpid()) + ".sock";
  RemoteAgentServer server({&edge, &chain},
                           transport::Endpoint::unix_path(sock_path));
  PS_CHECK(server.start().is_ok());
  std::printf("fleet of 2 agents (%zu + %zu elements) serving on %s\n",
              edge.element_ids().size(), chain.element_ids().size(),
              server.endpoint().to_string().c_str());

  // --- the operator's controller: one dial binds the whole roster ----------
  sim::Simulator sim(Duration::millis(1));
  cluster::Deployment dep(&sim);
  Result<std::vector<RemoteAgent*>> fleet =
      dep.add_remote_agents(server.endpoint().to_string());
  PS_CHECK(fleet.ok());
  RemoteAgent* redge = fleet.value()[0];   // roster order = server order
  RemoteAgent* rchain = fleet.value()[1];
  std::printf("roster bound: '%s' and '%s'\n", redge->name().c_str(),
              rchain->name().c_str());

  const TenantId tenant{1};
  std::vector<ElementId> all_ids;
  for (ConstSource* s : {&tun, &vnic, &pnic}) {
    PS_CHECK(dep.assign_remote(tenant, s->id(), redge).is_ok());
    all_ids.push_back(s->id());
  }
  for (ConstSource* s : {&lb, &nfs}) {
    PS_CHECK(dep.assign_remote(tenant, s->id(), rchain).is_ok());
    all_ids.push_back(s->id());
  }

  // One scatter fans over both agents; both batches multiplex through the
  // same socket endpoint and the same serve thread.
  std::printf("\nGetAttr fan-in across the fleet:\n");
  for (const auto& r : dep.controller()->get_attr_many(
           tenant, all_ids, {attr::kRxPkts, attr::kDropPkts})) {
    if (r.ok()) {
      std::printf("  %s\n", to_text(r.value().record).c_str());
    } else {
      std::printf("  error: %s\n", r.status().message().c_str());
    }
  }

  // --- a dark channel: the lost read becomes a blind spot ------------------
  // The tun's channel fails every attempt on the agents' machine; the
  // failure crosses the wire as payload.
  FaultPlan dark(1);
  ChannelFaultSpec always;
  always.transient_p = 1.0;
  dark.set_element_faults(tun.id(), always);
  edge.set_fault_plan(&dark);

  std::printf("\nsame query with the tun's channel dark:\n");
  for (const auto& r : dep.controller()->get_attr_many(
           tenant, all_ids, {attr::kRxPkts, attr::kDropPkts})) {
    if (r.ok()) {
      std::printf("  %s\n", to_text(r.value().record).c_str());
    } else {
      std::printf("  blind spot: %s\n", r.status().message().c_str());
    }
  }
  edge.set_fault_plan(nullptr);

  RemoteAgent::TransportStats stats = redge->transport_stats();
  std::printf(
      "\ntransport (edge-0 adapter): %llu connects, %llu reconnects, "
      "%llu batches, %llu damaged\n",
      static_cast<unsigned long long>(stats.connects),
      static_cast<unsigned long long>(stats.reconnects),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.damaged));

  // --- fleet tracing: one traced scatter, merged across processes ----------
  // Installing a recorder flips tracing on; the next query carries a trace
  // context over the wire, each agent's serve spans piggyback on its own
  // replies (lanes keyed by agent name), and an explicit harvest drains
  // whatever is left in the server's rings.
  {
    ScopedTraceRecorder scoped;
    for (const auto& r : dep.controller()->get_attr_many(
             tenant, all_ids, {attr::kRxPkts, attr::kDropPkts})) {
      PS_CHECK(r.ok());
    }
    PS_CHECK(redge->harvest_trace().is_ok());

    TraceRecorder& rec = scoped.recorder();
    size_t serve_spans = 0;
    for (const auto& lane : rec.remote_lanes()) {
      for (const TraceEvent& e : lane.events) {
        if (e.is_span()) ++serve_spans;
      }
    }
    std::printf(
        "\nfleet tracing: %zu local events, %zu remote lane(s), "
        "%zu remote span(s), clock offset %+lld ns\n",
        rec.events().size(), rec.num_remote_lanes(), serve_spans,
        static_cast<long long>(redge->clock_offset_ns()));

    const std::string path = "/tmp/perfsight-fleet-trace-" +
                             std::to_string(::getpid()) + ".json";
    std::ofstream out(path);
    out << to_chrome_trace(rec);
    PS_CHECK(out.good());
    std::printf("merged Chrome trace written to %s (ui.perfetto.dev)\n",
                path.c_str());
  }
  return 0;
}
