// Quickstart: build a one-machine software dataplane, attach PerfSight,
// and ask the basic monitoring questions of Fig. 6 — throughput, packet
// loss, average packet size — through the controller API.
//
//   $ ./quickstart
//
// Walks through: (1) constructing a PhysicalMachine with two VMs, (2)
// routing an ingress flow to each, (3) wiring agents + controller, (4)
// running the simulation while querying element statistics.
#include <cstdio>

#include "cluster/deployment.h"
#include "sim/simulator.h"
#include "vm/machine.h"

using namespace perfsight;
using namespace perfsight::literals;

int main() {
  // --- 1. the software dataplane -----------------------------------------
  sim::Simulator sim(Duration::millis(1));
  vm::PhysicalMachine machine("m0", dp::StackParams{}, &sim);

  int web_vm = machine.add_vm({"web", 1.0});
  int db_vm = machine.add_vm({"db", 1.0});
  machine.set_sink_app(web_vm);
  machine.set_sink_app(db_vm);

  // --- 2. tenant traffic ---------------------------------------------------
  FlowSpec to_web;
  to_web.id = FlowId{1};
  to_web.label = "internet->web";
  to_web.packet_size = 1500;
  machine.route_flow_to_vm(to_web, web_vm);
  machine.add_ingress_source("web-traffic", to_web, 800_mbps);

  FlowSpec to_db;
  to_db.id = FlowId{2};
  to_db.label = "web->db";
  to_db.packet_size = 512;
  machine.route_flow_to_vm(to_db, db_vm);
  machine.add_ingress_source("db-traffic", to_db, 200_mbps);

  // --- 3. PerfSight ----------------------------------------------------------
  cluster::Deployment deployment(&sim);
  Agent* agent = deployment.add_agent("agent-m0");
  deployment.attach(&machine, agent);
  const TenantId tenant{1};
  PS_CHECK(deployment.assign(tenant, machine.tun(web_vm)->id(), agent).is_ok());
  PS_CHECK(deployment.assign(tenant, machine.tun(db_vm)->id(), agent).is_ok());
  Controller* controller = deployment.controller();

  // --- 4. monitor -------------------------------------------------------------
  sim.run_for(Duration::seconds(1.0));  // warm up

  std::printf("elements on %s:\n", agent->name().c_str());
  for (const ElementId& id : agent->element_ids()) {
    std::printf("  %s\n", id.name.c_str());
  }

  // Fig. 6 utility routines: each reduces one window of two samples taken
  // one window apart; "sleeping" advances simulated time.
  const Duration window = Duration::seconds(1.0);
  const ElementId web = machine.tun(web_vm)->id();
  const ElementId db = machine.tun(db_vm)->id();
  const auto tput =
      controller->sample_window(tenant, {web}, kThroughputAttrs, window)[0];
  const auto loss =
      controller->sample_window(tenant, {web}, kLossAttrs, window)[0];
  const auto size =
      controller->sample_window(tenant, {db}, kAvgPktSizeAttrs, window)[0];
  PS_CHECK(tput.ok() && loss.ok() && size.ok());
  std::printf("\nweb TUN throughput: %s\n",
              to_string(throughput(tput)).c_str());
  std::printf("web TUN packet loss over the window: %lld packets\n",
              static_cast<long long>(pkt_loss(loss)));
  std::printf("db TUN average packet size: %.0f bytes\n", avg_pkt_size(size));

  // Raw records in the paper's unified wire format (GETATTR).
  auto rec = controller->get_attr_many(
      tenant, {web},
      {attr::kRxPkts, attr::kTxPkts, attr::kDropPkts, attr::kQueuePkts})[0];
  std::printf("\nraw record: %s\n", to_text(rec.value().record).c_str());
  return 0;
}
