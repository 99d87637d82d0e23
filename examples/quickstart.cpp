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

  // Fig. 6 utility routines.  Each takes two samples one window apart;
  // "sleeping" advances simulated time.
  const Duration window = Duration::seconds(1.0);
  auto tput = controller->get_throughput(tenant, machine.tun(web_vm)->id(),
                                         window);
  auto loss = controller->get_pkt_loss(tenant, machine.tun(web_vm)->id(),
                                       window);
  auto size = controller->get_avg_pkt_size(tenant, machine.tun(db_vm)->id(),
                                           window);
  std::printf("\nweb TUN throughput: %s\n", to_string(tput.value()).c_str());
  std::printf("web TUN packet loss over the window: %lld packets\n",
              static_cast<long long>(loss.value()));
  std::printf("db TUN average packet size: %.0f bytes\n", size.value());

  // Raw records in the paper's unified wire format.
  auto rec = controller->get_attr(
      tenant, machine.tun(web_vm)->id(),
      {attr::kRxPkts, attr::kTxPkts, attr::kDropPkts, attr::kQueuePkts});
  std::printf("\nraw record: %s\n", to_text(rec.value()).c_str());
  return 0;
}
