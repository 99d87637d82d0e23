// Reusable scenario builders for the paper's evaluation setups.  Benches
// and integration tests share these so the topology under test is identical
// in both.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/deployment.h"
#include "mbox/presets.h"

namespace perfsight::cluster {

// --- Fig. 12: multi-chain propagation ---------------------------------------
//
//   client -> LB -> CF1 -> server1      CF1 --+
//                -> CF2 -> server2      CF2 --+-> NFS (shared log store)
//
// All vNICs 100 Mbps; the measured datapath is the branch through CF1.
class PropagationScenario {
 public:
  enum class Case {
    kHealthy,            // nothing injected
    kOverloadedServer,   // fast client, server1 service-limited (Fig. 12b)
    kUnderloadedClient,  // client uploads slowly (Fig. 12c)
    kBuggyNfs,           // NFS memory leak degrades its service (Fig. 12d)
  };

  explicit PropagationScenario(Case c);

  // Runs warm-up so states settle before diagnosis.
  void settle(Duration d = Duration::seconds(2.0)) { sim_.run_for(d); }

  RootCauseReport diagnose(Duration window = Duration::seconds(1.0)) {
    RootCauseAnalyzer analyzer(deployment_->controller());
    return analyzer.analyze(kTenant, window);
  }

  static constexpr TenantId kTenant{1};

  sim::Simulator& sim() { return sim_; }
  Deployment& deployment() { return *deployment_; }
  mbox::StreamMachine& machine() { return *machine_; }

  mbox::StreamApp* client = nullptr;
  mbox::StreamApp* lb = nullptr;
  mbox::StreamApp* cf1 = nullptr;
  mbox::StreamApp* cf2 = nullptr;
  mbox::StreamApp* nfs = nullptr;
  mbox::StreamApp* server1 = nullptr;
  mbox::StreamApp* server2 = nullptr;

 private:
  sim::Simulator sim_;
  std::unique_ptr<mbox::StreamMachine> machine_;
  std::unique_ptr<Deployment> deployment_;
};

// --- Fig. 13/14: multi-tenant operator workflow -------------------------------
//
// Two tenants, each client -> LB -> server; both LBs placed on one physical
// machine.  Tenant 1 offers 180 Mbps; tenant 2 offers 360 Mbps but its LB
// can only process 200 Mbps.  The operator then (a) suffers a memory-
// intensive management task on the LB machine, (b) migrates it away, and
// (c) scales tenant 2's LB out to a second instance.
class MultiTenantScenario {
 public:
  MultiTenantScenario();

  // Operator actions (scheduled by benches at Fig. 13's phase boundaries).
  void start_management_task(double bytes_per_sec = 24e9);
  void stop_management_task();
  void scale_out_tenant2();

  // Tenant goodput over the last sampling interval.
  DataRate tenant1_throughput(Duration dt);
  DataRate tenant2_throughput(Duration dt);

  static constexpr TenantId kTenant1{1};
  static constexpr TenantId kTenant2{2};

  sim::Simulator& sim() { return sim_; }
  Deployment& deployment() { return *deployment_; }
  mbox::StreamMachine& lb_machine() { return *lb_machine_; }
  mbox::StreamMachine& edge_machine() { return *edge_machine_; }

  mbox::StreamApp* client1 = nullptr;
  mbox::StreamApp* lb1 = nullptr;
  mbox::StreamApp* server1 = nullptr;
  mbox::StreamApp* client2 = nullptr;
  mbox::StreamApp* lb2 = nullptr;
  mbox::StreamApp* lb2b = nullptr;  // scale-out instance (idle until used)
  mbox::StreamApp* server2 = nullptr;
  mbox::StreamVm* lb1_vm = nullptr;
  mbox::StreamVm* lb2_vm = nullptr;

 private:
  sim::Simulator sim_;
  std::unique_ptr<mbox::StreamMachine> edge_machine_;  // clients + servers
  std::unique_ptr<mbox::StreamMachine> lb_machine_;
  std::unique_ptr<Deployment> deployment_;
  vm::MemHog* mgmt_task_ = nullptr;
  mbox::StreamConn* t1_server_conn_ = nullptr;
  mbox::StreamConn* t2_server_conn_ = nullptr;
  mbox::StreamConn* t2_server_conn_b_ = nullptr;
  uint64_t t1_last_ = 0;
  uint64_t t2_last_ = 0;
};

// --- Fig. 8: timeline of injected problems on one packet-path machine ---------
//
// 8 VMs (2 middlebox forwarders, 6 tenant VMs).  Long-lived flows traverse
// the middlebox VMs; over time the scenario injects: an rx flood (10-20 s),
// an egress small-packet flood (30-40 s), tenant CPU hogs (50-60 s), tenant
// memory hogs (70-80 s), and a CPU hog inside one middlebox VM (90-100 s).
class Fig8Scenario {
 public:
  Fig8Scenario();

  // Schedules all phases on the simulator (phase length `phase`).
  void schedule_phases(Duration phase = Duration::seconds(10.0));

  sim::Simulator& sim() { return sim_; }
  Deployment& deployment() { return *deployment_; }
  vm::PhysicalMachine& machine() { return *machine_; }

  static constexpr TenantId kTenant{1};
  static constexpr int kNumMb = 2;

  // Middlebox VM indices [0, kNumMb); tenant VMs fill the rest.
  int mb_vm(int i) const { return i; }
  // Aggregate middlebox goodput since the last call.
  DataRate mb_throughput(Duration dt);

 private:
  sim::Simulator sim_;
  std::unique_ptr<vm::PhysicalMachine> machine_;
  std::unique_ptr<Deployment> deployment_;
  std::vector<vm::IngressSource*> mb_sources_;
  vm::IngressSource* flood_source_ = nullptr;
  dp::SourceApp* egress_flood_ = nullptr;
  std::vector<vm::CpuHog*> tenant_cpu_hogs_;
  std::vector<vm::MemHog*> tenant_mem_hogs_;
  vm::CpuHog* mb_internal_hog_ = nullptr;
  uint64_t mb_bytes_last_ = 0;
};

}  // namespace perfsight::cluster
