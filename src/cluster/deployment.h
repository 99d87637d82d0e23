// Deployment: wires PerfSight over a simulated cluster.
//
// One Agent per physical machine, one Controller for the operator, plus the
// tenant bookkeeping the controller needs (which elements belong to which
// tenant, which middleboxes form which chain).  The controller's
// "sleep(T)" is bound to the simulator, so Fig. 6's interval-based
// utilities advance simulated time.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "mbox/app.h"
#include "mbox/stream.h"
#include "perfsight/agent.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/metrics.h"
#include "perfsight/remote_agent.h"
#include "perfsight/rootcause.h"
#include "sim/simulator.h"
#include "vm/machine.h"

namespace perfsight::cluster {

class Deployment {
 public:
  // `poll_workers` sizes the collection pool that fans agent polling,
  // metrics scrapes and diagnosis sweeps out across threads.  The default
  // of 1 spawns no threads at all, preserving the exact sequential
  // behaviour (and simulated-time determinism) of existing scenarios;
  // wall-clock deployments pass ThreadPool::default_workers().
  explicit Deployment(sim::Simulator* sim, size_t poll_workers = 1)
      : sim_(sim),
        pool_(poll_workers),
        controller_(
            [sim](Duration d) {
              sim->run_for(d);
              return sim->now();
            },
            [sim] { return sim->now(); }) {
    metrics_.set_pool(&pool_);
    // Multi-element controller queries (get_attr_many and everything built
    // on it) scatter per-agent batches over the same collection pool.
    controller_.set_pool(&pool_);
    controller_.set_metrics(&metrics_);
  }

  sim::Simulator* simulator() { return sim_; }
  Controller* controller() { return &controller_; }

  // Deployment-wide metrics registry.  expose() scrapes the element stats of
  // every in-process agent added below; a remote adapter contributes only
  // its perfsight_transport_* counters (its elements are not scraped).
  MetricsRegistry* metrics() { return &metrics_; }

  Agent* add_agent(const std::string& name) {
    agents_.push_back(std::make_unique<Agent>(name));
    Agent* a = agents_.back().get();
    controller_.register_agent(a);
    metrics_.add_agent(a);
    // Agents added after fault config was set inherit it; until then the
    // deployment's values are the agent's own defaults.
    if (fault_plan_ != nullptr) a->set_fault_plan(fault_plan_);
    a->set_retry_policy(retry_);
    a->set_breaker_config(breaker_);
    return a;
  }

  // Registers a socket-backed agent: dials `endpoint_spec` (see
  // transport::Endpoint::parse — "tcp:<host>:<port>" or "unix:<path>"),
  // completes the hello handshake, and registers the adapter with the
  // controller.  The scatter-gather path then treats it exactly like an
  // in-process agent; transport loss degrades to kMissing blind spots.
  // The deployment-wide retry/breaker config drives its reconnect policy.
  // `agent_name` binds the adapter to that entry of the server's roster;
  // empty binds the first entry (the only agent of a single-agent server).
  Result<RemoteAgent*> add_remote_agent(const std::string& endpoint_spec,
                                        const std::string& agent_name = {}) {
    Result<transport::Endpoint> ep = transport::Endpoint::parse(endpoint_spec);
    if (!ep.ok()) return ep.status();
    Result<std::unique_ptr<RemoteAgent>> remote = dial(ep.value(), agent_name);
    if (!remote.ok()) return remote.status();
    return adopt(std::move(remote).take());
  }

  // Fleet form: dials `endpoint_spec` once unbound to learn the server's
  // roster, then binds one adapter per hosted agent (each with its own
  // connection into the server's event loop) and registers them all.
  // Returned pointers follow roster order.  Fails without registering
  // anything if any dial fails.
  Result<std::vector<RemoteAgent*>> add_remote_agents(
      const std::string& endpoint_spec) {
    Result<transport::Endpoint> ep = transport::Endpoint::parse(endpoint_spec);
    if (!ep.ok()) return ep.status();
    // A scout connection reads the roster off the hello; it binds the first
    // entry, so it is kept as that agent's adapter rather than redialed.
    Result<std::unique_ptr<RemoteAgent>> scout = dial(ep.value(), {});
    if (!scout.ok()) return scout.status();
    const std::vector<std::string> roster = scout.value()->roster_names();

    std::vector<std::unique_ptr<RemoteAgent>> pending;
    pending.push_back(std::move(scout).take());
    for (size_t i = 1; i < roster.size(); ++i) {
      Result<std::unique_ptr<RemoteAgent>> remote = dial(ep.value(), roster[i]);
      // Nothing registered yet: a failed dial is a clean failure.
      if (!remote.ok()) return remote.status();
      pending.push_back(std::move(remote).take());
    }

    std::vector<RemoteAgent*> out;
    out.reserve(pending.size());
    for (auto& remote : pending) out.push_back(adopt(std::move(remote)));
    return out;
  }

  // Maps a tenant's element to a socket-backed agent (the remote mirror of
  // assign()).
  Status assign_remote(TenantId tenant, const ElementId& id, RemoteAgent* r) {
    return controller_.register_element(tenant, id, r);
  }

  // --- fault tolerance (deployment-wide) ------------------------------------
  // Installs a fault plan / retry policy / breaker config on every agent,
  // current and future.  The plan is not owned unless it came from
  // use_env_fault_plan().
  void set_fault_plan(const FaultPlan* plan) {
    fault_plan_ = plan;
    for (auto& a : agents_) a->set_fault_plan(plan);
    // The exposition reports campaign state (perfsight_fault_campaign_active)
    // and per-agent breaker gauges while a plan is armed.
    metrics_.set_fault_plan(plan);
  }
  void set_retry_policy(RetryPolicy p) {
    retry_ = p;
    for (auto& a : agents_) a->set_retry_policy(p);
  }
  void set_breaker_config(CircuitBreakerConfig c) {
    breaker_ = c;
    for (auto& a : agents_) a->set_breaker_config(c);
  }
  // Adopts PERFSIGHT_FAULTS from the environment (CI fault matrix; scenario
  // binaries call this so operators can rerun any scenario under faults).
  // Returns true when a plan was installed.
  bool use_env_fault_plan() {
    env_plan_ = FaultPlan::from_env();
    if (!env_plan_.has_value()) return false;
    set_fault_plan(&env_plan_.value());
    return true;
  }

  // Aggregate view of one sweep's collection quality: how many responses
  // came back at each DataQuality level (scenarios print this so fault runs
  // are self-describing).
  struct SweepQuality {
    size_t fresh = 0;
    size_t replica = 0;  // served by a quorum read replica, not the primary
    size_t stale = 0;
    size_t torn = 0;
    size_t missing = 0;
    size_t total() const { return fresh + replica + stale + torn + missing; }
  };
  static SweepQuality summarize(
      const std::vector<std::vector<QueryResponse>>& sweep) {
    SweepQuality q;
    for (const auto& per_agent : sweep) {
      for (const QueryResponse& r : per_agent) {
        switch (r.quality) {
          case DataQuality::kFresh:
            ++q.fresh;
            break;
          case DataQuality::kReplica:
            ++q.replica;
            break;
          case DataQuality::kStale:
            ++q.stale;
            break;
          case DataQuality::kTorn:
            ++q.torn;
            break;
          case DataQuality::kMissing:
            ++q.missing;
            break;
        }
      }
    }
    return q;
  }

  // One cluster-wide poll sweep (the Fig. 16 workload at fleet scale):
  // every agent polls its elements, independent agents in parallel across
  // the collection pool.  Responses come back grouped by agent in
  // registration order — each agent's RNG is its own, so the result is
  // identical at any pool size.
  std::vector<std::vector<QueryResponse>> poll_sweep(SimTime now) {
    std::vector<std::vector<QueryResponse>> out(agents_.size());
    parallel_for_or_inline(&pool_, agents_.size(), [&](size_t i) {
      out[i] = agents_[i]->poll_all(now);
    });
    return out;
  }

  // Registers every element of a packet-path machine with `agent` and
  // declares its virtualization-stack elements to the controller.
  void attach(vm::PhysicalMachine* machine, Agent* agent) {
    for (const ElementId& id : machine->register_elements(agent)) {
      controller_.register_stack_element(agent, id);
    }
  }
  // Same for a stream machine.
  void attach(mbox::StreamMachine* machine, Agent* agent) {
    for (const ElementId& id : machine->register_elements(agent)) {
      controller_.register_stack_element(agent, id);
    }
  }

  // Tenant bookkeeping.
  Status assign(TenantId tenant, const ElementId& id, Agent* agent) {
    return controller_.register_element(tenant, id, agent);
  }
  // Declares a stream app a middlebox of `tenant` (node of its chain).
  Status add_middlebox(TenantId tenant, const mbox::StreamApp* app,
                       Agent* agent) {
    Status st = controller_.register_element(tenant, app->id(), agent);
    if (!st.is_ok()) return st;
    controller_.register_middlebox(tenant, app->id());
    return Status::ok();
  }
  void chain(TenantId tenant, const mbox::StreamApp* from,
             const mbox::StreamApp* to) {
    controller_.add_chain_edge(tenant, from->id(), to->id());
  }

 private:
  // Constructs a socket-backed adapter bound to `agent_name` ("" = the
  // first roster entry), applies the deployment's retry/breaker config and
  // dials it.
  Result<std::unique_ptr<RemoteAgent>> dial(const transport::Endpoint& ep,
                                            const std::string& agent_name) {
    auto remote = std::make_unique<RemoteAgent>(ep, agent_name);
    remote->set_retry_policy(retry_);
    remote->set_breaker_config(breaker_);
    Status st = remote->connect();
    if (!st.is_ok()) return st;
    return remote;
  }
  // Takes ownership of a connected adapter and registers it.
  RemoteAgent* adopt(std::unique_ptr<RemoteAgent> remote) {
    remote->set_metrics(&metrics_);
    RemoteAgent* r = remote.get();
    remote_agents_.push_back(std::move(remote));
    controller_.register_agent(r);
    return r;
  }

  sim::Simulator* sim_;
  ThreadPool pool_;
  Controller controller_;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<std::unique_ptr<RemoteAgent>> remote_agents_;
  // Fault config replayed onto agents added later.
  const FaultPlan* fault_plan_ = nullptr;
  std::optional<FaultPlan> env_plan_;
  RetryPolicy retry_;
  CircuitBreakerConfig breaker_;
};

}  // namespace perfsight::cluster
