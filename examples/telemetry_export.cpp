// Telemetry export: wiring PerfSight into a dashboard/log pipeline.
//
// Shows every machine-readable surface, end to end: (1) raw element records
// in the paper's wire format and in JSON, (2) time series collected by the
// Monitor, (3) a Prometheus-style metrics scrape covering element counters
// and PerfSight's own self-profiling, (4) an AlertWatcher rule firing on
// the drop-rate series and auto-running Algorithm 1, and (5) the flight
// recorder's Chrome-trace export of the whole episode (open it in
// chrome://tracing or ui.perfetto.dev).
#include <cstdio>

#include "cluster/deployment.h"
#include "perfsight/alert.h"
#include "perfsight/contention.h"
#include "perfsight/json_export.h"
#include "perfsight/metrics.h"
#include "perfsight/monitor.h"
#include "perfsight/remediation.h"
#include "perfsight/trace.h"
#include "sim/simulator.h"
#include "vm/machine.h"

using namespace perfsight;
using namespace perfsight::literals;

int main() {
  // Flight recorder on for the whole run: drops, queue watermarks, arbiter
  // shortfalls, alerts and diagnosis runs all land in per-element rings.
  ScopedTraceRecorder tracing;

  // A machine under memory contention (so there is something to report).
  sim::Simulator sim(Duration::millis(1));
  vm::PhysicalMachine machine("m0", dp::StackParams{}, &sim);
  cluster::Deployment dep(&sim);
  for (int i = 0; i < 2; ++i) {
    int v = machine.add_vm({"vm" + std::to_string(i), 1.0});
    machine.set_sink_app(v);
    FlowSpec f;
    f.id = FlowId{static_cast<uint32_t>(i + 1)};
    f.packet_size = 1500;
    machine.route_flow_to_vm(f, v);
    machine.add_ingress_source("s" + std::to_string(i), f,
                               DataRate::gbps(1.6));
  }
  machine.add_mem_hog("batch-job")->set_demand_bytes_per_sec(60e9);
  Agent* agent = dep.add_agent("agent-m0");
  dep.attach(&machine, agent);
  const TenantId tenant{1};
  PS_CHECK(dep.assign(tenant, machine.tun(0)->id(), agent).is_ok());

  // 1. Periodic sampling into time series.
  Monitor monitor(dep.controller(), tenant);
  monitor.watch(machine.tun(0)->id(), attr::kTxBytes);
  monitor.watch(machine.tun(0)->id(), attr::kDropPkts);
  for (int i = 0; i < 6; ++i) {
    sim.run_for(Duration::millis(500));
    monitor.sample();
  }

  // 2. Raw element records, both wire formats.
  const StatsRecord rec =
      dep.controller()
          ->get_attr_many(tenant, {machine.tun(0)->id()},
                          {attr::kRxPkts, attr::kTxPkts, attr::kDropPkts})[0]
          .value()
          .record;
  std::printf("paper record format:\n  %s\n", to_text(rec).c_str());
  std::printf("JSON:\n  %s\n\n", json::to_json(rec).c_str());

  // 3. Time series -> rates.
  Monitor::Series drops =
      monitor.rates(machine.tun(0)->id(), attr::kDropPkts);
  std::printf("vm0 TUN drop rate series (pkts/s):");
  for (const auto& p : drops.points) {
    std::printf(" [%.1fs: %.0f]", p.t.sec(), p.value);
  }
  std::printf("\n\n");

  // 4. Alerting: a rule on the drop-rate series auto-runs Algorithm 1 when
  // it breaches — one-shot diagnosis turned into continuous monitoring.
  ContentionDetector detector(dep.controller(), RuleBook::standard());
  detector.set_loss_threshold(100);
  detector.set_metrics(dep.metrics());  // self-profile diagnosis latency
  AlertWatcher watcher(&monitor, &detector, nullptr);
  AlertRule rule;
  rule.name = "tun-drop-rate";
  rule.element = machine.tun(0)->id();
  rule.attr = attr::kDropPkts;
  rule.threshold = 1000;  // pkts/s
  watcher.add_rule(rule);
  for (const Alert& alert : watcher.check(machine.aux_signals())) {
    std::printf("%s\n", to_text(alert).c_str());
    std::printf("alert diagnosis JSON:\n  %s\n\n",
                json::to_json(alert.contention).c_str());
    RemediationAdvisor advisor;
    std::printf("%s", to_text(advisor.advise(alert.contention)).c_str());
  }

  // 5. Metrics scrape: element counters via the agents, channel and
  // diagnosis latency histograms, flight-recorder health — one text
  // exposition for any Prometheus-compatible collector.
  std::string exposition = dep.metrics()->expose(sim.now());
  std::printf("\nmetrics exposition (%zu bytes), excerpt:\n",
              exposition.size());
  size_t shown = 0;
  for (size_t pos = 0; pos < exposition.size() && shown < 12;) {
    size_t eol = exposition.find('\n', pos);
    if (eol == std::string::npos) eol = exposition.size();
    std::printf("  %s\n", exposition.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++shown;
  }

  // 6. Flight-recorder export: the whole episode as Chrome-trace JSON.
  std::string trace = to_chrome_trace(tracing.recorder());
  PS_CHECK(json::lint(trace).is_ok());
  std::printf("\nchrome trace: %zu events, %zu bytes of JSON "
              "(load in chrome://tracing or ui.perfetto.dev)\n",
              tracing.recorder().events().size(), trace.size());
  std::printf("trace excerpt: %s...\n", trace.substr(0, 200).c_str());
  return 0;
}
