// Frozen transcript of the diagnosis applications.  One seeded fault
// campaign (transient, stale and torn reads plus an outage of the machine's
// agent; no element budget, so no verdict depends on channel jitter) runs
// under:
//   * a Fig. 8 timeline (eleven 2 s phases) with a Monitor sampling the drop
//     counters, an AlertWatcher auto-running Algorithm 1 on breaches, and a
//     manual Algorithm 1 run in every phase;
//   * Algorithm 2 over the four PropagationScenario cases;
// and the bottleneck-middlebox detector runs fault-free over a mixed
// population.  The transcript records verdict fields only: each report's
// to_text, its coverage and blind spots, the Monitor series and every
// alert firing.  Any rewrite of the diagnosis layer must reproduce it byte
// for byte.  The campaign is built here, so PERFSIGHT_FAULTS (the CI fault
// matrix) does not reach it.
//
// Regenerate only for an intended behaviour change, and say why in the
// change description:
//   PERFSIGHT_UPDATE_GOLDEN=1 ./build/tests/diagnosis_golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenarios.h"
#include "perfsight/alert.h"
#include "perfsight/bottleneck.h"
#include "perfsight/contention.h"
#include "perfsight/faults.h"
#include "perfsight/monitor.h"
#include "perfsight/rootcause.h"

namespace perfsight {
namespace {

using namespace literals;

constexpr Duration kPhase = Duration::seconds(2.0);
constexpr int kPhases = 11;
constexpr Duration kTick = Duration::millis(250);
constexpr int kTicksPerPhase = 5;
constexpr Duration kAlgo1At = Duration::millis(1400);
constexpr Duration kAlgo1Window = Duration::millis(500);

// The agent of every scenario below is "agent-m0".  The outage darkens two
// Monitor ticks of phase 6 and no diagnosis sweep.
const char* const kCampaign =
    "seed=18,transient=0.04,stale=0.03,torn=0.03,outage=agent-m0@12400-12800";

FaultPlan campaign() {
  std::optional<FaultPlan> plan = FaultPlan::parse(kCampaign);
  PS_CHECK(plan.has_value());
  return *plan;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Spots>
std::string quality_line(double coverage, const Spots& spots) {
  std::string out = "coverage=" + num(coverage) + " blind=[";
  for (size_t i = 0; i < spots.size(); ++i) {
    if (i > 0) out += " ";
    out += spots[i].id.name + ":" + to_string(spots[i].quality);
  }
  return out + "]\n";
}

// Every diagnosis in the transcript measured something: a fully dark scan
// would pin the all-dark rule rather than the verdicts.
void expect_not_dark(double coverage, const std::string& what) {
  EXPECT_GT(coverage, 0.0) << what << " scanned nothing";
}

void run_until(sim::Simulator& sim, SimTime t) {
  if (sim.now() < t) sim.run_until(t);
}

std::string fig8_transcript() {
  cluster::Fig8Scenario s;
  s.schedule_phases(kPhase);
  const FaultPlan plan = campaign();
  cluster::Deployment& dep = s.deployment();
  dep.set_fault_plan(&plan);
  RetryPolicy retry;
  retry.max_attempts = 2;
  dep.set_retry_policy(retry);

  // Algorithm 1 scans the stack of every machine hosting a tenant element;
  // the scenario assigns none, so the VMs' TUNs are the tenant's.
  vm::PhysicalMachine& m = s.machine();
  Controller* ctl = dep.controller();
  AgentClient* agent = ctl->agents().front();
  for (int i = 0; i < m.num_vms(); ++i) {
    PS_CHECK(ctl->register_element(cluster::Fig8Scenario::kTenant,
                                   m.tun(i)->id(), agent)
                 .is_ok());
  }

  ContentionDetector det(ctl, RuleBook::standard());
  det.set_loss_threshold(500);
  Monitor mon(ctl, cluster::Fig8Scenario::kTenant);
  mon.watch(m.pnic()->id(), attr::kDropPkts);
  mon.watch(m.pnic()->id(), attr::kRxPkts);
  mon.watch(m.backlog()->id(), attr::kDropPkts);
  for (int i = 0; i < m.num_vms(); ++i) {
    mon.watch(m.tun(i)->id(), attr::kDropPkts);
  }
  mon.watch(ElementId{"no-such-element"}, attr::kDropPkts);

  AlertWatcher watcher(&mon, &det, nullptr);
  auto rule = [&](const std::string& name, const ElementId& id,
                  double threshold, AlertRule::Action action) {
    AlertRule r;
    r.name = name;
    r.element = id;
    r.attr = attr::kDropPkts;
    r.threshold = threshold;
    r.action = action;
    r.window = Duration::millis(200);
    r.cooldown = Duration::seconds(3);
    watcher.add_rule(r);
  };
  rule("pnic-drops", m.pnic()->id(), 10000, AlertRule::Action::kContention);
  rule("backlog-drops", m.backlog()->id(), 10000,
       AlertRule::Action::kContention);
  rule("mb0-tun-drops", m.tun(0)->id(), 2000, AlertRule::Action::kNone);

  std::string out;
  for (int p = 0; p < kPhases; ++p) {
    const SimTime start = SimTime::nanos(kPhase.ns() * p);
    for (int k = 1; k <= kTicksPerPhase; ++k) {
      run_until(s.sim(), start + kTick * static_cast<double>(k));
      mon.sample();
      for (const Alert& a : watcher.check(m.aux_signals())) {
        out += "alert phase=" + std::to_string(p) + " tick=" +
               std::to_string(k) + "\n" + to_text(a);
        if (a.ran_contention) {
          out += quality_line(a.contention.coverage, a.contention.blind_spots);
          expect_not_dark(a.contention.coverage, "alert " + a.rule);
        }
      }
    }
    run_until(s.sim(), start + kAlgo1At);
    const ContentionReport r =
        det.diagnose(cluster::Fig8Scenario::kTenant, kAlgo1Window,
                     m.aux_signals());
    out += "algo1 phase=" + std::to_string(p) + " t=" +
           std::to_string(s.sim().now().ns()) + "\n" + to_text(r) +
           "narrative: " + r.narrative + "\n" +
           quality_line(r.coverage, r.blind_spots);
    expect_not_dark(r.coverage, "phase " + std::to_string(p));
    run_until(s.sim(), start + kPhase);
  }

  for (const ElementId& id :
       {m.pnic()->id(), m.backlog()->id(), m.tun(0)->id(), m.tun(5)->id()}) {
    for (const char* a : {attr::kDropPkts, attr::kRxPkts}) {
      const Monitor::Series& v = mon.values(id, a);
      if (v.empty()) continue;
      out += "series " + id.name + "." + a + "\n";
      for (const Monitor::Point& pt : v.points) {
        out += "  " + std::to_string(pt.t.ns()) + " " + num(pt.value) + "\n";
      }
      for (const Monitor::Point& pt : mon.rates(id, a).points) {
        out += "  rate " + std::to_string(pt.t.ns()) + " " + num(pt.value) +
               "\n";
      }
    }
  }
  for (int i = 1; i < m.num_vms(); ++i) {
    if (i == 5) continue;
    const Monitor::Series& v = mon.values(m.tun(i)->id(), attr::kDropPkts);
    out += "series " + m.tun(i)->id().name + ".drop points=" +
           std::to_string(v.points.size()) + " last=" + num(v.last()) + "\n";
  }
  out += "history=" + std::to_string(watcher.history().size()) + "\n";
  return out;
}

std::string propagation_transcript() {
  using Case = cluster::PropagationScenario::Case;
  const FaultPlan plan = campaign();
  std::string out;
  const std::pair<Case, const char*> cases[] = {
      {Case::kHealthy, "healthy"},
      {Case::kOverloadedServer, "overloaded-server"},
      {Case::kUnderloadedClient, "underloaded-client"},
      {Case::kBuggyNfs, "buggy-nfs"}};
  // Staggered settle times, so each case meets its own fault draws.
  int64_t settle_ms = 2000;
  for (const auto& [c, name] : cases) {
    cluster::PropagationScenario s(c);
    s.deployment().set_fault_plan(&plan);
    s.settle(Duration::millis(settle_ms));
    settle_ms += 250;
    const RootCauseReport r = s.diagnose();
    out += std::string("algo2 ") + name + " t=" +
           std::to_string(s.sim().now().ns()) + "\n" + to_text(r);
    std::string spots = "coverage=" + num(r.coverage) + " blind=[";
    for (size_t i = 0; i < r.blind_spots.size(); ++i) {
      if (i > 0) spots += " ";
      spots += r.blind_spots[i].id.name + ":" +
               to_string(r.blind_spots[i].quality);
    }
    out += spots + "]\n";
    expect_not_dark(r.coverage, name);
  }
  return out;
}

// The §5.1 mixed population, fault-free: a slow forwarder, a busy
// transcoder, a quiet sink and a CPU-starved VM.
std::string bottleneck_transcript() {
  sim::Simulator sim{Duration::millis(1)};
  vm::PhysicalMachine m{"m0", dp::StackParams{}, &sim};
  cluster::Deployment dep{&sim};
  constexpr TenantId kTenant{1};

  const int slow = m.add_vm({"slow-fw", 1.0});
  dp::ForwardApp::Config fwd;
  fwd.capacity = 100_mbps;
  fwd.egress_flow = FlowId{99};
  m.set_forward_app(slow, fwd);
  m.route_flow_to_wire(FlowId{99}, "fw-out");
  const int busy = m.add_vm({"transcoder", 1.0});
  m.set_busy_wait_sink_app(busy);
  const int quiet = m.add_vm({"quiet", 1.0});
  m.set_sink_app(quiet);
  const int starved = m.add_vm({"starved", 1.0});
  m.set_sink_app(starved);
  m.add_vm_cpu_hog(starved)->set_demand_cores(1.0);
  for (int i = 0; i < 4; ++i) {
    FlowSpec f;
    f.id = FlowId{static_cast<uint32_t>(i + 1)};
    f.packet_size = 1500;
    m.route_flow_to_vm(f, i);
    m.add_ingress_source("s" + std::to_string(i), f, 300_mbps);
  }
  Agent* a = dep.add_agent("a0");
  dep.attach(&m, a);
  PS_CHECK(dep.assign(kTenant, m.tun(0)->id(), a).is_ok());
  sim.run_for(3_s);

  auto suspect = [&](int vm, const std::string& name) {
    return SuspectVm{name, {m.tun(vm)->id(), m.guest_socket(vm)->id()}};
  };
  const std::vector<SuspectVm> vms = {
      suspect(slow, "slow-fw"), suspect(busy, "transcoder"),
      suspect(quiet, "quiet"), suspect(starved, "starved")};
  BottleneckDetector det(dep.controller());
  std::string out = "bottleneck strict\n" +
                    to_text(det.diagnose(kTenant, m.utilization_snapshot(),
                                         vms, Duration::seconds(1.0)));
  out += "bottleneck degenerate\n" +
         to_text(det.diagnose(kTenant, m.utilization_snapshot(), vms,
                              Duration::seconds(1.0), /*degenerate=*/true));
  out += "t=" + std::to_string(sim.now().ns()) + "\n";
  return out;
}

void check_golden(const std::string& name, const std::string& got) {
  const std::string path = std::string(PS_GOLDEN_DIR) + "/" + name;
  if (std::getenv("PERFSIGHT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream want_ss;
  want_ss << in.rdbuf();
  const std::string want = want_ss.str();
  if (got == want) return;
  // Report the first divergent line rather than two multi-kilobyte blobs.
  std::istringstream a(want), b(got);
  std::string la, lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) break;
    if (!more_a || !more_b || la != lb) {
      FAIL() << name << " diverges at line " << line << "\n  golden: " << la
             << "\n  got:    " << lb;
    }
  }
}

TEST(DiagnosisGoldenTest, VerdictTranscript) {
  check_golden("diagnosis.txt", fig8_transcript() + propagation_transcript() +
                                    bottleneck_transcript());
}

}  // namespace
}  // namespace perfsight
