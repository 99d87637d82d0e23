// dataplane_int: the Fig. 8 machine with in-band telemetry on.  8 VMs run
// in 1 ms ticks through the five injected phases; an IntStamper samples
// 1-in-8 packets at the pNIC, the NAPI poll and every per-VM element (each
// guest socket harvests), and an IntHarvester closes every 100 ms window
// into a StreamCache.  Algorithm 1 runs once per phase, its 1 s measurement
// window advancing the simulator; the timeline repeats on a fresh scenario
// until the run length is filled (the last timeline runs to its end).
#include <memory>
#include <string>
#include <vector>

#include "cluster/scenarios.h"
#include "common/rng.h"
#include "harness.h"
#include "perfsight/inband.h"
#include "perfsight/streaming.h"

namespace perfbench {

using namespace perfsight;
using cluster::Fig8Scenario;

namespace {

constexpr Duration kPhase = Duration::seconds(2.0);
// Quiet, then five injections, each followed by a quiet phase.
constexpr int kPhases = 11;
constexpr Duration kDiagnosisWindow = Duration::seconds(1.0);
constexpr Duration kIntWindow = Duration::millis(100);
constexpr uint64_t kSampleEvery = 8;
// Algorithm 1's loss floor for this machine: queues still draining right
// after an injection ends spill a few packets; a real problem drops tens of
// thousands per window.
constexpr int64_t kLossThresholdPkts = 500;

struct Timeline {
  Fig8Scenario s;
  inband::IntStamper stamper{
      inband::IntStamper::Config{kSampleEvery, 16, 4096}};
  StreamCache cache;
  inband::IntHarvester harvester{
      &stamper, &cache,
      inband::IntHarvester::Config{"m0/int", 0, Duration::millis(500)}};
  ForwardingClient fwd;
  Controller ctl;
  ContentionDetector det{&ctl, RuleBook::standard()};
  std::vector<ElementId> scan;

  // Timing of the simulator steps and window closes, on when traced.
  bool timing = false;
  LayerCalls steps;
  LayerCalls closes;

  explicit Timeline(bool stamping)
      : fwd(s.deployment().controller()->agents().front()),
        ctl([this](Duration d) { return run_for(d); },
            [this] { return s.sim().now(); }) {
    s.schedule_phases(kPhase);
    vm::PhysicalMachine& m = s.machine();
    stamper.attach(*m.pnic());
    stamper.attach(*m.napi());
    for (int i = 0; i < m.num_vms(); ++i) {
      stamper.attach(*m.tun(i));
      stamper.attach(*m.hyperio(i));
      stamper.attach(*m.vnic(i));
      stamper.attach(*m.guest_backlog(i));
      stamper.set_harvest(stamper.attach(*m.guest_socket(i)), true);
    }
    stamper.enable_all(stamping);
    cache.set_retention(4);
    s.sim().every(SimTime(), s.sim().tick(),
                  [this] { stamper.set_now(s.sim().now()); });
    s.sim().every(SimTime() + kIntWindow, kIntWindow, [this] {
      const int64_t t0 = wall_ns();
      harvester.close_window(s.sim().now() - kIntWindow);
      if (timing) closes.add(t0, wall_ns(), 1, 0);
    });

    // Algorithm 1 scans the stack of every machine hosting a tenant
    // element; the scenario assigns none, so the VMs' TUNs are the tenant's.
    ctl.register_agent(&fwd);
    std::vector<ElementId> stack = {m.pnic()->id(), m.backlog()->id(),
                                    m.napi()->id(), m.vswitch()->id()};
    for (int i = 0; i < m.num_vms(); ++i) stack.push_back(m.tun(i)->id());
    for (const ElementId& id : stack) ctl.register_stack_element(&fwd, id);
    for (int i = 0; i < m.num_vms(); ++i) {
      PS_CHECK(ctl.register_element(Fig8Scenario::kTenant, m.tun(i)->id(), &fwd)
                   .is_ok());
    }
    det.set_loss_threshold(kLossThresholdPkts);
    scan = ctl.stack_elements_for(Fig8Scenario::kTenant);
  }

  SimTime run_for(Duration d) {
    const int64_t t0 = wall_ns();
    s.sim().run_for(d);
    if (timing) {
      steps.add(t0, wall_ns(),
                static_cast<size_t>(d.ns() / s.sim().tick().ns()), 0);
    }
    return s.sim().now();
  }

  ContentionReport diagnose() {
    return det.diagnose(Fig8Scenario::kTenant, kDiagnosisWindow,
                        s.machine().aux_signals());
  }

  int64_t ticks() { return s.sim().now().ns() / s.sim().tick().ns(); }
};

// The Fig. 8 oracle: each injected phase has its Table 1 drop location and
// spread, and every quiet phase shows no problem.
bool phase_verdict_ok(int phase, const ContentionReport& r) {
  if (!r.blind_spots.empty() || r.coverage != 1.0) return false;
  switch (phase) {
    case 1:  // rx flood
      return r.problem_found && r.primary_location == ElementKind::kPNic &&
             r.is_contention;
    case 3:  // egress small-packet flood
      return r.problem_found &&
             r.primary_location == ElementKind::kPCpuBacklog && r.is_contention;
    case 5:  // tenant CPU hogs
    case 7:  // tenant memory hogs
      return r.problem_found && r.primary_location == ElementKind::kTun &&
             r.spread == LossSpread::kMultiVm && r.is_contention;
    case 9:  // CPU hog inside middlebox VM 0
      return r.problem_found && r.primary_location == ElementKind::kTun &&
             r.spread == LossSpread::kSingleVm && !r.is_contention &&
             r.affected_vms == std::vector<int>{0};
    default:
      return !r.problem_found;
  }
}

}  // namespace

RunResult run_dataplane_int(const Options& opt) {
  RunResult res;
  EndToEnd e2e;
  LayerMetrics lm;
  // Per-phase diagnosis offsets come from the seed: each timeline draws a
  // start between 400 and 600 ms into every phase.
  Pcg32 rng(mix64(opt.seed ^ 0x66696738ULL));  // "fig8"

  // Untraced runs stamp on every timeline.  Traced runs rotate through
  // untraced, traced, and traced with stamping disabled (the stamping
  // cost is the difference of the last two).
  enum Kind { kUntraced, kTraced, kTracedNoInt };
  LayerCalls agent, controller, steps_on, steps_off, closes_on, closes_off;
  std::vector<double> self_ms;
  int64_t ticks_on = 0, ticks_off = 0;
  uint64_t hops_on = 0, started_on = 0, harvested_on = 0;
  const std::vector<std::string> attrs = contention_sample_attrs();

  size_t records_per_verdict = 0;  // two sweeps of the scan set
  double sim_s = 0;
  uint64_t report_bytes = 0, flights = 0;
  int64_t setup_ns = 0;
  bool warm = false;
  int64_t start = 0;
  int64_t deadline = 0;
  for (uint64_t n = 0;; ++n) {
    const Kind kind = !opt.trace ? kUntraced : static_cast<Kind>(n % 3);
    const int64_t s0 = wall_ns();
    auto t = std::make_unique<Timeline>(kind != kTracedNoInt);
    const int64_t s1 = wall_ns();
    records_per_verdict = 2 * t->scan.size();
    if (warm) {
      e2e.setup_s.push_back(static_cast<double>(s1 - s0) / 1e9);
      setup_ns += s1 - s0;
    }
    t->timing = kind != kUntraced;
    t->fwd.set_timing(kind != kUntraced);

    for (int p = 0; p < kPhases; ++p) {
      const int64_t offset_ms = 400 + rng.next_below(201);
      t->run_for(SimTime::millis(kPhase.ns() / 1000000 * p + offset_ms) -
                 t->s.sim().now());
      const size_t step_mark = t->steps.calls.size();
      const int64_t v0 = wall_ns();
      const ContentionReport r = t->diagnose();
      const int64_t v1 = wall_ns();
      const bool ok = phase_verdict_ok(p, r);
      if (!warm) {
        res.check(ok, "warm-up verdict of phase " + std::to_string(p) +
                          " matches Fig. 8: " + r.narrative);
        continue;
      }
      ++res.attempted;
      if (!ok) ++res.failed;
      const double ms = ms_between(v0, v1);
      if (!opt.trace) {
        e2e.verdict_ms.push_back(ms);
        e2e.time_reference();
        continue;
      }
      if (kind == kUntraced) {
        lm.untraced_ms.push_back(ms);
        continue;
      }
      const std::vector<CallRecord> calls = t->fwd.take_calls();
      if (kind == kTracedNoInt) continue;
      lm.traced_ms.push_back(ms);
      agent.add(calls);
      // Self time: the verdict minus its agent calls and its simulator
      // advance.
      std::vector<CallRecord> children = calls;
      children.insert(children.end(), t->steps.calls.begin() + step_mark,
                      t->steps.calls.end());
      self_ms.push_back(ms_between(0, (v1 - v0) - covered_ns(children)));
      t->fwd.set_timing(false);
      const uint64_t a0 = thread_allocs();
      const int64_t p0 = wall_ns();
      const auto got =
          t->ctl.get_attr_many(Fig8Scenario::kTenant, t->scan, attrs);
      controller.add(p0, wall_ns(), got.size(), thread_allocs() - a0);
      t->fwd.set_timing(true);
    }

    if (!warm) {
      // The first timeline warms up; the measured loop starts after it.
      warm = true;
      start = wall_ns();
      deadline = start + static_cast<int64_t>(opt.seconds) * 1000000000;
      continue;
    }
    sim_s += static_cast<double>(t->ticks()) * t->s.sim().tick().sec();
    const inband::IntHarvester::Stats hs = t->harvester.stats();
    const inband::IntStamper::Stats ss = t->stamper.stats();
    if (kind != kTracedNoInt) {
      report_bytes += hs.report_bytes;
      flights += hs.flights_absorbed;
    }
    if (kind == kTraced) {
      steps_on.add(t->steps.calls);
      closes_on.add(t->closes.calls);
      ticks_on += t->ticks();
      hops_on += ss.hops_stamped;
      started_on += ss.flights_started;
      harvested_on += ss.flights_harvested;
    } else if (kind == kTracedNoInt) {
      steps_off.add(t->steps.calls);
      closes_off.add(t->closes.calls);
      ticks_off += t->ticks();
      res.check(ss.flights_started == 0 && hs.report_bytes == 0,
                "disabled stamping starts no flights and ships no bytes");
    }
    // Whole timelines only, so every run diagnoses the same mix of phases
    // (their verdicts cost from about 13 to 17 ms).
    if (wall_ns() >= deadline) break;
  }
  const double loop_s =
      static_cast<double>(wall_ns() - start - setup_ns) / 1e9 -
      e2e.reference_s();

  if (!opt.trace) {
    e2e.records_per_s =
        static_cast<double>(res.attempted * records_per_verdict) / loop_s;
    e2e.wire_bytes_per_record = ratio(static_cast<double>(report_bytes),
                                      static_cast<double>(flights));
    e2e.sim_speed = sim_s / loop_s;
    add_end_to_end(res, e2e);
  } else {
    // Simulator cost per tick excludes the harvester's window closes, which
    // run inside the steps as simulator events and are reported apart.
    auto step_ns_per_tick = [](const LayerCalls& steps,
                               const LayerCalls& closes, int64_t ticks) {
      return ratio(static_cast<double>(steps.total_ns() - closes.total_ns()),
                   static_cast<double>(ticks));
    };
    lm.agent_ns = agent.ns_per_record();
    lm.agent_allocs = agent.allocs_per_record();
    lm.controller_ns = controller.ns_per_record();
    lm.controller_allocs = controller.allocs_per_record();
    lm.contention_self_ms = median(self_ms);
    lm.sim_ns_per_tick = step_ns_per_tick(steps_on, closes_on, ticks_on);
    lm.int_stamping_ns_per_tick =
        lm.sim_ns_per_tick - step_ns_per_tick(steps_off, closes_off, ticks_off);
    lm.int_close_window_us = closes_on.mean_call_us();
    lm.int_hops_per_tick =
        ratio(static_cast<double>(hops_on), static_cast<double>(ticks_on));
    lm.int_harvest_ratio = ratio(static_cast<double>(harvested_on),
                                 static_cast<double>(started_on));
    add_layers(res, lm);
  }
  return res;
}

}  // namespace perfbench
