// push_stream: the same fleet and seed in push mode, in process.  Each
// verdict pumps one window boundary (one delta frame per agent into a
// StreamCache with bounded retention; a seeded FaultPlan loses about 2% of
// frames, which the pipeline repairs with targeted pulls) and then runs
// Algorithm 1 over the cache through StreamCacheAgents.
#include <memory>
#include <string>
#include <vector>

#include "fleet.h"
#include "harness.h"
#include "perfsight/streaming.h"

namespace perfbench {

using namespace perfsight;

namespace {

// Windows kept per agent.  A verdict reads two; the rest is slack.
constexpr size_t kRetentionWindows = 4;

struct PushWorld {
  Fleet fleet;
  FaultPlan plan;
  StreamCache cache;
  StreamPipeline pipe{&cache, &plan};
  std::vector<std::unique_ptr<ForwardingClient>> agent_fwd;
  std::vector<std::unique_ptr<StreamCacheAgent>> cache_agents;
  std::vector<std::unique_ptr<ForwardingClient>> cache_fwd;
  SimTime clock;
  Controller ctl{[this](Duration d) { return clock = clock + d; },
                 [this] { return clock; }};
  ContentionDetector det{&ctl, RuleBook::standard()};
  std::vector<ElementId> scan;

  explicit PushWorld(uint64_t seed)
      : fleet(seed), plan(mix64(seed ^ 0x66617565ULL)) {
    plan.set_stream_drop(0.02);
    cache.set_retention(kRetentionWindows);
    std::vector<AgentClient*> clients;
    for (Agent* a : fleet.agents()) {
      agent_fwd.push_back(std::make_unique<ForwardingClient>(a));
      pipe.add_agent(agent_fwd.back().get());
      cache_agents.push_back(std::make_unique<StreamCacheAgent>(&cache, *a));
      cache_fwd.push_back(
          std::make_unique<ForwardingClient>(cache_agents.back().get()));
      clients.push_back(cache_fwd.back().get());
    }
    register_fleet(ctl, clients, fleet);
    scan = ctl.stack_elements_for(kFleetTenant);
    PS_CHECK(pipe.pump(SimTime()).is_ok());
  }

  // One verdict is pump(w) then diagnose(w): publish boundary w+1, then
  // diagnose windows w and w+1.
  void pump(int64_t w) {
    PS_CHECK(pipe.pump(SimTime::nanos((w + 1) * kFleetWindow.ns())).is_ok());
  }
  ContentionReport diagnose(int64_t w) {
    clock = SimTime::nanos(w * kFleetWindow.ns());
    return det.diagnose(kFleetTenant, kFleetWindow);
  }
  ContentionReport verdict(int64_t w) {
    pump(w);
    return diagnose(w);
  }
};

// Algorithm 1 over the same fleet by in-process pull: the reference the
// streamed verdicts must match.
struct PullReference {
  SimTime clock;
  Controller ctl{[this](Duration d) { return clock = clock + d; },
                 [this] { return clock; }};
  ContentionDetector det{&ctl, RuleBook::standard()};

  explicit PullReference(const Fleet& fleet) {
    std::vector<AgentClient*> clients;
    for (Agent* a : fleet.agents()) clients.push_back(a);
    register_fleet(ctl, clients, fleet);
  }
  ContentionReport verdict(int64_t w) {
    clock = SimTime::nanos(w * kFleetWindow.ns());
    return det.diagnose(kFleetTenant, kFleetWindow);
  }
};

uint64_t frames_published(const PushWorld& w, int64_t boundaries) {
  return static_cast<uint64_t>(boundaries) * w.fleet.agents().size();
}

}  // namespace

RunResult run_push_stream(const Options& opt) {
  RunResult res;
  EndToEnd e2e;

  std::unique_ptr<PushWorld> world = timed_setups(
      [&] { return std::make_unique<PushWorld>(opt.seed); }, &e2e.setup_s);
  PushWorld& w = *world;
  const size_t records_per_verdict = 2 * w.scan.size();

  // Streamed verdicts of the first windows equal pull-sweep verdicts at the
  // same boundaries, text for text.  Doubles as the warm-up.
  int64_t window = 0;
  {
    PullReference pull(w.fleet);
    for (int i = 0; i < 8; ++i, ++window) {
      const ContentionReport streamed = w.verdict(window);
      res.check(fleet_verdict_ok(streamed, w.fleet),
                "warm-up streamed verdict names the seeded lossy element");
      res.check(to_text(streamed) == to_text(pull.verdict(window)),
                "streamed verdict at window " + std::to_string(window) +
                    " equals the pull sweep's");
    }
  }

  LayerMetrics lm;
  LayerCalls agent, publish, apply, cache_query, controller;
  std::vector<double> self_ms, stream_bytes;
  const std::vector<std::string> attrs = contention_sample_attrs();
  // Probe-side publishers and cache: same agents and boundaries, their own
  // delta state, no faults.
  StreamCache shadow_cache;
  shadow_cache.set_retention(kRetentionWindows);
  std::vector<std::unique_ptr<StreamPublisher>> shadow;
  for (auto& f : w.agent_fwd) {
    shadow.push_back(std::make_unique<StreamPublisher>(f.get()));
  }

  const uint64_t bytes0 = w.pipe.bytes_published();
  const uint64_t dropped0 = w.pipe.frames_dropped();
  const int64_t window0 = window;
  const int64_t start = wall_ns();
  const int64_t deadline = deadline_after(opt.seconds);
  for (uint64_t i = 0; wall_ns() < deadline; ++i, ++window) {
    const bool traced = opt.trace && i % 2 == 1;
    const uint64_t pump_bytes0 = w.pipe.bytes_published();
    const uint64_t pump_dropped0 = w.pipe.frames_dropped();
    for (auto& f : w.agent_fwd) f->set_timing(traced);
    for (auto& f : w.cache_fwd) f->set_timing(traced);
    const int64_t t0 = wall_ns();
    w.pump(window);
    const int64_t tp = wall_ns();
    const ContentionReport r = w.diagnose(window);
    const int64_t t1 = wall_ns();
    for (auto& f : w.agent_fwd) f->set_timing(false);
    for (auto& f : w.cache_fwd) f->set_timing(false);
    ++res.attempted;
    if (!fleet_verdict_ok(r, w.fleet)) ++res.failed;
    const double ms = ms_between(t0, t1);
    if (!opt.trace) {
      e2e.verdict_ms.push_back(ms);
      e2e.time_reference();
      continue;
    }
    if (!traced) {
      lm.untraced_ms.push_back(ms);
      continue;
    }
    lm.traced_ms.push_back(ms);
    for (auto& f : w.agent_fwd) agent.add(f->take_calls());
    std::vector<CallRecord> diag_calls;
    for (auto& f : w.cache_fwd) {
      const std::vector<CallRecord> calls = f->take_calls();
      diag_calls.insert(diag_calls.end(), calls.begin(), calls.end());
    }
    cache_query.add(diag_calls);
    self_ms.push_back(ms_between(0, (t1 - tp) - covered_ns(diag_calls)));
    const uint64_t delivered =
        w.fleet.agents().size() - (w.pipe.frames_dropped() - pump_dropped0);
    if (delivered > 0) {
      stream_bytes.push_back(
          static_cast<double>(w.pipe.bytes_published() - pump_bytes0) /
          static_cast<double>(delivered * kElementsPerAgent));
    }

    // Probes on this boundary: publish (capture excluded) and apply, then
    // the controller's scatter over the cache.
    const SimTime at = SimTime::nanos((window + 1) * kFleetWindow.ns());
    for (size_t a = 0; a < shadow.size(); ++a) {
      w.agent_fwd[a]->set_timing(true);
      const int64_t p0 = wall_ns();
      Result<StreamPublisher::Published> pub = shadow[a]->publish(at);
      const int64_t p1 = wall_ns();
      w.agent_fwd[a]->set_timing(false);
      int64_t capture_ns = 0;
      for (const CallRecord& c : w.agent_fwd[a]->take_calls()) {
        capture_ns += c.end_ns - c.start_ns;
      }
      PS_CHECK(pub.ok());
      publish.add(p0, p1 - capture_ns, kElementsPerAgent, 0);
      const int64_t q0 = wall_ns();
      Result<StreamCache::ApplyResult> applied =
          shadow_cache.apply(pub.value().body);
      apply.add(q0, wall_ns(), kElementsPerAgent, 0);
      res.check(applied.ok() && applied.value().applied,
                "probe frame applies in order");
    }
    const uint64_t a0 = thread_allocs();
    const int64_t p0 = wall_ns();
    const auto got = w.ctl.get_attr_many(kFleetTenant, w.scan, attrs);
    controller.add(p0, wall_ns(), got.size(), thread_allocs() - a0);
  }
  const double loop_s =
      static_cast<double>(wall_ns() - start) / 1e9 - e2e.reference_s();
  const StreamCache::Stats cs = w.cache.stats();
  res.check(cs.repairs == w.pipe.frames_dropped(),
            "every dropped frame was repaired by a pull");

  if (!opt.trace) {
    const double records =
        static_cast<double>(res.attempted * records_per_verdict);
    e2e.records_per_s = records / loop_s;
    const uint64_t delivered_frames = frames_published(w, window - window0) -
                                      (w.pipe.frames_dropped() - dropped0);
    e2e.wire_bytes_per_record =
        static_cast<double>(w.pipe.bytes_published() - bytes0) /
        static_cast<double>(delivered_frames * kElementsPerAgent);
    e2e.sim_speed =
        static_cast<double>(res.attempted) * kFleetWindow.sec() / loop_s;
    add_end_to_end(res, e2e);
  } else {
    lm.agent_ns = agent.ns_per_record();
    lm.agent_allocs = agent.allocs_per_record();
    lm.controller_ns = controller.ns_per_record();
    lm.controller_allocs = controller.allocs_per_record();
    lm.stream_publish_ns = publish.ns_per_record();
    lm.stream_apply_ns = apply.ns_per_record();
    lm.stream_cache_query_ns = cache_query.ns_per_record();
    lm.stream_bytes = median(stream_bytes);
    // Boundaries pumped so far: boundary 0 at set-up plus one per verdict.
    lm.stream_repair_ratio =
        static_cast<double>(cs.repairs) /
        static_cast<double>(frames_published(w, window + 1));
    lm.contention_self_ms = median(self_ms);
    add_layers(res, lm);
  }
  return res;
}

}  // namespace perfbench
