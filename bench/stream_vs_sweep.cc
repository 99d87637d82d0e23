// Push-mode streaming vs per-window pull sweeps: steady-state bytes on the
// wire and modelled detection latency.
//
// The same 24-element world runs 64 windows twice.  Push mode captures each
// boundary once and ships it delta-coded (mode 2 — u32 integral deltas —
// dominates steady state); the pull baseline re-ships every window as the
// absolute snapshot a sweep response carries.  Detection: a pNIC starts
// dropping at window 32; the streamed cache feeds Algorithm 1 every window,
// the pull path sweeps on a 5-window monitoring cadence, and the gap
// between the two first problem-found diagnoses is the latency the paper's
// pull design trades away.  Every gated number is a pure function of the
// fixed scenario: wire bytes from the codec, latencies from the modelled
// clock.  Wall-clock pump throughput is info-only.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "perfsight/agent.h"
#include "perfsight/contention.h"
#include "perfsight/controller.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"
#include "perfsight/streaming.h"
#include "perfsight/wire.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

constexpr Duration kWindow = Duration::millis(100);
constexpr int kWindows = 64;
constexpr int kOnsetWindow = 32;  // pNIC drops start here
constexpr int kSweepEvery = 5;    // pull-mode monitoring cadence, windows

class FnSource : public StatsSource {
 public:
  FnSource(std::string id, ChannelKind kind,
           std::function<std::vector<Attr>(SimTime)> fn)
      : id_{std::move(id)}, kind_(kind), fn_(std::move(fn)) {}

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return kind_; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.timestamp = now;
    r.element = id_;
    r.attrs = fn_(now);
    return r;
  }

 private:
  ElementId id_;
  ChannelKind kind_;
  std::function<std::vector<Attr>(SimTime)> fn_;
};

double win(SimTime t) { return static_cast<double>(t.ns() / kWindow.ns()); }

// 24 elements: one pNIC that starts dropping at kOnsetWindow, 23 clean
// tunnel ports.  Counters advance by integral amounts per window, the
// steady-state shape the delta codec is built for.
std::vector<std::unique_ptr<FnSource>> make_sources() {
  std::vector<std::unique_ptr<FnSource>> out;
  out.push_back(std::make_unique<FnSource>(
      "m0/pnic", ChannelKind::kNetDeviceFile, [](SimTime t) {
        const double w = win(t);
        const double sick = w > kOnsetWindow ? w - kOnsetWindow : 0;
        return std::vector<Attr>{
            {attr::kRxPkts, 12000 * w},
            {attr::kTxPkts, 12000 * w - 8000 * sick},
            {attr::kDropPkts, 8000 * sick},
            {attr::kType, static_cast<double>(ElementKind::kPNic)},
            {attr::kVm, -1}};
      }));
  for (int i = 0; i < 23; ++i) {
    out.push_back(std::make_unique<FnSource>(
        "m0/vm" + std::to_string(i) + "/tun", ChannelKind::kProcFs,
        [i](SimTime t) {
          const double w = win(t);
          return std::vector<Attr>{
              {attr::kRxPkts, (3000 + 100 * i) * w},
              {attr::kTxPkts, (3000 + 100 * i) * w},
              {attr::kType, static_cast<double>(ElementKind::kTun)},
              {attr::kVm, static_cast<double>(i)}};
        }));
  }
  return out;
}

struct World {
  std::vector<std::unique_ptr<FnSource>> sources = make_sources();
  Agent agent{"a0", 5};
  std::vector<ElementId> ids;

  World() {
    for (auto& s : sources) {
      PS_CHECK(agent.add_element(s.get()).is_ok());
      ids.push_back(s->id());
    }
  }
};

// First boundary (in windows) at which Algorithm 1 over `client` finds the
// problem, diagnosing at cadence `every` windows, one window behind the
// data frontier.  Returns -1 if never.
int detect_window(AgentClient* client, const std::vector<ElementId>& ids,
                  int every) {
  SimTime now;
  Controller c(
      [&now](Duration d) {
        now = now + d;
        return now;
      },
      [&now] { return now; });
  const TenantId tenant{1};
  c.register_agent(client);
  for (const ElementId& id : ids) {
    PS_CHECK(c.register_element(tenant, id, client).is_ok());
    c.register_stack_element(client, id);
  }
  ContentionDetector det(&c, RuleBook::standard());
  det.set_loss_threshold(1000);
  for (int k = 1; k < kWindows; ++k) {
    if (k % every != 0) continue;
    now = SimTime::nanos(kWindow.ns() * (k - 1));
    ContentionReport r = det.diagnose(tenant, kWindow);
    if (r.problem_found) return k;
  }
  return -1;
}

}  // namespace

int main() {
  heading("stream_vs_sweep: push-mode bytes & detection latency vs pull sweeps",
          "PerfSight §5 collection cost (streaming extension)");
  Reporter rep("stream_vs_sweep");

  // --- bytes on the wire ----------------------------------------------------
  World push_world;
  StreamCache cache;
  // Detection below replays every window after the pump, so the cache
  // keeps them all.
  cache.set_retention(kWindows);
  StreamPipeline pipe(&cache);
  pipe.add_agent(&push_world.agent);

  World pull_world;
  uint64_t sweep_bytes = 0;
  uint64_t snapshot_bytes = 0;  // frame 1 of the stream (absolute)
  uint64_t steady_bytes = 0;    // last frame of the stream (delta-coded)

  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < kWindows; ++k) {
    const SimTime at = SimTime::nanos(kWindow.ns() * k);
    PS_CHECK(pipe.pump(at).is_ok());
    const uint64_t before = sweep_bytes;

    // The pull baseline ships the same boundary absolute, every window.
    BatchResponse b = pull_world.agent.query_batch(pull_world.ids, at);
    wire::StreamDataMsg m;
    m.agent = pull_world.agent.name();
    m.seq = static_cast<uint64_t>(k) + 1;
    m.window_start = at;
    m.responses = b.responses;
    sweep_bytes += wire::encode_stream_data(m, nullptr).value().size();
    if (k == 0) snapshot_bytes = sweep_bytes - before;
  }
  const double pump_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const uint64_t streamed_bytes = pipe.bytes_published();
  steady_bytes = (streamed_bytes - snapshot_bytes) / (kWindows - 1);

  note("windows=%d elements=%zu window=%lldms", kWindows,
       push_world.ids.size(),
       static_cast<long long>(kWindow.ns() / 1000000));
  note("streamed bytes total   %llu (snapshot %llu + %d delta frames)",
       static_cast<unsigned long long>(streamed_bytes),
       static_cast<unsigned long long>(snapshot_bytes), kWindows - 1);
  note("sweep bytes total      %llu",
       static_cast<unsigned long long>(sweep_bytes));
  note("steady-state per window: streamed %llu vs sweep %llu (%.1f%%)",
       static_cast<unsigned long long>(steady_bytes),
       static_cast<unsigned long long>(snapshot_bytes),
       100.0 * static_cast<double>(steady_bytes) /
           static_cast<double>(snapshot_bytes));

  // --- detection latency ----------------------------------------------------
  // Streamed: diagnosis runs off the cache every window.  Pull: every
  // kSweepEvery windows (continuous per-window sweeps would cost the full
  // snapshot bytes above every window — the cadence IS the tradeoff).
  StreamCacheAgent sca(&cache, push_world.agent);
  const int det_stream = detect_window(&sca, push_world.ids, 1);
  World pull_world2;
  const int det_sweep =
      detect_window(&pull_world2.agent, pull_world2.ids, kSweepEvery);
  PS_CHECK(det_stream > 0 && det_sweep > 0);
  const double stream_ms =
      static_cast<double>((det_stream - kOnsetWindow) * kWindow.ns()) / 1e6;
  const double sweep_ms =
      static_cast<double>((det_sweep - kOnsetWindow) * kWindow.ns()) / 1e6;
  note("detection: onset w%d -> streamed w%d (%.0fms), sweep w%d (%.0fms)",
       kOnsetWindow, det_stream, stream_ms, det_sweep, sweep_ms);

  shape_check(steady_bytes * 2 < snapshot_bytes,
              "steady-state delta frame is < half the absolute sweep frame");
  shape_check(streamed_bytes < sweep_bytes,
              "stream total (incl. snapshot) undercuts the sweep total");
  shape_check(stream_ms < sweep_ms,
              "per-window streamed diagnosis detects before the sweep cadence");

  rep.gate("streamed_bytes_total", static_cast<double>(streamed_bytes));
  rep.gate("sweep_bytes_total", static_cast<double>(sweep_bytes));
  rep.gate("steady_bytes_per_window", static_cast<double>(steady_bytes));
  rep.gate("detect_latency_streamed_ms", stream_ms);
  rep.gate("detect_latency_sweep_ms", sweep_ms);
  rep.info("pump_walltime_secs", pump_secs);
  return 0;
}
