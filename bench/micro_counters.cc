// Micro-benchmarks (google-benchmark) of the instrumentation primitives:
// per-update cost of the simple and time counters, the per-packet hotpath
// work models, stats-record serialization, and an agent poll sweep.  These
// are the building blocks behind Table 2 / Fig. 15 / Fig. 16.
#include <benchmark/benchmark.h>

#include "perfsight/agent.h"
#include "perfsight/counters.h"
#include "perfsight/hotpath.h"
#include "perfsight/stats.h"

namespace perfsight {
namespace {

void BM_SimpleCounterAdd(benchmark::State& state) {
  Counter c;
  uint64_t v = 0;
  for (auto _ : state) {
    c.add(++v & 0xFFF);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SimpleCounterAdd);

void BM_TimeCounterScope(benchmark::State& state) {
  IoTimeCounter c;
  for (auto _ : state) {
    ScopedIoTimer t(c);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_TimeCounterScope);

void BM_HotpathPacket(benchmark::State& state) {
  HotpathConfig cfg;
  cfg.kind = static_cast<MbWorkKind>(state.range(0));
  cfg.packet_bytes = 1500;
  cfg.simple_counters = true;
  cfg.time_counters = state.range(1) != 0;
  for (auto _ : state) {
    HotpathResult r = run_hotpath(cfg, 512);
    benchmark::DoNotOptimize(r.checksum);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_HotpathPacket)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}})
    ->ArgNames({"mbox", "timers"});

void BM_StatsRecordToText(benchmark::State& state) {
  StatsRecord r;
  r.timestamp = SimTime::millis(42);
  r.element = ElementId{"m0/vm3/tun"};
  for (int i = 0; i < 8; ++i) {
    r.attrs.push_back({"attr" + std::to_string(i), 1234567.0 * i});
  }
  for (auto _ : state) {
    std::string text = to_text(r);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_StatsRecordToText);

void BM_AgentPollSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<ElementStats> stats(n);
  std::vector<HotpathStatsSource> sources;
  sources.reserve(n);
  Agent agent("agent");
  for (int i = 0; i < n; ++i) {
    sources.emplace_back(ElementId{"el" + std::to_string(i)}, &stats[i]);
  }
  for (auto& s : sources) {
    if (!agent.add_element(&s).is_ok()) state.SkipWithError("dup");
  }
  for (auto _ : state) {
    auto all = agent.poll_all(SimTime::nanos(0));
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AgentPollSweep)->Arg(8)->Arg(40)->Arg(200);

}  // namespace
}  // namespace perfsight

BENCHMARK_MAIN();
