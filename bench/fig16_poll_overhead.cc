// Figure 16: statistics-polling frequency vs CPU usage.
//
// The agent pulls counters from elements only when queried; the paper
// sweeps the query frequency up to ~180 Hz and finds CPU usage below 0.5%
// at the 10 Hz cadence diagnosis actually needs, and only a few percent at
// the extreme.  This bench registers a realistic element population with a
// real Agent, then measures the wall time spent performing poll sweeps
// (collect + PSB2 batch encode, what a real agent does before answering the
// controller) as a fraction of one core.
//
// CPU% is wall-clock and only reported.  What gates is deterministic: the
// records and PSB2 bytes of one sweep, and the modelled channel time of the
// first sweep of a fresh agent.
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "perfsight/agent.h"
#include "perfsight/counters.h"
#include "perfsight/hotpath.h"
#include "perfsight/wire.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

constexpr int kElements = 40;  // a busy host: stack + 8 VMs * guest chain

struct Sweep {
  size_t records = 0;
  size_t bytes = 0;       // PSB2 batch
  Duration channel_time;  // modelled: every element pays its own trip
};

// One poll sweep: fetch every element and encode the records as one PSB2
// batch, as the agent does before answering the controller.
Sweep poll_and_encode(Agent& agent) {
  BatchResponse batch;
  batch.responses = agent.poll_all(SimTime::nanos(0));
  for (const QueryResponse& r : batch.responses) {
    batch.channel_time += r.response_time;
  }
  Result<std::string> bytes = wire::encode_batch(batch);
  PS_CHECK(bytes.ok());
  return {batch.responses.size(), bytes.value().size(), batch.channel_time};
}

struct Run {
  double cpu_percent = 0;
  Sweep first;  // the fresh agent's first sweep
};

Run poll_cpu_percent(double hz, double seconds) {
  // Element population backed by live counters.
  std::vector<ElementStats> stats(kElements);
  std::vector<HotpathStatsSource> sources;
  sources.reserve(kElements);
  Agent agent("agent");
  for (int i = 0; i < kElements; ++i) {
    stats[i].pkts_in.add(123456 + i);
    stats[i].bytes_in.add(1850184000ull + i);
    sources.emplace_back(ElementId{"m0/el" + std::to_string(i)}, &stats[i]);
  }
  for (auto& s : sources) {
    Status st = agent.add_element(&s);
    PS_CHECK(st.is_ok());
  }

  using clock = std::chrono::steady_clock;
  auto start = clock::now();
  auto end = start + std::chrono::duration<double>(seconds);
  int64_t period_ns = static_cast<int64_t>(1e9 / hz);
  uint64_t busy_ns = 0;
  uint64_t sweeps = 0;
  Run run;
  auto next = start;
  while (clock::now() < end) {
    auto t0 = clock::now();
    const Sweep sweep = poll_and_encode(agent);
    busy_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count());
    if (sweeps == 0) run.first = sweep;
    ++sweeps;
    next += std::chrono::nanoseconds(period_ns);
    while (clock::now() < next && clock::now() < end) {
      // idle-wait until the next poll slot
    }
  }
  double total_s =
      std::chrono::duration<double>(clock::now() - start).count();
  run.cpu_percent = static_cast<double>(busy_ns) / 1e9 / total_s * 100.0;
  return run;
}

}  // namespace

int main() {
  heading("Figure 16: query frequency vs CPU usage",
          "PerfSight (IMC'15) Fig. 16 / Sec. 7.4");
  Reporter report("fig16_poll_overhead");
  note("%d elements per sweep; poll = collect per element + one PSB2 encode",
       kElements);

  row({"freq(Hz)", "cpu(%)"});
  double at_10hz = 0, at_180hz = 0;
  Sweep first;
  for (double hz : {1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 180.0}) {
    const Run run = poll_cpu_percent(hz, 0.6);
    row({fmt("%.0f", hz), fmt("%.3f", run.cpu_percent)});
    if (hz == 10.0) {
      at_10hz = run.cpu_percent;
      first = run.first;
    }
    if (hz == 180.0) at_180hz = run.cpu_percent;
  }
  note("one sweep: %zu records, %zu PSB2 bytes, %.3f ms modelled channel time",
       first.records, first.bytes, first.channel_time.ms());

  report.gate("records_per_sweep", static_cast<double>(first.records));
  report.gate("psb2_bytes_per_sweep", static_cast<double>(first.bytes));
  report.gate("first_sweep_channel_ms", first.channel_time.ms());
  report.info("cpu_percent_10hz", at_10hz);
  report.info("cpu_percent_180hz", at_180hz);

  shape_check(at_10hz < 0.5,
              "CPU usage below 0.5% at the 10 Hz diagnosis cadence");
  shape_check(at_180hz < 5.0,
              "CPU usage only a few percent even at 180 Hz");
  return 0;
}
