// Figure 16: statistics-polling frequency vs CPU usage.
//
// The agent pulls counters from elements only when queried; the paper
// sweeps the query frequency up to ~180 Hz and finds CPU usage below 0.5%
// at the 10 Hz cadence diagnosis actually needs, and only a few percent at
// the extreme.  This bench registers a realistic element population with a
// real Agent, then measures the wall time spent performing poll sweeps
// (collect + wire-format encode, what a real agent does per element) as a
// fraction of one core.
#include <vector>

#include "bench_util.h"
#include "perfsight/agent.h"
#include "perfsight/counters.h"
#include "perfsight/hotpath.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

constexpr int kElements = 40;  // a busy host: stack + 8 VMs * guest chain

double poll_cpu_percent(double hz, double seconds) {
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
  volatile uint64_t sink = 0;
  auto next = start;
  while (clock::now() < end) {
    auto t0 = clock::now();
    // One poll sweep: fetch every element and serialize the records, as the
    // agent does before answering the controller.
    for (auto& resp : agent.poll_all(SimTime::nanos(0))) {
      sink = sink + to_text(resp.record).size();
    }
    busy_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count());
    ++sweeps;
    next += std::chrono::nanoseconds(period_ns);
    while (clock::now() < next && clock::now() < end) {
      // idle-wait until the next poll slot
    }
  }
  double total_s =
      std::chrono::duration<double>(clock::now() - start).count();
  (void)sink;
  return static_cast<double>(busy_ns) / 1e9 / total_s * 100.0;
}

}  // namespace

int main() {
  heading("Figure 16: query frequency vs CPU usage",
          "PerfSight (IMC'15) Fig. 16 / Sec. 7.4");
  note("%d elements per sweep; poll = collect + wire-encode per element",
       kElements);

  row({"freq(Hz)", "cpu(%)"});
  double at_10hz = 0, at_180hz = 0;
  for (double hz : {1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 180.0}) {
    double pct = poll_cpu_percent(hz, 0.6);
    row({fmt("%.0f", hz), fmt("%.3f", pct)});
    if (hz == 10.0) at_10hz = pct;
    if (hz == 180.0) at_180hz = pct;
  }
  shape_check(at_10hz < 0.5,
              "CPU usage below 0.5% at the 10 Hz diagnosis cadence");
  shape_check(at_180hz < 5.0,
              "CPU usage only a few percent even at 180 Hz");
  return 0;
}
