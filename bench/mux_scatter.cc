// Fleet event-loop scatter: what one poll()-multiplexed serve thread costs
// as the served-agent count grows.
//
// One RemoteAgentServer hosts {1, 4, 16} agents; one bound RemoteAgent per
// agent hammers query_batch from its own thread (the controller scatter
// pattern without the controller bookkeeping).  The old accept-then-serve
// loop would serialize the whole fleet behind a single connection; the
// event loop must keep aggregate throughput from collapsing as fan-in
// grows.  The differential contract doubles as the gate: every record off
// the multiplexed socket must be byte-identical to the in-process agent,
// and the oracle's wire rendering — a pure function of the fixed fleet —
// gates against BASELINE.json.  Wall-clock throughput is info-only.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "perfsight/agent.h"
#include "perfsight/remote_agent.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"
#include "perfsight/transport.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

constexpr size_t kPerAgent = 8;
constexpr int kSweeps = 200;  // batch round trips per adapter

class ConstSource : public StatsSource {
 public:
  ConstSource(ElementId id, uint64_t seed) : id_(std::move(id)) {
    attrs_ = {{attr::kRxPkts, static_cast<double>(1000000 + seed * 17)},
              {attr::kTxPkts, static_cast<double>(900000 + seed * 11)},
              {attr::kDropPkts, static_cast<double>(seed % 7)},
              {attr::kTxBytes, static_cast<double>(1500000000ull + seed)}};
  }
  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kProcFs; }
  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.element = id_;
    r.timestamp = now;
    r.attrs = attrs_;
    return r;
  }

 private:
  ElementId id_;
  std::vector<Attr> attrs_;
};

std::string record_bytes(const BatchResponse& b) {
  std::string out;
  for (const QueryResponse& r : b.responses) {
    out += to_text(r.record);
    out += '|';
  }
  return out;
}

struct RunResult {
  bool identical = true;
  double batches_per_sec = 0;
  size_t oracle_bytes = 0;
};

RunResult run_fleet(size_t n_agents) {
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<ConstSource>> sources;
  std::vector<std::vector<ElementId>> ids_of(n_agents);
  std::vector<Agent*> raw;
  for (size_t a = 0; a < n_agents; ++a) {
    agents.push_back(
        std::make_unique<Agent>("fleet-" + std::to_string(a), a + 1));
    for (size_t e = 0; e < kPerAgent; ++e) {
      sources.push_back(std::make_unique<ConstSource>(
          ElementId{"f" + std::to_string(a) + "/eth" + std::to_string(e)},
          a * kPerAgent + e));
      PS_CHECK(agents.back()->add_element(sources.back().get()).is_ok());
      ids_of[a].push_back(sources.back()->id());
    }
    raw.push_back(agents.back().get());
  }

  RemoteAgentServer server(raw, transport::Endpoint::tcp("127.0.0.1", 0));
  PS_CHECK(server.start().is_ok());
  std::vector<std::unique_ptr<RemoteAgent>> adapters;
  for (size_t a = 0; a < n_agents; ++a) {
    adapters.push_back(
        std::make_unique<RemoteAgent>(server.endpoint(), raw[a]->name()));
    PS_CHECK(adapters.back()->connect().is_ok());
  }

  RunResult out;
  for (size_t a = 0; a < n_agents; ++a) {
    const std::string oracle =
        record_bytes(raw[a]->query_batch(ids_of[a], SimTime::millis(0)));
    out.oracle_bytes += oracle.size();
    out.identical =
        out.identical &&
        record_bytes(adapters[a]->query_batch(ids_of[a], SimTime::millis(0))) ==
            oracle;
  }

  // One hammer thread per adapter: n concurrent connections fan into the
  // single event-loop thread.
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t a = 0; a < n_agents; ++a) {
    threads.emplace_back([&, a] {
      for (int s = 0; s < kSweeps; ++s) {
        BatchResponse b =
            adapters[a]->query_batch(ids_of[a], SimTime::millis(s));
        PS_CHECK(b.responses.size() == ids_of[a].size());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.batches_per_sec = static_cast<double>(n_agents * kSweeps) / secs;
  PS_CHECK(server.batches_served() >= n_agents * (kSweeps + 1));
  return out;
}

}  // namespace

int main() {
  heading("Fleet scatter over one poll()-multiplexed serve thread",
          "PerfSight (IMC'15) Sec. 3 distributed agents; fleet transport");
  Reporter report("mux_scatter");
  note("%zu elements per agent, %d sweeps per adapter, fleet sizes 1/4/16",
       kPerAgent, kSweeps);

  bool identical = true;
  double tput1 = 0, tput16 = 0;
  size_t oracle16 = 0;
  row({"agents", "batches/s", "us/batch"});
  for (size_t n : {1u, 4u, 16u}) {
    RunResult r = run_fleet(n);
    identical = identical && r.identical;
    if (n == 1) tput1 = r.batches_per_sec;
    if (n == 16) {
      tput16 = r.batches_per_sec;
      oracle16 = r.oracle_bytes;
    }
    row({fmt("%.0f", static_cast<double>(n)), fmt("%.0f", r.batches_per_sec),
         fmt("%.1f", 1e6 / r.batches_per_sec)});
  }

  // The oracle rendering is a pure function of the fixed fleet: gate it.
  // Throughput is loopback wall clock: info only.
  report.gate("oracle_record_bytes_16", static_cast<double>(oracle16));
  report.info("batches_per_sec_1", tput1);
  report.info("batches_per_sec_16", tput16);

  shape_check(identical,
              "fleet records off the mux byte-identical to in-process agents");
  shape_check(tput16 >= tput1 * 0.8,
              "16-agent fan-in does not collapse the event loop's throughput");
  return 0;
}
