// Poll-sweep scaling across the collection pool.
//
// A fleet sweep asks every agent to poll all of its elements.  The dominant
// per-element cost in a real deployment is channel latency, not CPU: Fig. 9
// measures ~2 ms for a net_device file read and hundreds of microseconds
// for the other channel kinds.  Those waits are independent across agents,
// so fanning the sweep out over the Deployment's collection pool overlaps
// them and the sweep time drops near-linearly with workers until the
// per-agent chains dominate.
//
// Each element here is backed by a source that does what an agent does per
// element in practice: block for the channel round trip (a real sleep
// standing in for the modelled RTT) and parse a /proc-style text blob into
// counters.  We sweep pool sizes {1, 2, 4, 8} over an 8-agent fleet and
// gate on >= 2x wall-clock speedup at 4 workers, plus byte-identical wire
// output between the sequential and parallel sweeps (the determinism
// contract the diagnosis path relies on).  The pool sizes take turns over
// several rounds and each keeps its fastest round, so a burst of load from
// elsewhere on the host slows one round of one size, not the comparison.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/deployment.h"
#include "perfsight/agent.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"
#include "sim/simulator.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

constexpr size_t kAgents = 8;
constexpr size_t kElementsPerAgent = 4;
constexpr int kRounds = 6;
constexpr int kSweepsPerRound = 12;
// Stand-in for the per-element channel round trip.  Real /proc and socket
// channels are 100-500 us (Fig. 9); net_device files are ~2 ms.
constexpr auto kChannelRtt = std::chrono::microseconds(150);

// An element whose counters arrive as /proc-net-dev-style text: collect()
// waits out the channel RTT, then parses the blob it "read" into attrs.
class ProcTextSource : public StatsSource {
 public:
  ProcTextSource(ElementId id, uint64_t seed) : id_(std::move(id)) {
    // Pre-render the blob once; a real agent re-reads it every poll.
    blob_ = " rx_packets: " + std::to_string(1000000 + seed * 17) +
            "\n rx_bytes: " + std::to_string(1500000000ull + seed * 1313) +
            "\n tx_packets: " + std::to_string(900000 + seed * 11) +
            "\n drop: " + std::to_string(seed % 7) + "\n";
  }

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kProcFs; }

  StatsRecord collect(SimTime now) const override {
    std::this_thread::sleep_for(kChannelRtt);  // channel round trip
    StatsRecord r;
    r.element = id_;
    r.timestamp = now;
    // Parse "key: value" lines from the blob.
    size_t pos = 0;
    while (pos < blob_.size()) {
      size_t colon = blob_.find(':', pos);
      size_t eol = blob_.find('\n', pos);
      if (colon == std::string::npos || eol == std::string::npos) break;
      std::string key = blob_.substr(pos, colon - pos);
      while (!key.empty() && key.front() == ' ') key.erase(key.begin());
      uint64_t value = std::stoull(blob_.substr(colon + 1, eol - colon - 1));
      r.attrs.push_back(Attr{key, static_cast<double>(value)});
      pos = eol + 1;
    }
    return r;
  }

 private:
  ElementId id_;
  std::string blob_;
};

struct Fleet {
  sim::Simulator sim{Duration::millis(1)};
  cluster::Deployment dep;
  std::vector<std::unique_ptr<ProcTextSource>> sources;

  explicit Fleet(size_t pool_workers) : dep(&sim, pool_workers) {
    for (size_t a = 0; a < kAgents; ++a) {
      Agent* agent = dep.add_agent("host" + std::to_string(a));
      for (size_t e = 0; e < kElementsPerAgent; ++e) {
        sources.push_back(std::make_unique<ProcTextSource>(
            ElementId{"host" + std::to_string(a) + "/eth" + std::to_string(e)},
            a * kElementsPerAgent + e));
        Status st = agent->add_element(sources.back().get());
        PS_CHECK(st.is_ok());
      }
    }
  }
};

// Wall time of kSweepsPerRound fleet sweeps, plus the concatenated wire
// encoding of the last sweep (for the determinism check).
double sweep_seconds(Fleet& fleet, std::string* wire_out) {
  auto start = std::chrono::steady_clock::now();
  for (int s = 0; s < kSweepsPerRound; ++s) {
    auto groups = fleet.dep.poll_sweep(SimTime::millis(s));
    if (s == kSweepsPerRound - 1 && wire_out != nullptr) {
      for (const auto& group : groups) {
        for (const QueryResponse& resp : group) {
          *wire_out += to_text(resp.record);
          *wire_out += '|';
        }
      }
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  heading("Poll-sweep scaling across the collection pool",
          "PerfSight (IMC'15) Sec. 7.4 collection overhead, parallelised");
  Reporter report("poll_scaling");
  note("%zu agents x %zu elements, %d sweeps per pool size per round, "
       "fastest of %d rounds",
       kAgents, kElementsPerAgent, kSweepsPerRound, kRounds);
  note("per-element cost: %lld us channel RTT + /proc text parse",
       static_cast<long long>(kChannelRtt.count()));

  const size_t kWorkers[] = {1, 2, 4, 8};
  constexpr size_t kConfigs = std::size(kWorkers);
  std::vector<std::unique_ptr<Fleet>> fleets;
  for (size_t workers : kWorkers) {
    fleets.push_back(std::make_unique<Fleet>(workers));
  }
  std::vector<double> best(kConfigs, std::numeric_limits<double>::infinity());
  std::string wire_seq, wire_par;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kConfigs; ++i) {
      std::string* wire = round > 0           ? nullptr
                          : kWorkers[i] == 1 ? &wire_seq
                          : kWorkers[i] == 4 ? &wire_par
                                             : nullptr;
      best[i] = std::min(best[i], sweep_seconds(*fleets[i], wire));
    }
  }

  row({"workers", "sweep(ms)", "speedup"});
  const double base_s = best[0];
  double speedup_at_4 = 0;
  for (size_t i = 0; i < kConfigs; ++i) {
    const double speedup = base_s / best[i];
    if (kWorkers[i] == 4) speedup_at_4 = speedup;
    row({fmt("%.0f", static_cast<double>(kWorkers[i])),
         fmt("%.2f", best[i] * 1e3 / kSweepsPerRound),
         fmt("%.2fx", speedup)});
  }

  // The sweep's wire encoding is deterministic (fixed fleet, fixed seeds);
  // its byte count gates.  Wall-clock speedup depends on the runner's cores.
  report.gate("wire_bytes", static_cast<double>(wire_seq.size()));
  report.info("speedup_at_4", speedup_at_4);
  report.info("sweep_ms_sequential", base_s * 1e3 / kSweepsPerRound);

  shape_check(speedup_at_4 >= 2.0,
              "fleet sweep >= 2x faster with 4 workers than sequential");
  shape_check(!wire_seq.empty() && wire_seq == wire_par,
              "parallel sweep wire output byte-identical to sequential");
  return 0;
}
