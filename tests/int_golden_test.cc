// Frozen transcript of the in-band telemetry path.  One Fig. 8 timeline
// (eleven 2 s phases, 1 ms ticks) runs with the perfbench dataplane_int
// attach set: 1-in-8 sampling at the pNIC, the NAPI poll and every per-VM
// element, each guest socket harvesting, and a harvester closing every
// 100 ms window into a StreamCache.  The transcript records the stamper and
// harvester Stats, every microburst the harvester fires, a digest of each
// window's kInband records (to_text, ascending element id), and the full
// text of one window in phase 1 (rx flood) and phase 9 (middlebox CPU hog).
// Any rewrite of the stamp/harvest path must reproduce it byte for byte.
//
// Regenerate only for an intended behaviour change, and say why in the
// change description:
//   PERFSIGHT_UPDATE_GOLDEN=1 ./build/tests/int_golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenarios.h"
#include "common/rng.h"
#include "perfsight/inband.h"
#include "perfsight/stats.h"
#include "perfsight/streaming.h"
#include "perfsight/wire.h"
#include "per_id_reference.h"

namespace perfsight {
namespace {

constexpr Duration kPhase = Duration::seconds(2.0);
constexpr int kPhases = 11;
constexpr Duration kIntWindow = Duration::millis(100);
const char* const kAgent = "m0/int";

std::string hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string fig8_transcript() {
  cluster::Fig8Scenario s;
  inband::IntStamper stamper{inband::IntStamper::Config{8, 16, 4096}};
  StreamCache cache;
  inband::IntHarvester harvester{
      &stamper, &cache,
      inband::IntHarvester::Config{kAgent, 2000, Duration::millis(500)}};

  s.schedule_phases(kPhase);
  vm::PhysicalMachine& m = s.machine();
  std::vector<ElementId> ids;
  auto attach = [&](auto& e) {
    ids.push_back(e.id());
    return stamper.attach(e);
  };
  attach(*m.pnic());
  attach(*m.napi());
  for (int i = 0; i < m.num_vms(); ++i) {
    attach(*m.tun(i));
    attach(*m.hyperio(i));
    attach(*m.vnic(i));
    attach(*m.guest_backlog(i));
    stamper.set_harvest(attach(*m.guest_socket(i)), true);
  }
  std::sort(ids.begin(), ids.end());
  stamper.enable_all(true);
  cache.set_retention(4);

  std::string out;
  harvester.set_on_microburst([&](const inband::IntHarvester::Microburst& b) {
    out += "burst " + std::to_string(b.window_start.ns()) +
           " peak=" + std::to_string(b.peak_depth_pkts);
    for (const ElementId& id : b.elements) out += " " + id.name;
    out += "\n";
  });
  const SimTime full_text[] = {SimTime::millis(3000), SimTime::millis(19000)};
  s.sim().every(SimTime(), s.sim().tick(),
                [&] { stamper.set_now(s.sim().now()); });
  s.sim().every(SimTime() + kIntWindow, kIntWindow, [&] {
    const SimTime w = s.sim().now() - kIntWindow;
    const size_t flights = harvester.close_window(w);
    std::string text;
    size_t records = 0;
    for (const ElementId& id : ids) {
      const std::optional<QueryResponse> r = read_one(cache, kAgent, id, w);
      if (!r) continue;
      ++records;
      text += to_text(r->record) + "\n";
    }
    out += "window " + std::to_string(w.ns()) + " flights=" +
           std::to_string(flights) + " records=" + std::to_string(records) +
           " digest=" + hex(fnv1a64(text)) + "\n";
    if (std::find(std::begin(full_text), std::end(full_text), w) !=
        std::end(full_text)) {
      out += text;
    }
  });
  s.sim().run_until(SimTime::nanos(kPhase.ns() * kPhases));

  const inband::IntStamper::Stats ss = stamper.stats();
  out += "stamper pkts_seen=" + std::to_string(ss.pkts_seen) +
         " flights_started=" + std::to_string(ss.flights_started) +
         " hops_stamped=" + std::to_string(ss.hops_stamped) +
         " flights_harvested=" + std::to_string(ss.flights_harvested) +
         " flights_dropped=" + std::to_string(ss.flights_dropped) +
         " flights_expired=" + std::to_string(ss.flights_expired) +
         " hops_truncated=" + std::to_string(ss.hops_truncated) + "\n";
  const inband::IntHarvester::Stats hs = harvester.stats();
  out += "harvester windows_closed=" + std::to_string(hs.windows_closed) +
         " flights_absorbed=" + std::to_string(hs.flights_absorbed) +
         " microbursts=" + std::to_string(hs.microbursts) +
         " report_bytes=" + std::to_string(hs.report_bytes) + "\n";
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

TEST(IntGoldenTest, Fig8TimelineTranscript) {
  check_golden("int_fig8.txt", fig8_transcript());
}

}  // namespace
}  // namespace perfsight
