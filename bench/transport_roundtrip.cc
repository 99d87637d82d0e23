// Socket transport round trips: what one PSB2 batch costs over loopback.
//
// A RemoteAgentServer wraps an in-process agent; a RemoteAgent dials it over
// tcp (127.0.0.1) and a unix-domain socket, and we measure query_batch wall
// time per sweep at several batch widths.  The contract under test doubles
// as the gate: the records that cross the socket must be byte-identical to
// the in-process agent's own answers, and one 64-element batch must beat 64
// single-element round trips by a wide margin (the length-chained framing
// amortises the per-trip syscall + poll cost exactly like the controller's
// batching amortises modelled channel time).
//
// A second, deterministic gate prices the batch reply on real traffic: one
// Fig. 8 machine agent's mixed-kind query_batch (pNIC, TUNs, vNICs,
// vswitch...), PSB2-encoded, in bytes per record.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "cluster/scenarios.h"
#include "perfsight/agent.h"
#include "perfsight/remote_agent.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"
#include "perfsight/transport.h"
#include "perfsight/wire.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

constexpr size_t kElements = 64;
constexpr int kSweeps = 400;

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

// Wall seconds for kSweeps batch round trips of `ids` against `remote`.
double sweep_seconds(RemoteAgent& remote, const std::vector<ElementId>& ids) {
  auto start = std::chrono::steady_clock::now();
  for (int s = 0; s < kSweeps; ++s) {
    BatchResponse b = remote.query_batch(ids, SimTime::millis(s));
    PS_CHECK(b.responses.size() == ids.size());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// PSB2 bytes per record of one Fig. 8 machine agent's full sweep, and what
// the same batch costs with every frame carrying its attr names (each frame
// in its standalone form).
struct BatchBytes {
  double per_record = 0;
  double names_every_frame = 0;
};
BatchBytes fig8_batch_bytes() {
  cluster::Fig8Scenario s;
  s.sim().run_for(Duration::millis(100));
  AgentClient* agent = s.deployment().controller()->agents().front();
  const BatchResponse b =
      agent->query_batch(agent->element_ids(), s.sim().now());
  PS_CHECK(!b.responses.empty());
  size_t names_every_frame = wire::kBatchHeaderSize;
  for (const QueryResponse& r : b.responses) {
    names_every_frame += wire::encode_frame(r).value().size();
  }
  const auto n = static_cast<double>(b.responses.size());
  return {static_cast<double>(wire::encode_batch(b).value().size()) / n,
          static_cast<double>(names_every_frame) / n};
}

}  // namespace

int main() {
  heading("PSB2 batch round trips over real sockets",
          "PerfSight (IMC'15) Sec. 3 distributed agents; transport layer");
  Reporter report("transport_roundtrip");
  note("%zu elements on one agent, %d sweeps per config", kElements, kSweeps);

  Agent agent("bench-agent", 1);
  std::vector<std::unique_ptr<ConstSource>> sources;
  std::vector<ElementId> ids;
  for (size_t e = 0; e < kElements; ++e) {
    sources.push_back(std::make_unique<ConstSource>(
        ElementId{"host/eth" + std::to_string(e)}, e));
    PS_CHECK(agent.add_element(sources.back().get()).is_ok());
    ids.push_back(sources.back()->id());
  }

  const std::string unix_path =
      "/tmp/ps-bench-" + std::to_string(::getpid()) + ".sock";
  struct Config {
    const char* name;
    transport::Endpoint ep;
  } configs[] = {
      {"tcp", transport::Endpoint::tcp("127.0.0.1", 0)},
      {"unix", transport::Endpoint::unix_path(unix_path)},
  };

  const std::string oracle =
      record_bytes(agent.query_batch(ids, SimTime::millis(0)));
  bool identical = true;
  double tcp_batch64_s = 0, tcp_single_s = 0;

  row({"transport", "batch", "sweep(us)", "elem(us)"});
  for (const Config& cfg : configs) {
    RemoteAgentServer server(&agent, cfg.ep);
    PS_CHECK(server.start().is_ok());
    RemoteAgent remote(server.endpoint());
    PS_CHECK(remote.connect().is_ok());

    identical = identical &&
                record_bytes(remote.query_batch(ids, SimTime::millis(0))) ==
                    oracle;

    for (size_t width : {1u, 16u, 64u}) {
      std::vector<ElementId> sub(ids.begin(), ids.begin() + width);
      double s = sweep_seconds(remote, sub);
      if (cfg.ep.kind == transport::Endpoint::Kind::kTcp) {
        if (width == 64) tcp_batch64_s = s;
        if (width == 1) tcp_single_s = s;
      }
      row({cfg.name, fmt("%.0f", static_cast<double>(width)),
           fmt("%.1f", s * 1e6 / kSweeps),
           fmt("%.2f", s * 1e6 / kSweeps / width)});
    }
  }

  // 64 elements per trip vs 64 trips of 1: the batch pays one syscall+poll
  // chain for the sweep, the singles pay it per element.
  const double amortisation = (tcp_single_s * 64.0) / tcp_batch64_s;
  note("tcp amortisation: 64x1 would cost %.2fx one 64-wide batch",
       amortisation);

  // The oracle's wire rendering is a pure function of the fixed fleet, so
  // its size gates; round-trip timings are loopback wall clock, info only.
  report.gate("oracle_record_bytes", static_cast<double>(oracle.size()));
  const BatchBytes fig8 = fig8_batch_bytes();
  note("Fig. 8 agent batch: %.1f B/record (%.1f with names in every frame)",
       fig8.per_record, fig8.names_every_frame);
  report.gate("psb_bytes_per_record", fig8.per_record);
  report.info("psb_bytes_per_record_names_every_frame",
              fig8.names_every_frame);
  report.info("tcp_amortisation_64", amortisation);
  report.info("tcp_batch64_sweep_us", tcp_batch64_s * 1e6 / kSweeps);

  shape_check(identical,
              "records off the socket byte-identical to in-process agent");
  shape_check(amortisation >= 3.0,
              "64-wide batch >= 3x cheaper than 64 single-element trips");
  return 0;
}
