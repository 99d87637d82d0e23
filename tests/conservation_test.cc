// System-wide conservation properties:
//  * the packet path never creates or destroys packets — everything offered
//    is delivered, dropped at an instrumented element, or still queued;
//  * the stream layer is lossless end-to-end (probe "drops" are counter
//    signals, not data loss): after the source stops and buffers drain, the
//    sink has read exactly what the source wrote;
//  * the wire format round-trips arbitrary records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "mbox/app.h"
#include "mbox/presets.h"
#include "mbox/stream.h"
#include "perfsight/stats.h"
#include "perfsight/wire.h"
#include "sim/simulator.h"
#include "vm/machine.h"

namespace perfsight {
namespace {

using namespace literals;

// --- packet-path conservation ------------------------------------------------

class PacketConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacketConservation, OfferedEqualsDeliveredPlusDroppedPlusQueued) {
  Pcg32 rng(GetParam());
  sim::Simulator sim(Duration::millis(1));
  dp::StackParams params;
  // Random-ish stressed configuration.
  params.pnic_rate = DataRate::gbps(1 + rng.next_below(9));
  params.tun_queue_pkts = 256 + rng.next_below(4096);
  vm::PhysicalMachine m("m0", params, &sim);
  const int vms = 2 + static_cast<int>(rng.next_below(3));
  std::vector<vm::IngressSource*> sources;
  for (int i = 0; i < vms; ++i) {
    int v = m.add_vm({"vm" + std::to_string(i), 1.0});
    m.set_sink_app(v);
    FlowSpec f;
    f.id = FlowId{static_cast<uint32_t>(i + 1)};
    f.packet_size = 256 + rng.next_below(1300);
    m.route_flow_to_vm(f, v);
    sources.push_back(m.add_ingress_source(
        "s" + std::to_string(i), f,
        DataRate::mbps(200 + rng.next_below(3000))));
  }
  if (rng.next_below(2) == 0) {
    m.add_mem_hog("hog")->set_demand_bytes_per_sec(30e9);
  }
  if (rng.next_below(2) == 0) {
    m.add_vm_cpu_hog(0)->set_demand_cores(1.0);
  }
  sim.run_for(1_s);
  // Stop the offered load and drain the pipeline.
  for (auto* s : sources) s->set_rate(DataRate::zero());
  sim.run_for(1_s);

  // Everything accepted into the machine (pNIC rx counter) must be
  // accounted for: delivered to an app, dropped at an instrumented element
  // downstream, or still sitting in a queue.
  uint64_t accepted = m.pnic()->stats().pkts_in.value();
  uint64_t delivered = 0;
  uint64_t dropped = m.backlog()->stats().drop_pkts.value() +
                     m.vswitch()->stats().drop_pkts.value();
  uint64_t queued = m.pnic()->rx_queued_packets() + m.backlog()->queued_packets();
  for (int i = 0; i < vms; ++i) {
    delivered += m.app(i)->stats().pkts_in.value();
    dropped += m.tun(i)->stats().drop_pkts.value() +
               m.vnic(i)->stats().drop_pkts.value() +
               m.guest_socket(i)->stats().drop_pkts.value() +
               m.guest_backlog(i)->stats().drop_pkts.value();
    queued += m.tun(i)->queued_packets() + m.vnic(i)->rx_queued_packets() +
              m.guest_socket(i)->queued_packets() +
              m.guest_backlog(i)->queued_packets();
  }
  EXPECT_EQ(accepted, delivered + dropped + queued) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketConservation,
                         ::testing::Values(11, 222, 3333));

// --- stream losslessness ---------------------------------------------------

class StreamLossless : public ::testing::TestWithParam<int> {};

TEST_P(StreamLossless, SinkReadsExactlyWhatSourceWrote) {
  sim::Simulator sim(Duration::millis(1));
  mbox::StreamMachine m(mbox::StreamMachineConfig{"m0", 8, 25e9, 16}, &sim);
  mbox::StreamVmConfig va;
  va.name = "a";
  va.vnic = DataRate::mbps(50 * GetParam());
  auto* A = m.add_vm(va);
  mbox::StreamVmConfig vb;
  vb.name = "b";
  vb.vnic = 100_mbps;
  auto* B = m.add_vm(vb);
  auto* c = m.connect(A, B, {"a-b"});
  mbox::StreamAppConfig src_cfg = mbox::presets::client(40_mbps);
  auto* src = m.add_app(A, "src", src_cfg);
  src->add_output(c, 1.0);
  auto* dst = m.add_app(B, "dst", mbox::presets::server(DataRate::gbps(1)));
  dst->add_input(c);
  // Contention so the path throttles and "probe drops" fire.
  auto* hog = m.add_mem_hog("hog");
  hog->set_demand_bytes_per_sec(24e9);

  sim.run_for(2_s);
  src->set_gen_rate(1e-9);  // effectively stop generating
  hog->set_demand_bytes_per_sec(0);
  sim.run_for(2_s);  // drain

  // Lossless: everything the source wrote is now at the sink (probe drops
  // are a TUN counter signal, not data loss).
  EXPECT_EQ(dst->stats().bytes_in.value(), src->stats().bytes_out.value());
  EXPECT_EQ(c->readable(), 0u);
}

INSTANTIATE_TEST_SUITE_P(VnicSizes, StreamLossless, ::testing::Values(1, 4));

// --- wire-format fuzz round trip ------------------------------------------------

class WireRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireRoundTrip, RandomRecordsSurvive) {
  Pcg32 rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    StatsRecord r;
    r.timestamp = SimTime::nanos(static_cast<int64_t>(rng.next_u32()) *
                                 (rng.next_below(2) ? 1 : 1000));
    std::string name = "m";
    for (int i = 0; i < 1 + static_cast<int>(rng.next_below(12)); ++i) {
      const char alphabet[] =
          "abcdefghijklmnopqrstuvwxyz0123456789/-_.";
      name += alphabet[rng.next_below(sizeof(alphabet) - 1)];
    }
    r.element = ElementId{name};
    int attrs = static_cast<int>(rng.next_below(6));
    for (int a = 0; a < attrs; ++a) {
      double v = rng.next_below(2) ? static_cast<double>(rng.next_u32())
                                   : rng.uniform(-1e6, 1e6);
      r.attrs.push_back({"attr" + std::to_string(a), v});
    }
    QueryResponse q;
    q.record = r;
    size_t consumed = 0;
    Result<QueryResponse> decoded =
        wire::decode_frame(wire::encode_frame(q).value(), &consumed);
    ASSERT_TRUE(decoded.ok()) << to_text(r);
    const StatsRecord& back = decoded.value().record;
    EXPECT_EQ(back.element, r.element);
    EXPECT_EQ(back.timestamp.ns(), r.timestamp.ns());
    ASSERT_EQ(back.attrs.size(), r.attrs.size());
    // The PSB2 frame carries IEEE-754 bits: values survive exactly.
    for (size_t a = 0; a < r.attrs.size(); ++a) {
      EXPECT_EQ(back.attrs[a].name, r.attrs[a].name);
      EXPECT_EQ(back.attrs[a].value, r.attrs[a].value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip, ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace perfsight
