// In-band telemetry (perfsight/inband.h): the INT differential and the
// stamping/harvest contracts.
//
// The load-bearing guarantee: with stamping disabled (or never attached)
// the packet path is BIT-IDENTICAL to a build without INT — same counters,
// same queue evolution, same collected records — and zero INT bytes exist
// anywhere.  With stamping enabled, the standard counters still never
// change (the tag is metadata riding the fluid simulation, not traffic);
// what changes is that completed flights exist, aggregate into kInband
// StreamCache windows in the agent-channel attr format, and an
// INT-observed microburst triggers a targeted pull over exactly the
// implicated elements.
#include "perfsight/inband.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/backlog.h"
#include "dataplane/pnic.h"
#include "dataplane/pumps.h"
#include "dataplane/queues.h"
#include "perfsight/agent.h"
#include "perfsight/controller.h"
#include "perfsight/streaming.h"
#include "perfsight/wire.h"
#include "per_id_reference.h"

namespace perfsight {
namespace {

using dp::GuestBacklog;
using dp::GuestSocket;
using dp::GuestStack;
using dp::HypervisorIo;
using dp::NapiPoll;
using dp::PCpuBacklog;
using dp::PNic;
using dp::PortIn;
using dp::Tun;
using dp::VNic;

constexpr TenantId kTenant{1};

PacketBatch batch(uint32_t flow, uint64_t pkts, uint64_t size = 1500) {
  return PacketBatch{FlowId{flow}, pkts, pkts * size};
}

// Forwards the vswitch-side traffic into the TUN so the chain closes
// pNIC -> ... -> guest socket end to end.
struct ForwardPort : PortIn {
  PortIn* out = nullptr;
  void accept(PacketBatch b) override {
    if (out) out->accept(std::move(b));
  }
};

// The full per-VM chain from pumps_test, closed through a forwarding port.
struct ChainRig {
  ResourcePool cpu{"cpu", 8.0};
  ResourcePool mem{"mem", 25e9, PoolPolicy::kProportional};
  ResourcePool::ConsumerId softirq, qemu_cpu, qemu_mem, vcpu, backlog_mem;
  PNic pnic{ElementId{"pnic"}, {DataRate::gbps(10), 4096, 4096}};
  ForwardPort to_tun;
  std::unique_ptr<PCpuBacklog> backlog;
  Tun tun{ElementId{"tun"}, 0, QueueCaps{4096, 4 << 20}};
  VNic vnic{ElementId{"vnic"}, 0, 4096};
  GuestBacklog gbacklog{ElementId{"gb"}, 0, 4096};
  GuestSocket gsocket{ElementId{"gs"}, 0, 64 << 20};
  std::unique_ptr<NapiPoll> napi;
  std::unique_ptr<HypervisorIo> hyperio;
  std::unique_ptr<GuestStack> guest;
  SimTime now;

  ChainRig() {
    softirq = cpu.add_consumer({"softirq", 50.0, 2.0});
    qemu_cpu = cpu.add_consumer({"qemu", 1.0, 1.0});
    vcpu = cpu.add_consumer({"vcpu", 1.0, 1.0});
    backlog_mem = mem.add_consumer({"softirq-mem", 50.0, -1.0});
    qemu_mem = mem.add_consumer({"qemu-mem", 1.0, -1.0});
    backlog = std::make_unique<PCpuBacklog>(
        ElementId{"backlog"}, PCpuBacklog::Config{}, &cpu, softirq, &mem,
        backlog_mem, &to_tun);
    to_tun.out = &tun;
    napi = std::make_unique<NapiPoll>(ElementId{"napi"}, NapiPoll::Config{},
                                      &pnic, backlog.get(), &cpu, softirq);
    hyperio = std::make_unique<HypervisorIo>(
        ElementId{"qemu-io"}, 0, HypervisorIo::Config{}, &tun, &vnic,
        backlog.get(), &cpu, qemu_cpu, &mem, qemu_mem);
    guest = std::make_unique<GuestStack>("guest", GuestStack::Config{},
                                        &vnic, &gbacklog, &gsocket, &cpu,
                                        vcpu);
  }

  // Attach every stamping element; harvest at the guest socket.  Returns
  // nothing — slots live inside the stamper, elements keep back-pointers.
  void attach(inband::IntStamper& s) {
    s.attach(pnic);
    s.attach(*napi);
    s.attach(tun);
    s.attach(*hyperio);
    s.attach(vnic);
    s.attach(gbacklog);
    int gs_slot = s.attach(gsocket);
    s.set_harvest(gs_slot, true);
  }

  std::vector<dp::Element*> elements() {
    return {&pnic,  napi.get(), &tun,      hyperio.get(),
            &vnic, &gbacklog,  &gsocket};
  }

  void tick(inband::IntStamper* s = nullptr, Duration dt = Duration::millis(1)) {
    if (s) s->set_now(now);
    cpu.step(now, dt);
    mem.step(now, dt);
    backlog->step(now, dt);
    pnic.step(now, dt);
    napi->step(now, dt);
    hyperio->step(now, dt);
    guest->step(now, dt);
    // The middlebox application always keeps up: drain the socket buffer so
    // steady-state depths reflect in-flight occupancy, not unread backlog.
    gsocket.fetch(UINT64_MAX, UINT64_MAX);
    now = now + dt;
  }
};

// Canonical byte form of one element's collected record — exact equality,
// through the same codec the agent channels ship.
std::string canon(const dp::Element& e, SimTime at) {
  QueryResponse r;
  r.record = e.collect(at);
  r.quality = DataQuality::kFresh;
  r.attempts = 1;
  return wire::encode_frame(r).value();
}

// --- the INT differential ----------------------------------------------------

TEST(IntDifferentialTest, DisabledStampingIsBitIdenticalAndZeroBytes) {
  ChainRig bare;                      // no stamper at all
  ChainRig attached;                  // attached, every enable bit off
  ChainRig enabled;                   // attached and stamping
  inband::IntStamper off_stamper;
  inband::IntStamper on_stamper(inband::IntStamper::Config{1, 16, 4096});
  attached.attach(off_stamper);
  enabled.attach(on_stamper);
  on_stamper.enable_all(true);

  for (int t = 0; t < 40; ++t) {
    for (ChainRig* r : {&bare, &attached, &enabled}) {
      if (t < 30) r->pnic.offer_rx(batch(1, 120));
    }
    bare.tick();
    attached.tick(&off_stamper);
    enabled.tick(&on_stamper);
  }

  const SimTime at = bare.now;
  auto be = bare.elements();
  auto ae = attached.elements();
  auto ee = enabled.elements();
  for (size_t i = 0; i < be.size(); ++i) {
    // Disabled differential: byte-identical collection transcripts.
    EXPECT_EQ(canon(*ae[i], at), canon(*be[i], at))
        << ae[i]->id().name << " diverged with a disabled stamper";
    // Stamping carries no traffic: even ENABLED, every standard counter and
    // queue depth is bit-identical — the tag is pure metadata.
    EXPECT_EQ(canon(*ee[i], at), canon(*be[i], at))
        << ee[i]->id().name << " diverged with stamping enabled";
  }

  // Zero INT bytes with the bits off...
  const inband::IntStamper::Stats off = off_stamper.stats();
  EXPECT_EQ(off.pkts_seen, 0u);
  EXPECT_EQ(off.flights_started, 0u);
  EXPECT_EQ(off.hops_stamped, 0u);
  // ...and real flights with them on.
  const inband::IntStamper::Stats on = on_stamper.stats();
  EXPECT_GT(on.flights_started, 0u);
  EXPECT_GT(on.flights_harvested, 0u);
  EXPECT_GT(on.hops_stamped, on.flights_started);
}

TEST(IntStamperTest, SingleFlightWalksTheWholeChainInOrder) {
  ChainRig rig;
  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 4096});
  rig.attach(stamper);
  stamper.enable_all(true);

  // One batch, then idle ticks to drain it through to the guest socket.
  rig.pnic.offer_rx(batch(1, 100));
  for (int t = 0; t < 10; ++t) rig.tick(&stamper);

  std::vector<inband::Flight> flights;
  stamper.take_finished(&flights);
  ASSERT_EQ(flights.size(), 1u);
  const inband::Flight& f = flights[0];
  EXPECT_FALSE(f.dropped);
  EXPECT_GE(f.end.ns(), f.start.ns());
  std::vector<std::string> path;
  for (const inband::Hop& h : f.hops) {
    path.push_back(stamper.slot_info(h.slot).id.name);
  }
  EXPECT_EQ(path, (std::vector<std::string>{"pnic", "napi", "tun", "qemu-io",
                                            "vnic", "gb", "gs"}));
  for (const inband::Hop& h : f.hops) EXPECT_FALSE(h.drop_tail);
  // The hypervisor copy hop attributed io-time to its own hop.
  EXPECT_GT(f.hops[3].io_time.ns(), 0);
  // vm attribution survives through the hop's slot.
  const inband::SlotInfo tun = stamper.slot_info(f.hops[2].slot);
  EXPECT_EQ(tun.kind, ElementKind::kTun);
  EXPECT_EQ(tun.vm, 0);
}

TEST(IntStamperTest, ExactOneInNSampling) {
  inband::IntStamper stamper(inband::IntStamper::Config{64, 16, 1 << 20});
  int slot = stamper.register_element(ElementId{"e"}, ElementKind::kPNic, -1);
  stamper.enable(slot, true);
  uint64_t tags = 0;
  // 1000 batches x 16 pkts: 16000 pkts cross 250 sample boundaries.
  for (int i = 0; i < 1000; ++i) {
    if (stamper.maybe_tag(slot, batch(1, 16), 0) != 0) ++tags;
  }
  EXPECT_EQ(tags, 250u);
  EXPECT_EQ(stamper.stats().pkts_seen, 16000u);
  EXPECT_EQ(stamper.stats().flights_started, 250u);
  // The knob is live: 1-in-1 tags every batch.
  stamper.set_sample_every(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(stamper.maybe_tag(slot, batch(1, 3), 0), 0u);
  }
}

TEST(IntStamperTest, DropTailFinalizesFlightWithMarker) {
  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 64});
  int a = stamper.register_element(ElementId{"a"}, ElementKind::kPNic, -1);
  int b = stamper.register_element(ElementId{"b"}, ElementKind::kTun, 0);
  stamper.enable_all(true);
  stamper.set_now(SimTime::millis(5));
  uint64_t tag = stamper.maybe_tag(a, batch(1, 10), 3);
  ASSERT_NE(tag, 0u);
  stamper.set_now(SimTime::millis(6));
  EXPECT_EQ(stamper.arrive(b, tag, 4096), tag);  // arrival at the full queue
  stamper.mark_dropped(b, tag, 4096);
  std::vector<inband::Flight> flights;
  stamper.take_finished(&flights);
  ASSERT_EQ(flights.size(), 1u);
  EXPECT_TRUE(flights[0].dropped);
  ASSERT_EQ(flights[0].hops.size(), 2u);
  EXPECT_FALSE(flights[0].hops[0].drop_tail);
  EXPECT_TRUE(flights[0].hops[1].drop_tail);   // marked, not duplicated
  EXPECT_EQ(flights[0].hops[1].queue_pkts, 4096u);
  EXPECT_EQ(flights[0].end, SimTime::millis(6));
  EXPECT_EQ(stamper.stats().flights_dropped, 1u);

  // Orphaned tags (lost to merges/trims) expire instead of leaking.
  uint64_t orphan = stamper.maybe_tag(a, batch(1, 10), 0);
  ASSERT_NE(orphan, 0u);
  stamper.set_now(SimTime::millis(600));
  stamper.expire(Duration::millis(500));
  EXPECT_EQ(stamper.stats().flights_expired, 1u);
  stamper.take_finished(&flights);
  EXPECT_TRUE(flights.empty());
}

TEST(IntStamperTest, RecycledHopStackIsReusedAndStartsClean) {
  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 64});
  int a = stamper.register_element(ElementId{"a"}, ElementKind::kPNic, -1);
  int b = stamper.register_element(ElementId{"b"}, ElementKind::kTun, 0);
  stamper.enable_all(true);
  const uint64_t first = stamper.maybe_tag(a, batch(1, 10), 3);
  ASSERT_NE(first, 0u);
  EXPECT_EQ(stamper.arrive(b, first, 7), first);
  stamper.mark_dropped(b, first, 7);
  std::vector<inband::Flight> spent;
  stamper.take_finished(&spent);
  ASSERT_EQ(spent.size(), 1u);
  const inband::Hop* stack = spent[0].hops.data();
  stamper.recycle(&spent);
  EXPECT_TRUE(spent.empty());

  // The next flight stamps onto the same buffer, with nothing of the
  // dropped flight left in it.
  stamper.set_harvest(b, true);
  const uint64_t second = stamper.maybe_tag(a, batch(1, 10), 5);
  ASSERT_NE(second, 0u);
  EXPECT_EQ(stamper.arrive(b, second, 1), 0u);
  stamper.take_finished(&spent);
  ASSERT_EQ(spent.size(), 1u);
  EXPECT_EQ(spent[0].tag, second);
  EXPECT_FALSE(spent[0].dropped);
  EXPECT_EQ(spent[0].hops.data(), stack);
  ASSERT_EQ(spent[0].hops.size(), 2u);
  EXPECT_EQ(spent[0].hops[0].queue_pkts, 5u);
  EXPECT_FALSE(spent[0].hops[0].drop_tail);
  EXPECT_EQ(spent[0].hops[1].queue_pkts, 1u);
  EXPECT_FALSE(spent[0].hops[1].drop_tail);
}

TEST(IntStamperTest, ExpireAgesOutTheOrphanAtTheFrontOnly) {
  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 2});
  int a = stamper.register_element(ElementId{"a"}, ElementKind::kPNic, -1);
  int h = stamper.register_element(ElementId{"h"}, ElementKind::kTun, 0);
  stamper.enable_all(true);
  stamper.set_harvest(h, true);

  stamper.set_now(SimTime::millis(0));
  const uint64_t orphan = stamper.maybe_tag(a, batch(1, 1), 0);
  stamper.set_now(SimTime::millis(100));
  const uint64_t done = stamper.maybe_tag(a, batch(1, 1), 0);
  ASSERT_NE(orphan, 0u);
  ASSERT_NE(done, 0u);
  // max_inflight counts live flights: the table is full.
  EXPECT_EQ(stamper.maybe_tag(a, batch(1, 1), 0), 0u);
  EXPECT_EQ(stamper.arrive(h, done, 1), 0u);
  stamper.set_now(SimTime::millis(200));
  const uint64_t young = stamper.maybe_tag(a, batch(1, 1), 0);
  ASSERT_NE(young, 0u);

  // Exactly max_age old is kept; one tick older is an orphan.
  stamper.set_now(SimTime::millis(500));
  stamper.expire(Duration::millis(500));
  EXPECT_EQ(stamper.stats().flights_expired, 0u);
  stamper.set_now(SimTime::millis(501));
  stamper.expire(Duration::millis(500));
  EXPECT_EQ(stamper.stats().flights_expired, 1u);
  stamper.expire(Duration::millis(500));
  EXPECT_EQ(stamper.stats().flights_expired, 1u);

  // The orphan is gone: its tag stops at the harvest slot but finishes
  // nothing.  The later flight survived and still harvests.
  EXPECT_EQ(stamper.arrive(h, orphan, 1), 0u);
  EXPECT_EQ(stamper.arrive(h, young, 1), 0u);
  std::vector<inband::Flight> flights;
  stamper.take_finished(&flights);
  ASSERT_EQ(flights.size(), 2u);
  EXPECT_EQ(flights[0].tag, done);
  EXPECT_EQ(flights[1].tag, young);
  EXPECT_EQ(stamper.stats().flights_harvested, 2u);
  EXPECT_EQ(stamper.stats().flights_expired, 1u);

  // A disabled slot leaves a batch's tag as it found it.
  stamper.enable(a, false);
  PacketBatch tagged = batch(1, 1);
  tagged.int_tag = 42;
  EXPECT_EQ(stamper.maybe_tag(a, tagged, 0), 42u);
}

// --- harvest into the StreamCache -------------------------------------------

TEST(IntHarvesterTest, WindowsLandInCacheAsInbandProvenance) {
  inband::IntStamper stamper(inband::IntStamper::Config{4, 16, 1024});
  int a = stamper.register_element(ElementId{"m0/pnic"}, ElementKind::kPNic, -1);
  int n = stamper.register_element(ElementId{"m0/napi"}, ElementKind::kNapi, -1);
  int b = stamper.register_element(ElementId{"m0/vm0/tun"}, ElementKind::kTun, 0);
  stamper.enable_all(true);
  stamper.set_harvest(b, true);

  StreamCache cache;
  inband::IntHarvester::Config hcfg;
  hcfg.agent = "a0/int";
  hcfg.microburst_depth_pkts = 0;
  inband::IntHarvester harvester(&stamper, &cache, hcfg);

  stamper.set_now(SimTime::millis(50));
  for (int i = 0; i < 8; ++i) {
    uint64_t tag = stamper.maybe_tag(a, batch(1, 4), 10 + i);
    if (tag == 0) continue;
    stamper.stamp(n, tag, 1, Duration::micros(3));
    EXPECT_EQ(stamper.arrive(b, tag, 200), 0u);  // harvested
  }
  const SimTime w = SimTime::millis(100);
  size_t absorbed = harvester.close_window(w);
  EXPECT_EQ(absorbed, 8u);
  EXPECT_GT(harvester.stats().report_bytes, 0u);

  ASSERT_TRUE(cache.window_provenance("a0/int", w).has_value());
  EXPECT_EQ(cache.window_provenance("a0/int", w),
            StreamCache::Provenance::kInband);

  // The records read back through the same AgentClient interface the
  // diagnosis stack uses, in the standard attr vocabulary.
  StreamCacheAgent agent(&cache, "a0/int",
                         {ElementId{"m0/pnic"}, ElementId{"m0/napi"},
                          ElementId{"m0/vm0/tun"}});
  Result<QueryResponse> pnic_r = agent.query_attrs(
      ElementId{"m0/pnic"},
      {attr::kQueuePkts, attr::kType, inband::kIntSamples,
       inband::kIntIoTimeNs},
      w);
  ASSERT_TRUE(pnic_r.ok()) << pnic_r.status().message();
  const StatsRecord& rec = pnic_r.value().record;
  EXPECT_EQ(rec.get_or(attr::kQueuePkts, -1), 17.0);   // peak arrival depth 10..17
  EXPECT_EQ(rec.get_or(attr::kType, -1),
            static_cast<double>(static_cast<int>(ElementKind::kPNic)));
  EXPECT_EQ(rec.get_or(inband::kIntSamples, -1), 8.0);
  EXPECT_EQ(rec.get_or(inband::kIntIoTimeNs, -1), 0.0);
  // The pump hop carries the io-time it was stamped with.
  Result<QueryResponse> napi_r = agent.query_attrs(
      ElementId{"m0/napi"}, {inband::kIntSamples, inband::kIntIoTimeNs}, w);
  ASSERT_TRUE(napi_r.ok()) << napi_r.status().message();
  EXPECT_EQ(napi_r.value().record.get_or(inband::kIntSamples, -1), 8.0);
  EXPECT_EQ(napi_r.value().record.get_or(inband::kIntIoTimeNs, -1),
            8 * 3000.0);
  Result<QueryResponse> tun_r = agent.query_attrs(
      ElementId{"m0/vm0/tun"}, {attr::kQueuePkts, attr::kVm}, w);
  ASSERT_TRUE(tun_r.ok());
  EXPECT_EQ(tun_r.value().record.get_or(attr::kQueuePkts, -1), 200.0);
  EXPECT_EQ(tun_r.value().record.get_or(attr::kVm, -1), 0.0);
}

TEST(IntHarvesterTest, MicroburstTriggersTargetedSweepOverImplicated) {
  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 1024});
  int a = stamper.register_element(ElementId{"m0/pnic"}, ElementKind::kPNic, -1);
  int b = stamper.register_element(ElementId{"m0/vm0/tun"}, ElementKind::kTun, 0);
  int c = stamper.register_element(ElementId{"m0/vm1/tun"}, ElementKind::kTun, 1);
  stamper.enable_all(true);
  stamper.set_harvest(b, true);
  stamper.set_harvest(c, true);

  inband::IntHarvester::Config hcfg;
  hcfg.agent = "int";
  hcfg.microburst_depth_pkts = 256;
  inband::IntHarvester harvester(&stamper, nullptr, hcfg);
  std::vector<inband::IntHarvester::Microburst> bursts;
  harvester.set_on_microburst(
      [&](const inband::IntHarvester::Microburst& m) { bursts.push_back(m); });

  // Steady traffic: shallow depths everywhere -> no trigger, zero targeted
  // queries — hybrid mode is free when nothing is wrong.
  for (int i = 0; i < 5; ++i) {
    uint64_t tag = stamper.maybe_tag(a, batch(1, 1), 4);
    stamper.arrive(b, tag, 8);
  }
  harvester.close_window(SimTime::millis(100));
  EXPECT_TRUE(bursts.empty());
  EXPECT_EQ(harvester.stats().microbursts, 0u);

  // A burst inside the next window: vm0's tun sees a deep excursion, vm1
  // stays shallow.  Only vm0's tun is implicated.
  for (int i = 0; i < 3; ++i) {
    uint64_t tag = stamper.maybe_tag(a, batch(1, 1), 4);
    stamper.arrive(b, tag, 900);
  }
  uint64_t tag = stamper.maybe_tag(a, batch(1, 1), 4);
  stamper.arrive(c, tag, 12);
  harvester.close_window(SimTime::millis(200));
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].window_start, SimTime::millis(200));
  EXPECT_EQ(bursts[0].peak_depth_pkts, 900u);
  ASSERT_EQ(bursts[0].elements.size(), 1u);
  EXPECT_EQ(bursts[0].elements[0].name, "m0/vm0/tun");
  EXPECT_EQ(harvester.stats().microbursts, 1u);
}

// Two slots registered under one ElementId feed one record per window:
// samples sum, the peak is the larger one, and kind/vm come from the last
// hop aggregated.
TEST(IntHarvesterTest, SlotsSharingAnIdYieldOneRecord) {
  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 64});
  int a = stamper.register_element(ElementId{"m0/pnic"}, ElementKind::kPNic, -1);
  int d1 = stamper.register_element(ElementId{"m0/dup"}, ElementKind::kTun, 2);
  int d2 = stamper.register_element(ElementId{"m0/dup"}, ElementKind::kVNic, 3);
  int h = stamper.register_element(ElementId{"m0/gs"},
                                   ElementKind::kGuestSocket, 0);
  stamper.enable_all(true);
  stamper.set_harvest(h, true);

  StreamCache cache;
  inband::IntHarvester::Config hcfg;
  hcfg.agent = "a0/int";
  hcfg.microburst_depth_pkts = 1;
  inband::IntHarvester harvester(&stamper, &cache, hcfg);
  std::vector<std::vector<ElementId>> implicated;
  harvester.set_on_microburst([&](const inband::IntHarvester::Microburst& m) {
    implicated.push_back(m.elements);
  });
  auto fly = [&](std::vector<std::pair<int, uint64_t>> path) {
    uint64_t tag = stamper.maybe_tag(a, batch(1, 1), 1);
    ASSERT_NE(tag, 0u);
    for (const auto& [slot, depth] : path) tag = stamper.arrive(slot, tag, depth);
    EXPECT_EQ(stamper.arrive(h, tag, 1), 0u);
  };
  auto dup_record = [&](SimTime w) {
    std::optional<QueryResponse> r =
        read_one(cache, "a0/int", ElementId{"m0/dup"}, w);
    EXPECT_TRUE(r.has_value());
    return r ? r->record : StatsRecord{};
  };
  const std::vector<ElementId> ids = {
      ElementId{"m0/dup"}, ElementId{"m0/gs"}, ElementId{"m0/pnic"}};

  // Window 1: the last dup hop aggregated is flight 2's d1.
  fly({{d1, 5}, {d2, 7}});
  fly({{d2, 9}, {d1, 2}});
  const SimTime w1 = SimTime::millis(100);
  EXPECT_EQ(harvester.close_window(w1), 2u);
  StatsRecord r = dup_record(w1);
  EXPECT_EQ(r.get_or(inband::kIntSamples, -1), 4.0);
  EXPECT_EQ(r.get_or(attr::kQueuePkts, -1), 9.0);
  EXPECT_EQ(r.get_or(attr::kType, -1),
            static_cast<double>(static_cast<int>(ElementKind::kTun)));
  EXPECT_EQ(r.get_or(attr::kVm, -1), 2.0);

  // Window 2: only d2 is crossed, so kind/vm are d2's.
  fly({{d2, 3}});
  const SimTime w2 = SimTime::millis(200);
  EXPECT_EQ(harvester.close_window(w2), 1u);
  r = dup_record(w2);
  EXPECT_EQ(r.get_or(inband::kIntSamples, -1), 1.0);
  EXPECT_EQ(r.get_or(attr::kType, -1),
            static_cast<double>(static_cast<int>(ElementKind::kVNic)));
  EXPECT_EQ(r.get_or(attr::kVm, -1), 3.0);

  // One record per id, ascending, in both windows.
  EXPECT_EQ(implicated, (std::vector<std::vector<ElementId>>{ids, ids}));
}

// Hybrid wiring end to end: the microburst callback issues a real targeted
// pull over just the implicated elements via Controller::get_attr_many.
TEST(IntHybridTest, TriggerDrivesControllerScatterOverImplicatedOnly) {
  ChainRig rig;
  Agent a0("a0", 11);
  for (dp::Element* e : rig.elements()) {
    ASSERT_TRUE(a0.add_element(e).is_ok());
  }
  SimTime ctl_now;
  Controller ctl([&](Duration d) { ctl_now = ctl_now + d; return ctl_now; },
                 [&] { return ctl_now; });
  ctl.register_agent(&a0);
  for (dp::Element* e : rig.elements()) {
    ASSERT_TRUE(ctl.register_element(kTenant, e->id(), &a0).is_ok());
  }

  inband::IntStamper stamper(inband::IntStamper::Config{1, 16, 4096});
  rig.attach(stamper);
  stamper.enable_all(true);
  StreamCache cache;
  inband::IntHarvester::Config hcfg;
  hcfg.agent = "a0/int";
  hcfg.microburst_depth_pkts = 300;
  inband::IntHarvester harvester(&stamper, &cache, hcfg);
  uint64_t targeted_queries = 0;
  harvester.set_on_microburst(
      [&](const inband::IntHarvester::Microburst& m) {
        std::vector<Result<Controller::QualifiedRecord>> got = ctl.get_attr_many(
            kTenant, m.elements, {attr::kQueuePkts, attr::kDropPkts});
        for (const Result<Controller::QualifiedRecord>& r : got) {
          EXPECT_TRUE(r.ok());
          ++targeted_queries;
        }
      });

  // Steady phase: modest traffic fully drained each tick.
  for (int t = 0; t < 20; ++t) {
    rig.pnic.offer_rx(batch(1, 60));
    rig.tick(&stamper);
  }
  harvester.close_window(SimTime::millis(100));
  EXPECT_EQ(targeted_queries, 0u);

  // Burst phase: a transient host-CPU squeeze (a co-located hog's worth of
  // stolen cycles) stalls the softirq/QEMU pumps so queues back up deep,
  // then the squeeze lifts and the excursion drains — all inside one
  // window, invisible to a boundary-sampling poll.
  rig.cpu.set_capacity_per_sec(0.05);
  for (int t = 0; t < 10; ++t) {
    rig.pnic.offer_rx(batch(1, 900, 300));
    rig.tick(&stamper);
  }
  rig.cpu.set_capacity_per_sec(8.0);
  for (int t = 0; t < 40; ++t) rig.tick(&stamper);
  harvester.close_window(SimTime::millis(200));
  EXPECT_GT(harvester.stats().microbursts, 0u);
  EXPECT_GT(targeted_queries, 0u);
}

// TSan target (--gtest_filter=*Churn*): INT harvest racing agent poll
// sweeps and streaming pumps over the same cache.  Traffic is stamped in a
// single-threaded phase; the race is collection-side.
TEST(IntChurnTest, HarvestRacesPollSweepsAndStreamPumps) {
  ChainRig rig;
  Agent a0("a0", 11);
  std::vector<ElementId> ids;
  for (dp::Element* e : rig.elements()) {
    ASSERT_TRUE(a0.add_element(e).is_ok());
    ids.push_back(e->id());
  }
  inband::IntStamper stamper(inband::IntStamper::Config{2, 16, 4096});
  rig.attach(stamper);
  stamper.enable_all(true);
  for (int t = 0; t < 40; ++t) {
    rig.pnic.offer_rx(batch(1, 200));
    rig.tick(&stamper);
  }

  StreamCache cache;
  inband::IntHarvester::Config hcfg;
  hcfg.agent = "a0/int";
  inband::IntHarvester harvester(&stamper, &cache, hcfg);
  StreamPipeline pipe(&cache, nullptr);
  pipe.add_agent(&a0);

  std::atomic<int> go{0};
  std::thread harvest_thread([&] {
    ++go;
    for (int i = 0; i < 60; ++i) {
      harvester.close_window(SimTime::millis(100 + i));
    }
  });
  std::thread sweep_thread([&] {
    ++go;
    for (int i = 0; i < 60; ++i) {
      BatchResponse b = a0.query_batch(ids, SimTime::millis(100 + i));
      EXPECT_EQ(b.responses.size(), ids.size());
    }
  });
  std::thread pump_thread([&] {
    ++go;
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(pipe.pump(SimTime::millis(100 * (i + 1))).is_ok());
    }
  });
  std::thread stamp_thread([&] {
    ++go;
    // Dataplane hooks racing the drain: tags opened and harvested live.
    int a = stamper.register_element(ElementId{"aux"}, ElementKind::kOther, -1);
    stamper.enable(a, true);
    stamper.set_harvest(a, true);
    for (int i = 0; i < 500; ++i) {
      uint64_t tag = stamper.maybe_tag(a, batch(2, 3), 1);
      if (tag != 0) stamper.arrive(a, tag, 2);
    }
  });
  harvest_thread.join();
  sweep_thread.join();
  pump_thread.join();
  stamp_thread.join();
  EXPECT_EQ(go.load(), 4);
  EXPECT_GT(cache.stats().frames_applied, 0u);
}

}  // namespace
}  // namespace perfsight
