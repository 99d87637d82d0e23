// Frozen transcript of the simulated dataplane itself: every element
// counter, queue depth and resource-pool grant, tick by tick.
//
// A probe stepped last in every tick folds the machine's whole observable
// state into a running FNV-1a digest: each element's ElementStats, each
// queue's depth and drop totals, and each pool's utilization plus every
// consumer's budget, demand and achieved rate (doubles by bit pattern, so
// a reordered floating-point sum shows).  The transcript prints the running
// digest every 100 ms and the full collect() text of every element at the
// end of each run.  Covered timelines:
//   * the 11-phase Fig. 8 timeline (2 s phases) with INT stamping off, and
//     again with the perfbench dataplane_int attach set stamping 1-in-8
//     (stamper and harvester Stats folded in as well);
//   * the four Fig. 12 PropagationScenario cases, 3 s each;
//   * the Fig. 13 MultiTenantScenario operator timeline (management task
//     at 2 s, removed at 4 s, tenant 2 scaled out at 6 s, run to 8 s).
// A rewrite of the simulator's per-tick path (pools, max-min, queues,
// backlog, pumps, INT hooks) must reproduce it byte for byte.
//
// Regenerate only for an intended behaviour change, and say why in the
// change description:
//   PERFSIGHT_UPDATE_GOLDEN=1 ./build/tests/dataplane_golden_test
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenarios.h"
#include "mbox/app.h"
#include "perfsight/inband.h"
#include "perfsight/stats.h"
#include "perfsight/streaming.h"

namespace perfsight {
namespace {

constexpr Duration kPhase = Duration::seconds(2.0);
constexpr int kPhases = 11;
constexpr Duration kLine = Duration::millis(100);

std::string hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

void fold(Digest& d, const dp::Element& e) {
  const ElementStats& s = e.stats();
  d.add(s.pkts_in.value());
  d.add(s.pkts_out.value());
  d.add(s.bytes_in.value());
  d.add(s.bytes_out.value());
  d.add(s.drop_pkts.value());
  d.add(s.drop_bytes.value());
  d.add(s.in_time.nanos());
  d.add(s.out_time.nanos());
}

void fold(Digest& d, const BoundedPacketQueue& q) {
  d.add(q.packets());
  d.add(q.bytes());
  d.add(q.dropped_packets());
  d.add(q.dropped_bytes());
}

void fold(Digest& d, const ResourcePool& p) {
  d.add(p.utilization());
  d.add(p.utilization_ewma());
  for (ResourcePool::ConsumerId c = 0; c < p.num_consumers(); ++c) {
    d.add(p.budget_now(c));
    d.add(p.rate_prev_tick(c));
    d.add(p.demand_prev(c));
    d.add(p.consumed_total(c));
  }
}

std::string pool_text(const ResourcePool& p) {
  std::string out = "pool " + p.name() + " utilization=" +
                    std::to_string(p.utilization()) + "\n";
  for (ResourcePool::ConsumerId c = 0; c < p.num_consumers(); ++c) {
    out += "  " + p.consumer_name(c) + " budget=" +
           std::to_string(p.budget_now(c)) +
           " rate=" + std::to_string(p.rate_prev_tick(c)) + "\n";
  }
  return out;
}

// Stepped after every other component: folds the tick's end state into the
// running digest and prints it every 100 ms.
class Probe : public sim::Steppable {
 public:
  Probe(std::string label, std::function<void(Digest&)> fold_state,
        std::string* out)
      : label_(std::move(label)), fold_(std::move(fold_state)), out_(out) {}

  void step(SimTime now, Duration dt) override {
    fold_(digest_);
    const SimTime end = now + dt;
    if (end.ns() % kLine.ns() == 0) {
      *out_ += label_ + " t=" + std::to_string(end.ns() / 1000000) +
               " digest=" + hex(digest_.value()) + "\n";
    }
  }

 private:
  std::string label_;
  std::function<void(Digest&)> fold_;
  std::string* out_;
  Digest digest_;
};

// --- Fig. 8 -------------------------------------------------------------------

void fold_machine(Digest& d, vm::PhysicalMachine& m) {
  fold(d, *m.cpu_pool());
  fold(d, *m.membus());
  dp::PNic& pnic = *m.pnic();
  fold(d, pnic);
  d.add(pnic.rx_queued_packets());
  d.add(pnic.rx_dropped_packets());
  d.add(pnic.tx_dropped_packets());
  d.add(pnic.rx_wire_bytes());
  d.add(pnic.tx_wire_bytes());
  fold(d, *m.backlog());
  d.add(m.backlog()->queued_packets());
  fold(d, *m.napi());
  fold(d, *m.vswitch());
  for (const dp::VirtualSwitch::Rule& r : m.vswitch()->rules()) {
    d.add(r.pkts);
    d.add(r.bytes);
  }
  for (int i = 0; i < m.num_vms(); ++i) {
    fold(d, *m.tun(i));
    fold(d, m.tun(i)->queue());
    fold(d, *m.hyperio(i));
    dp::VNic& vnic = *m.vnic(i);
    fold(d, vnic);
    d.add(vnic.rx_queued_packets());
    d.add(vnic.tx_queued_packets());
    d.add(vnic.tx_queued_bytes());
    fold(d, *m.guest_backlog(i));
    fold(d, m.guest_backlog(i)->queue());
    fold(d, *m.guest_socket(i));
    fold(d, m.guest_socket(i)->queue());
    if (m.app(i) != nullptr) fold(d, *m.app(i));
  }
}

std::string machine_text(vm::PhysicalMachine& m, SimTime now) {
  std::string out = pool_text(*m.cpu_pool()) + pool_text(*m.membus());
  auto line = [&](const dp::Element& e) {
    out += to_text(e.collect(now)) + "\n";
  };
  line(*m.pnic());
  line(*m.backlog());
  line(*m.napi());
  line(*m.vswitch());
  for (int i = 0; i < m.num_vms(); ++i) {
    line(*m.tun(i));
    line(*m.hyperio(i));
    line(*m.vnic(i));
    line(*m.guest_backlog(i));
    line(*m.guest_socket(i));
    if (m.app(i) != nullptr) line(*m.app(i));
  }
  return out;
}

std::string fig8_transcript(bool stamping) {
  const std::string label = stamping ? "fig8-int" : "fig8";
  cluster::Fig8Scenario s;
  vm::PhysicalMachine& m = s.machine();
  s.schedule_phases(kPhase);

  // The perfbench dataplane_int attach set, enabled or not.
  inband::IntStamper stamper{inband::IntStamper::Config{8, 16, 4096}};
  StreamCache cache;
  inband::IntHarvester harvester{
      &stamper, &cache,
      inband::IntHarvester::Config{"m0/int", 0, Duration::millis(500)}};
  if (stamping) {
    stamper.attach(*m.pnic());
    stamper.attach(*m.napi());
    for (int i = 0; i < m.num_vms(); ++i) {
      stamper.attach(*m.tun(i));
      stamper.attach(*m.hyperio(i));
      stamper.attach(*m.vnic(i));
      stamper.attach(*m.guest_backlog(i));
      stamper.set_harvest(stamper.attach(*m.guest_socket(i)), true);
    }
    stamper.enable_all(true);
    cache.set_retention(4);
    s.sim().every(SimTime(), s.sim().tick(),
                  [&] { stamper.set_now(s.sim().now()); });
    s.sim().every(SimTime() + kLine, kLine,
                  [&] { harvester.close_window(s.sim().now() - kLine); });
  }

  std::string out;
  Probe probe(
      label,
      [&](Digest& d) {
        fold_machine(d, m);
        if (!stamping) return;
        const inband::IntStamper::Stats ss = stamper.stats();
        d.add(ss.pkts_seen);
        d.add(ss.flights_started);
        d.add(ss.hops_stamped);
        d.add(ss.flights_harvested);
        d.add(ss.flights_dropped);
        d.add(ss.flights_expired);
        d.add(ss.hops_truncated);
        const inband::IntHarvester::Stats hs = harvester.stats();
        d.add(hs.flights_absorbed);
        d.add(hs.report_bytes);
      },
      &out);
  s.sim().add(&probe);
  s.sim().run_until(SimTime::nanos(kPhase.ns() * kPhases));

  out += label + " end\n" + machine_text(m, s.sim().now());
  if (stamping) {
    const inband::IntStamper::Stats ss = stamper.stats();
    out += "stamper flights_started=" + std::to_string(ss.flights_started) +
           " hops_stamped=" + std::to_string(ss.hops_stamped) +
           " flights_harvested=" + std::to_string(ss.flights_harvested) +
           " flights_dropped=" + std::to_string(ss.flights_dropped) +
           " flights_expired=" + std::to_string(ss.flights_expired) + "\n";
  }
  return out;
}

// --- stream machines (Fig. 12, Fig. 13) ------------------------------------------

void fold_stream(Digest& d, mbox::StreamMachine& m) {
  fold(d, *m.cpu_pool());
  fold(d, *m.membus());
  for (const auto& v : m.vms()) {
    fold(d, *v->tun());
    d.add(v->ingress_scale());
    d.add(v->egress_available());
  }
  for (const auto& c : m.conns()) {
    d.add(c->delivered_bytes());
    d.add(c->readable());
    d.add(c->writable());
  }
  for (const auto& a : m.apps()) {
    fold(d, *a);
    d.add(static_cast<uint64_t>(a->state()));
  }
}

std::string stream_text(mbox::StreamMachine& m, SimTime now) {
  std::string out = pool_text(*m.cpu_pool()) + pool_text(*m.membus());
  for (const auto& v : m.vms()) out += to_text(v->tun()->collect(now)) + "\n";
  for (const auto& c : m.conns()) {
    out += "conn " + c->name() +
           " delivered=" + std::to_string(c->delivered_bytes()) +
           " readable=" + std::to_string(c->readable()) +
           " writable=" + std::to_string(c->writable()) + "\n";
  }
  for (const auto& a : m.apps()) out += to_text(a->collect(now)) + "\n";
  return out;
}

std::string propagation_transcript() {
  using Case = cluster::PropagationScenario::Case;
  const std::pair<Case, const char*> cases[] = {
      {Case::kHealthy, "healthy"},
      {Case::kOverloadedServer, "overloaded-server"},
      {Case::kUnderloadedClient, "underloaded-client"},
      {Case::kBuggyNfs, "buggy-nfs"}};
  std::string out;
  for (const auto& [c, name] : cases) {
    cluster::PropagationScenario s(c);
    const std::string label = std::string("prop-") + name;
    Probe probe(
        label, [&](Digest& d) { fold_stream(d, s.machine()); }, &out);
    s.sim().add(&probe);
    s.sim().run_for(Duration::seconds(3.0));
    out += label + " end\n" + stream_text(s.machine(), s.sim().now());
  }
  return out;
}

std::string multi_tenant_transcript() {
  cluster::MultiTenantScenario s;
  s.sim().at(SimTime::seconds(2.0), [&] { s.start_management_task(30e9); });
  s.sim().at(SimTime::seconds(4.0), [&] { s.stop_management_task(); });
  s.sim().at(SimTime::seconds(6.0), [&] { s.scale_out_tenant2(); });
  std::string out;
  Probe probe(
      "tenants",
      [&](Digest& d) {
        fold_stream(d, s.lb_machine());
        fold_stream(d, s.edge_machine());
      },
      &out);
  s.sim().add(&probe);
  s.sim().run_until(SimTime::seconds(8.0));
  out += "tenants end\n" + stream_text(s.lb_machine(), s.sim().now()) +
         stream_text(s.edge_machine(), s.sim().now());
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
  // Report the first divergent line rather than two large blobs.
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

TEST(DataplaneGoldenTest, TickByTickTranscript) {
  check_golden("dataplane.txt",
               fig8_transcript(false) + fig8_transcript(true) +
                   propagation_transcript() + multi_tenant_transcript());
}

}  // namespace
}  // namespace perfsight
