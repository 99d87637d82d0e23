// Stream-oriented (TCP-like) transport between middlebox applications.
//
// The propagation experiments (Fig. 12–14) run middlebox chains over TCP,
// where backpressure — not packet drops — carries performance problems
// up- and down-stream (Fig. 7).  This module models that fluidly:
//
//   * StreamConn: a connection with bounded send/receive buffers.  Each
//     tick it moves min(sbuf, link rate, src egress budget, dst ingress
//     budget, rbuf space) bytes.  A full rbuf stalls the sender (the
//     receiver is slow); an empty rbuf starves the reader (the sender is
//     slow) — exactly the two propagation directions of §5.2.
//   * StreamVm: per-VM vNIC capacity plus machine-resource coupling: the
//     VM's ingress service is scaled by its memory-bus/CPU grants, so a
//     memory hog on the machine throttles every VM's delivery (Fig. 13/14's
//     management-task interference).  Throttled or overflowing delivery
//     charges drops to the VM's TUN counter — the signal the operator sees.
//   * StreamMachine: owns the pools, VMs, connections and apps of one
//     physical server.
//
// The instrumented entities (TUN counters, apps) implement StatsSource, so
// the same PerfSight agent/controller/diagnosis stack runs unchanged on
// top of stream scenarios.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "dataplane/element.h"
#include "resources/maxmin.h"
#include "resources/pool.h"
#include "sim/simulator.h"
#include "vm/workloads.h"

namespace perfsight::mbox {

// Bounded FIFO byte reservoir (contents are fluid; no per-byte data).
class ByteBuf {
 public:
  explicit ByteBuf(uint64_t cap) : cap_(cap) {}
  uint64_t push(uint64_t n) {
    uint64_t take = std::min(n, cap_ - size_);
    size_ += take;
    return take;
  }
  uint64_t pop(uint64_t n) {
    uint64_t take = std::min(n, size_);
    size_ -= take;
    return take;
  }
  uint64_t size() const { return size_; }
  uint64_t space() const { return cap_ - size_; }
  uint64_t cap() const { return cap_; }

 private:
  uint64_t cap_;
  uint64_t size_ = 0;
};

// TUN/TAP counter surface for a stream VM: the per-VM drop/throughput
// element agents query.  (Stream delivery is fluid, so this element records
// rather than queues.)
class TunCounter : public dp::Element {
 public:
  TunCounter(ElementId id, int vm_index)
      : dp::Element(std::move(id), ElementKind::kTun, vm_index) {}

  void record_delivered(uint64_t bytes, uint32_t mtu) {
    PacketBatch b{FlowId{0}, bytes / mtu + (bytes % mtu ? 1 : 0), bytes};
    note_in(b);
    note_out(b);
  }
  void record_dropped(uint64_t bytes, uint32_t mtu) {
    note_drop(bytes / mtu + (bytes % mtu ? 1 : 0), bytes);
  }
};

struct StreamVmConfig {
  std::string name;
  DataRate vnic = DataRate::mbps(100);
  double mem_per_byte = 17.2;   // bus bytes per delivered wire byte
  double cpu_per_byte = 1.2e-9; // cpu-seconds per delivered wire byte
};

class StreamVm : public sim::Steppable {
 public:
  StreamVm(StreamVmConfig cfg, int index, ResourcePool* cpu,
           ResourcePool::ConsumerId cpu_consumer, ResourcePool* membus,
           ResourcePool::ConsumerId mem_consumer, ElementId tun_id)
      : cfg_(std::move(cfg)),
        cpu_(cpu),
        cpu_consumer_(cpu_consumer),
        membus_(membus),
        mem_consumer_(mem_consumer),
        tun_(std::move(tun_id), index) {}

  void step(SimTime now, Duration dt) override;
  std::string name() const override { return cfg_.name; }

  DataRate vnic_rate() const { return cfg_.vnic; }
  void set_vnic_rate(DataRate r) { cfg_.vnic = r; }

  // --- connection side --------------------------------------------------
  // Inbound connections register once; the per-tick ingress budget is
  // divided max-min fairly across them by last tick's offers (no one
  // connection can monopolize the vNIC), with unclaimed budget lent out
  // work-conservingly.
  int register_ingress_conn() {
    conn_alloc_.push_back(0);
    conn_offer_prev_.push_back(0);
    conn_offer_accum_.push_back(0);
    return static_cast<int>(conn_alloc_.size() - 1);
  }
  uint64_t ingress_available(int conn) const {
    return conn_alloc_[conn] + ingress_spare_;
  }
  void take_ingress(int conn, uint64_t n) {
    uint64_t from_alloc = std::min(conn_alloc_[conn], n);
    conn_alloc_[conn] -= from_alloc;
    ingress_spare_ -= std::min(ingress_spare_, n - from_alloc);
  }
  uint64_t egress_available() const { return egress_budget_; }
  void take_egress(uint64_t n) { egress_budget_ -= std::min(egress_budget_, n); }
  // Offered (pre-throttle) ingress volume: sizes next tick's resource
  // demand and this connection's fair share.
  void note_ingress_offer(int conn, uint64_t n) {
    offered_accum_ += n;
    conn_offer_accum_[conn] += n;
  }

  TunCounter* tun() { return &tun_; }
  // Fraction of nominal ingress service currently granted (1 = unthrottled).
  double ingress_scale() const { return ingress_scale_; }

 private:
  StreamVmConfig cfg_;
  ResourcePool* cpu_;
  ResourcePool::ConsumerId cpu_consumer_;
  ResourcePool* membus_;
  ResourcePool::ConsumerId mem_consumer_;
  TunCounter tun_;

  uint64_t egress_budget_ = 0;
  uint64_t offered_accum_ = 0;
  uint64_t offered_prev_ = 0;
  double ingress_scale_ = 1.0;
  std::vector<uint64_t> conn_alloc_;        // per-conn budget this tick
  std::vector<uint64_t> conn_offer_prev_;   // per-conn offers last tick
  std::vector<uint64_t> conn_offer_accum_;  // per-conn offers this tick
  uint64_t ingress_spare_ = 0;              // unallocated, lent FCFS
  // step()'s max-min input, output and working storage, reused every tick.
  std::vector<Demand> demands_;
  std::vector<double> alloc_;
  MaxMinScratch maxmin_;
};

struct StreamConnConfig {
  std::string name;
  // Sized for sub-Gbps connections: far above one tick's volume (no tick-
  // quantisation stalls) yet small enough that backpressure propagates
  // within a fraction of a second.
  uint64_t sbuf_cap = 512 * 1024;
  uint64_t rbuf_cap = 512 * 1024;
  uint32_t mtu = 1448;
  // Fraction of throttled (undeliverable) volume that manifests as TUN
  // drops: TCP keeps probing, so a starved receiver shows real loss.
  double probe_drop_frac = 0.05;
};

class StreamConn : public sim::Steppable {
 public:
  StreamConn(StreamConnConfig cfg, StreamVm* src, StreamVm* dst)
      : cfg_(std::move(cfg)),
        src_(src),
        dst_(dst),
        sbuf_(cfg_.sbuf_cap),
        rbuf_(cfg_.rbuf_cap) {}

  void step(SimTime now, Duration dt) override;
  std::string name() const override { return cfg_.name; }

  // --- application side ---------------------------------------------------
  uint64_t write(uint64_t n) { return sbuf_.push(n); }
  uint64_t writable() const { return sbuf_.space(); }
  uint64_t readable() const { return rbuf_.size(); }
  uint64_t read(uint64_t n) { return rbuf_.pop(n); }

  uint64_t delivered_bytes() const { return delivered_bytes_; }
  StreamVm* src() const { return src_; }
  StreamVm* dst() const { return dst_; }

 private:
  StreamConnConfig cfg_;
  StreamVm* src_;
  StreamVm* dst_;
  ByteBuf sbuf_;
  ByteBuf rbuf_;
  uint64_t delivered_bytes_ = 0;
  double carry_ = 0;       // fractional link budget
  int ingress_slot_ = -1;  // registration with the destination VM
};

class StreamApp;
struct StreamAppConfig;

}  // namespace perfsight::mbox

namespace perfsight {
class Agent;  // perfsight/agent.h
}

namespace perfsight::mbox {

struct StreamMachineConfig {
  std::string name = "m0";
  int cores = 8;
  double membus_bytes_per_sec = 25.0e9;
  double hog_weight = 16.0;
};

class StreamMachine {
 public:
  StreamMachine(StreamMachineConfig cfg, sim::Simulator* sim);
  ~StreamMachine();

  StreamVm* add_vm(StreamVmConfig cfg);
  StreamConn* connect(StreamVm* src, StreamVm* dst, StreamConnConfig cfg);
  StreamApp* add_app(StreamVm* home, const std::string& app_name,
                     const StreamAppConfig& cfg);

  vm::MemHog* add_mem_hog(const std::string& name);
  vm::CpuHog* add_cpu_hog(const std::string& name, double cap_cores = -1);

  // Registers TUN counters and apps with `agent`; returns the stack-element
  // (TUN) ids.
  std::vector<ElementId> register_elements(Agent* agent);

  ResourcePool* cpu_pool() { return &cpu_; }
  ResourcePool* membus() { return &membus_; }
  const std::string& name() const { return cfg_.name; }
  sim::Simulator* simulator() { return sim_; }

  // Everything this machine owns, in creation order (tests, benches).
  const std::vector<std::unique_ptr<StreamVm>>& vms() const { return vms_; }
  const std::vector<std::unique_ptr<StreamConn>>& conns() const {
    return conns_;
  }
  const std::vector<std::unique_ptr<StreamApp>>& apps() const {
    return apps_;
  }

 private:
  StreamMachineConfig cfg_;
  sim::Simulator* sim_;
  ResourcePool cpu_;
  ResourcePool membus_;
  std::vector<std::unique_ptr<StreamVm>> vms_;
  std::vector<std::unique_ptr<StreamConn>> conns_;
  std::vector<std::unique_ptr<StreamApp>> apps_;
  std::vector<std::unique_ptr<vm::MemHog>> mem_hogs_;
  std::vector<std::unique_ptr<vm::CpuHog>> cpu_hogs_;
};

}  // namespace perfsight::mbox
