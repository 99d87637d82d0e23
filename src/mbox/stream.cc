#include "mbox/stream.h"

#include <algorithm>

#include "mbox/app.h"
#include "perfsight/agent.h"

namespace perfsight::mbox {

void StreamVm::step(SimTime /*now*/, Duration dt) {
  // Resource demand sized by last tick's offered ingress.
  double offered = static_cast<double>(offered_prev_);
  double mem_scale = 1.0, cpu_scale = 1.0;
  double want_mem = offered * cfg_.mem_per_byte;
  if (want_mem > 0) {
    double g = membus_->request(mem_consumer_, want_mem);
    mem_scale = g / want_mem;
  }
  double want_cpu = offered * cfg_.cpu_per_byte;
  if (want_cpu > 0) {
    double g = cpu_->request(cpu_consumer_, want_cpu);
    cpu_scale = g / want_cpu;
  }
  ingress_scale_ = std::min(mem_scale, cpu_scale);
  uint64_t budget = static_cast<uint64_t>(
      static_cast<double>(cfg_.vnic.bytes_in(dt)) * ingress_scale_);
  egress_budget_ = cfg_.vnic.bytes_in(dt);

  // Divide the ingress budget max-min fairly over the inbound connections
  // by last tick's offers; the remainder is spare, lent first-come.
  demands_.clear();
  for (size_t i = 0; i < conn_alloc_.size(); ++i) {
    demands_.push_back(
        Demand{static_cast<double>(conn_offer_prev_[i]), 1.0, -1.0});
    conn_offer_prev_[i] = conn_offer_accum_[i];
    conn_offer_accum_[i] = 0;
  }
  weighted_maxmin(static_cast<double>(budget), demands_, &alloc_, &maxmin_);
  uint64_t allotted = 0;
  for (size_t i = 0; i < conn_alloc_.size(); ++i) {
    conn_alloc_[i] = static_cast<uint64_t>(alloc_[i]);
    allotted += conn_alloc_[i];
  }
  ingress_spare_ = budget > allotted ? budget - allotted : 0;

  offered_prev_ = offered_accum_;
  offered_accum_ = 0;
}

void StreamConn::step(SimTime /*now*/, Duration dt) {
  DataRate link =
      src_->vnic_rate() < dst_->vnic_rate() ? src_->vnic_rate() : dst_->vnic_rate();
  double budget = static_cast<double>(link.bytes_in(dt)) + carry_;
  uint64_t want = std::min(sbuf_.size(), static_cast<uint64_t>(budget));
  // Unused link budget is not bankable (an idle wire tick is gone); carry
  // only sub-MTU rounding residue.
  carry_ = std::min(budget - static_cast<double>(want),
                    static_cast<double>(cfg_.mtu));
  if (want == 0) return;

  // The sender's own egress shaping is not "throttling" — it defines what
  // actually reaches the wire toward the destination.
  want = std::min(want, src_->egress_available());
  if (want == 0) return;
  if (ingress_slot_ < 0) ingress_slot_ = dst_->register_ingress_conn();
  dst_->note_ingress_offer(ingress_slot_, want);

  uint64_t can = std::min(want, dst_->ingress_available(ingress_slot_));
  uint64_t deliverable = std::min(can, rbuf_.space());

  if (deliverable > 0) {
    sbuf_.pop(deliverable);
    rbuf_.push(deliverable);
    src_->take_egress(deliverable);
    dst_->take_ingress(ingress_slot_, deliverable);
    delivered_bytes_ += deliverable;
    dst_->tun()->record_delivered(deliverable, cfg_.mtu);
  }
  // Whatever the sender attempted beyond what the receiving VM could take
  // shows up (scaled by TCP's probing behaviour) as loss at the TUN.
  // Sub-MTU residue is rounding, not loss.
  uint64_t throttled = want - deliverable;
  if (throttled >= cfg_.mtu && cfg_.probe_drop_frac > 0) {
    uint64_t lost = static_cast<uint64_t>(static_cast<double>(throttled) *
                                          cfg_.probe_drop_frac);
    if (lost > 0) dst_->tun()->record_dropped(lost, cfg_.mtu);
  }
}

StreamMachine::StreamMachine(StreamMachineConfig cfg, sim::Simulator* sim)
    : cfg_(std::move(cfg)),
      sim_(sim),
      cpu_(cfg_.name + "/cpu", static_cast<double>(cfg_.cores)),
      membus_(cfg_.name + "/membus", cfg_.membus_bytes_per_sec,
              PoolPolicy::kProportional) {
  sim_->add(&cpu_);
  sim_->add(&membus_);
}

StreamMachine::~StreamMachine() = default;

StreamVm* StreamMachine::add_vm(StreamVmConfig cfg) {
  int index = static_cast<int>(vms_.size());
  auto cpu_c = cpu_.add_consumer({cfg.name + "/io", 1.0, 2.0});
  auto mem_c = membus_.add_consumer({cfg.name + "/mem", 1.0, -1.0});
  ElementId tun_id{cfg_.name + "/" + cfg.name + "/tun"};
  vms_.push_back(std::make_unique<StreamVm>(std::move(cfg), index, &cpu_,
                                            cpu_c, &membus_, mem_c,
                                            std::move(tun_id)));
  sim_->add(vms_.back().get());
  return vms_.back().get();
}

StreamConn* StreamMachine::connect(StreamVm* src, StreamVm* dst,
                                   StreamConnConfig cfg) {
  conns_.push_back(std::make_unique<StreamConn>(std::move(cfg), src, dst));
  sim_->add(conns_.back().get());
  return conns_.back().get();
}

StreamApp* StreamMachine::add_app(StreamVm* home, const std::string& app_name,
                                  const StreamAppConfig& cfg) {
  ElementId id{cfg_.name + "/" + home->name() + "/" + app_name};
  apps_.push_back(std::make_unique<StreamApp>(std::move(id), home, cfg));
  sim_->add(apps_.back().get());
  return apps_.back().get();
}

vm::MemHog* StreamMachine::add_mem_hog(const std::string& hog_name) {
  auto c = membus_.add_consumer({hog_name, cfg_.hog_weight, -1.0});
  mem_hogs_.push_back(
      std::make_unique<vm::MemHog>(cfg_.name + "/" + hog_name, &membus_, c));
  sim_->add(mem_hogs_.back().get());
  return mem_hogs_.back().get();
}

vm::CpuHog* StreamMachine::add_cpu_hog(const std::string& hog_name,
                                       double cap_cores) {
  auto c = cpu_.add_consumer({hog_name, 1.0, cap_cores});
  cpu_hogs_.push_back(
      std::make_unique<vm::CpuHog>(cfg_.name + "/" + hog_name, &cpu_, c));
  sim_->add(cpu_hogs_.back().get());
  return cpu_hogs_.back().get();
}

std::vector<ElementId> StreamMachine::register_elements(Agent* agent) {
  std::vector<ElementId> stack_ids;
  for (auto& v : vms_) {
    Status st = agent->add_element(v->tun());
    PS_CHECK(st.is_ok());
    stack_ids.push_back(v->tun()->id());
  }
  for (auto& a : apps_) {
    Status st = agent->add_element(a.get());
    PS_CHECK(st.is_ok());
  }
  return stack_ids;
}

}  // namespace perfsight::mbox
