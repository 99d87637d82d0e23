#include "dataplane/element.h"

namespace perfsight::dp {

ChannelKind channel_for(ElementKind kind) {
  switch (kind) {
    case ElementKind::kPNic:
    case ElementKind::kTun:
      return ChannelKind::kNetDeviceFile;  // net_device via file system
    case ElementKind::kPCpuBacklog:
    case ElementKind::kNapi:
      return ChannelKind::kProcFs;  // softnet_data via /proc
    case ElementKind::kVSwitch:
      return ChannelKind::kOvsChannel;
    case ElementKind::kHypervisorIo:
      return ChannelKind::kQemuLog;  // instrumented QEMU, log-scraped
    case ElementKind::kVNic:
    case ElementKind::kGuestBacklog:
    case ElementKind::kGuestSocket:
      return ChannelKind::kGuestProc;
    case ElementKind::kMiddleboxApp:
      return ChannelKind::kMbSocket;
    case ElementKind::kOther:
      return ChannelKind::kProcFs;
  }
  return ChannelKind::kProcFs;
}

StatsRecord Element::collect(SimTime now) const {
  StatsRecord r;
  r.timestamp = now;
  r.element = id_;
  r.attrs = {
      {attr::kRxPkts, static_cast<double>(stats_.pkts_in.value())},
      {attr::kTxPkts, static_cast<double>(stats_.pkts_out.value())},
      {attr::kRxBytes, static_cast<double>(stats_.bytes_in.value())},
      {attr::kTxBytes, static_cast<double>(stats_.bytes_out.value())},
      {attr::kDropPkts, static_cast<double>(stats_.drop_pkts.value())},
      {attr::kDropBytes, static_cast<double>(stats_.drop_bytes.value())},
      {attr::kInTimeNs, static_cast<double>(stats_.in_time.nanos())},
      {attr::kOutTimeNs, static_cast<double>(stats_.out_time.nanos())},
      {attr::kType, static_cast<double>(static_cast<int>(kind_))},
      {attr::kVm, static_cast<double>(vm_)},
  };
  if (size_hist_) size_hist_->export_attrs(r);
  extra_attrs(r);
  return r;
}

}  // namespace perfsight::dp
