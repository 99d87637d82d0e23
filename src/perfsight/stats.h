// The unified statistics record (§4.2):
//
//   <TimeStamp, Element, (attr1, value1), (attr2, value2), ...>
//
// Agents return element statistics in this one format regardless of the
// element kind; the controller and every diagnostic application consume
// only records, never element internals — that decoupling is the point of
// the framework.  Records cross the agent→controller channel as PSB2 frames
// (wire.h); to_text renders one in the paper's notation for logs and test
// transcripts.
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace perfsight {

struct Attr {
  std::string name;
  double value = 0;
};

// Canonical attribute names.  Operators may extend records with custom
// attributes; these are the ones the built-in diagnostics rely on.
namespace attr {
inline constexpr const char* kRxPkts = "rxPkts";
inline constexpr const char* kTxPkts = "txPkts";
inline constexpr const char* kRxBytes = "rxBytes";
inline constexpr const char* kTxBytes = "txBytes";
inline constexpr const char* kDropPkts = "dropPkts";
inline constexpr const char* kDropBytes = "dropBytes";
inline constexpr const char* kInTimeNs = "inTimeNs";
inline constexpr const char* kOutTimeNs = "outTimeNs";
inline constexpr const char* kCapacityMbps = "capacityMbps";
inline constexpr const char* kQueuePkts = "queuePkts";
inline constexpr const char* kQueueBytes = "queueBytes";
inline constexpr const char* kType = "type";  // element-kind ordinal
inline constexpr const char* kVm = "vm";      // owning VM id; -1 if shared
// Middlebox-software byte counters (Algorithm 2 inputs; paired with
// kInTimeNs / kOutTimeNs above).
inline constexpr const char* kInBytes = "inBytes";
inline constexpr const char* kOutBytes = "outBytes";
}  // namespace attr

struct StatsRecord {
  SimTime timestamp;
  ElementId element;
  std::vector<Attr> attrs;

  // Value lookup; nullopt if the element does not expose `name`.
  std::optional<double> get(const std::string& name) const {
    for (const Attr& a : attrs) {
      if (a.name == name) return a.value;
    }
    return std::nullopt;
  }
  double get_or(const std::string& name, double fallback) const {
    auto v = get(name);
    return v ? *v : fallback;
  }
  void set(std::string name, double value) {
    for (Attr& a : attrs) {
      if (a.name == name) {
        a.value = value;
        return;
      }
    }
    attrs.push_back(Attr{std::move(name), value});
  }
};

// The paper's record notation, e.g.:
//   <1234000, m0/vm1/tun, (rxPkts, 42), (rxBytes, 63000)>
// Timestamps render as integer nanoseconds; integral values print exactly,
// others to 9 significant digits.
std::string to_text(const StatsRecord& r);

// Projects `names` out of `r` in order; missing attributes are skipped
// (the paper's GetAttr returns only attributes the element has), and a name
// asked for twice is answered twice.  Works in place: callers done with `r`
// move it in, and the answer reuses its id and its attrs vector.
StatsRecord project(StatsRecord r, const std::vector<std::string>& names);

}  // namespace perfsight
