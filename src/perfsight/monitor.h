// Monitor: periodic sampling of element attributes into time series.
//
// The operator-facing layer above GetAttr: register the (element,
// attribute) pairs to watch, call sample() on each polling tick (the
// deployment layer wires this to the simulator or a wall clock), and read
// back value/rate series — what the paper's timeline figures (8, 10, 11,
// 13) plot.  Rates are computed from counter deltas, making the series
// robust to when monitoring started and to counters restarting from zero
// (element teardown + re-registration).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "perfsight/controller.h"

namespace perfsight {

class Monitor {
 public:
  Monitor(const Controller* controller, TenantId tenant)
      : controller_(controller), tenant_(tenant) {}

  // Watches attribute `attr_name` of `id`.
  void watch(const ElementId& id, const std::string& attr_name) {
    series_.try_emplace(Key{id, attr_name});
  }

  struct Point {
    SimTime t;
    double value = 0;
  };
  struct Series {
    std::vector<Point> points;

    bool empty() const { return points.empty(); }
    double last() const { return points.empty() ? 0 : points.back().value; }
    double min() const;
    double max() const;
    double mean() const;
  };

  // Takes one sample of every watched attribute with one
  // Controller::get_attr_many over the watch list (tolerates missing
  // elements: gaps simply don't produce points).
  void sample();

  // Raw counter values over time.
  const Series& values(const ElementId& id, const std::string& attr) const;
  // Per-second rates derived from consecutive samples (up to n-1 points).
  // A negative delta means the counter restarted from zero (the element was
  // removed and re-registered): no rate point is produced for that interval
  // and the series restarts at the post-reset sample.
  Series rates(const ElementId& id, const std::string& attr) const;

  size_t num_watches() const { return series_.size(); }
  TenantId tenant() const { return tenant_; }
  const Controller* controller() const { return controller_; }

 private:
  struct Key {
    ElementId id;
    std::string attr;
    bool operator<(const Key& o) const {
      if (id != o.id) return id < o.id;
      return attr < o.attr;
    }
  };

  const Controller* controller_;
  TenantId tenant_;
  std::map<Key, Series> series_;
};

}  // namespace perfsight
