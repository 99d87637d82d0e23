#include "perfsight/monitor.h"

#include <algorithm>

namespace perfsight {

double Monitor::Series::min() const {
  double m = points.empty() ? 0 : points[0].value;
  for (const Point& p : points) m = std::min(m, p.value);
  return m;
}

double Monitor::Series::max() const {
  double m = points.empty() ? 0 : points[0].value;
  for (const Point& p : points) m = std::max(m, p.value);
  return m;
}

double Monitor::Series::mean() const {
  if (points.empty()) return 0;
  double sum = 0;
  for (const Point& p : points) sum += p.value;
  return sum / static_cast<double>(points.size());
}

void Monitor::sample() {
  // One get_attr_many over the watch list: one id per watch (the map keeps
  // an element's watches adjacent, in id order) and the union of the
  // watched attrs; each watch then reads its own attr from its slot.
  std::vector<ElementId> ids;
  std::vector<std::string> attrs;
  for (const auto& [key, series] : series_) {
    ids.push_back(key.id);
    if (std::find(attrs.begin(), attrs.end(), key.attr) == attrs.end()) {
      attrs.push_back(key.attr);
    }
  }

  std::vector<Result<Controller::QualifiedRecord>> got =
      controller_->get_attr_many(tenant_, ids, attrs);
  size_t i = 0;
  for (auto& [key, series] : series_) {
    const Result<Controller::QualifiedRecord>& r = got[i++];
    if (!r.ok()) continue;
    const StatsRecord& rec = r.value().record;
    if (auto v = rec.get(key.attr)) {
      series.points.push_back(Point{rec.timestamp, *v});
    }
  }
}

const Monitor::Series& Monitor::values(const ElementId& id,
                                       const std::string& attr) const {
  static const Series kEmpty;
  auto it = series_.find(Key{id, attr});
  return it == series_.end() ? kEmpty : it->second;
}

Monitor::Series Monitor::rates(const ElementId& id,
                               const std::string& attr) const {
  const Series& v = values(id, attr);
  Series out;
  for (size_t i = 1; i < v.points.size(); ++i) {
    double dt = (v.points[i].t - v.points[i - 1].t).sec();
    if (dt <= 0) continue;
    double dv = v.points[i].value - v.points[i - 1].value;
    // Monotone counters never decrease; a negative delta is a counter
    // reset (element removed and re-registered starting from zero).  Emit
    // no rate for the reset interval instead of a huge negative spike —
    // the series restarts from the post-reset sample.
    if (dv < 0) continue;
    out.points.push_back(Point{v.points[i].t, dv / dt});
  }
  return out;
}

}  // namespace perfsight
