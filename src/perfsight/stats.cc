#include "perfsight/stats.h"

#include <cstdio>

namespace perfsight {

namespace {

// Formats a double losslessly-enough for counters (integers print exactly).
std::string fmt_value(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

}  // namespace

std::string to_text(const StatsRecord& r) {
  std::string out = "<";
  out += fmt_value(static_cast<double>(r.timestamp.ns()));
  out += ", ";
  out += r.element.name;
  for (const Attr& a : r.attrs) {
    out += ", (";
    out += a.name;
    out += ", ";
    out += fmt_value(a.value);
    out += ")";
  }
  out += ">";
  return out;
}

StatsRecord project(StatsRecord r, const std::vector<std::string>& names) {
  std::vector<Attr> attrs;
  attrs.reserve(names.size());
  for (const std::string& n : names) {
    if (auto v = r.get(n)) attrs.push_back(Attr{n, *v});
  }
  return StatsRecord{r.timestamp, std::move(r.element), std::move(attrs)};
}

}  // namespace perfsight
