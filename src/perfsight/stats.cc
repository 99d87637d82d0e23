#include "perfsight/stats.h"

#include <array>
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
  // Every value is looked up in the record as it arrived (a name's first
  // occurrence, as get() finds it) before any is written: the answer then
  // overwrites the front of the record's own attrs, and the rest is cut.
  constexpr size_t kInline = 16;
  std::array<std::optional<double>, kInline> inline_values;
  std::vector<std::optional<double>> spill;
  std::optional<double>* values = inline_values.data();
  if (names.size() > kInline) {
    spill.resize(names.size());
    values = spill.data();
  }
  for (size_t k = 0; k < names.size(); ++k) values[k] = r.get(names[k]);
  size_t kept = 0;
  for (size_t k = 0; k < names.size(); ++k) {
    if (!values[k]) continue;
    if (kept == r.attrs.size()) r.attrs.emplace_back();
    r.attrs[kept].name = names[k];
    r.attrs[kept].value = *values[k];
    ++kept;
  }
  r.attrs.resize(kept);
  return r;
}

}  // namespace perfsight
