#include "perfsight/faults.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/log.h"
#include "common/rng.h"
#include "common/status.h"

namespace perfsight {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kStale:
      return "stale";
    case FaultKind::kTorn:
      return "torn";
  }
  return "?";
}

const char* to_string(DataQuality q) {
  switch (q) {
    case DataQuality::kFresh:
      return "fresh";
    case DataQuality::kStale:
      return "stale";
    case DataQuality::kTorn:
      return "torn";
    case DataQuality::kMissing:
      return "missing";
    case DataQuality::kReplica:
      return "replica";
  }
  return "?";
}

namespace {

// splitmix64: decorrelates the structured (seed, element, time, attempt)
// tuple into an independent stream per decision.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

size_t FaultPlan::crashes_between(const std::string& agent, SimTime since,
                                  SimTime until) const {
  auto it = crashes_.find(agent);
  if (it == crashes_.end()) return 0;
  size_t n = 0;
  for (SimTime at : it->second) {
    if (since < at && at <= until) ++n;
  }
  return n;
}

bool FaultPlan::enabled() const {
  for (const ChannelFaultSpec& s : channel_) {
    if (s.any()) return true;
  }
  for (const auto& [id, s] : element_) {
    if (s.any()) return true;
  }
  return !crashes_.empty() || has_campaign();
}

const std::string& FaultPlan::host_of(const std::string& agent) const {
  static const std::string kEmpty;
  auto it = host_of_.find(agent);
  return it == host_of_.end() ? kEmpty : it->second;
}

void FaultPlan::schedule_rolling_upgrade(
    const std::vector<std::string>& agents, SimTime start, Duration window) {
  SimTime t = start;
  for (const std::string& agent : agents) {
    SimTime end = t + window;
    schedule_outage(agent, t, end);
    t = end;
  }
}

bool FaultPlan::agent_down(const std::string& agent, SimTime now) const {
  auto it = outages_.find(agent);
  if (it != outages_.end()) {
    for (const OutageWindow& w : it->second) {
      if (w.contains(now)) return true;
    }
  }
  if (!host_outages_.empty()) {
    auto host = host_of_.find(agent);
    if (host != host_of_.end()) {
      auto hw = host_outages_.find(host->second);
      if (hw != host_outages_.end()) {
        for (const OutageWindow& w : hw->second) {
          if (w.contains(now)) return true;
        }
      }
    }
  }
  return false;
}

bool FaultPlan::campaign_active(SimTime now) const {
  for (const auto& [agent, windows] : outages_) {
    for (const OutageWindow& w : windows) {
      if (w.contains(now)) return true;
    }
  }
  for (const auto& [tag, windows] : host_outages_) {
    for (const OutageWindow& w : windows) {
      if (w.contains(now)) return true;
    }
  }
  return false;
}

bool FaultPlan::stream_drop(const std::string& agent, uint64_t seq) const {
  if (stream_drop_p_ <= 0) return false;
  // Same decorrelation shape as decide(), salted so stream fates never
  // alias channel fates: one independent draw per (agent, seq).
  uint64_t h = mix64(seed_ ^ mix64(fnv1a64(agent)) ^
                     mix64(seq ^ 0x5354524d53ULL));  // "STRMS"
  Pcg32 rng(h, h >> 1);
  return rng.next_double() < stream_drop_p_;
}

bool FaultPlan::serves_stale() const {
  for (const ChannelFaultSpec& s : channel_) {
    if (s.stale_p > 0) return true;
  }
  for (const auto& [id, s] : element_) {
    if (s.stale_p > 0) return true;
  }
  return false;
}

FaultDecision FaultPlan::decide(const ElementId& id, ChannelKind kind,
                                SimTime now, uint32_t attempt) const {
  const ChannelFaultSpec* spec = &spec_for(id, kind);

  FaultDecision d;
  if (!spec->any()) return d;

  uint64_t h = mix64(seed_ ^ mix64(fnv1a64(id.name)) ^
                     mix64(static_cast<uint64_t>(now.ns())) ^
                     mix64((static_cast<uint64_t>(kind) << 32) | attempt));
  // Pcg32 seeded from the decision hash: one uniform draw for the fault
  // class, one u32 for the torn-read salt.
  Pcg32 rng(h, h >> 1);
  double u = rng.next_double();
  if (u < spec->transient_p) {
    d.kind = FaultKind::kTransient;
  } else if (u < spec->transient_p + spec->timeout_p) {
    d.kind = FaultKind::kTimeout;
  } else if (u < spec->transient_p + spec->timeout_p + spec->stale_p) {
    d.kind = FaultKind::kStale;
  } else if (u <
             spec->transient_p + spec->timeout_p + spec->stale_p + spec->torn_p) {
    d.kind = FaultKind::kTorn;
    d.torn_salt = (static_cast<uint64_t>(rng.next_u32()) << 32) | rng.next_u32();
  }
  return d;
}

namespace {

// Strict double parse: the whole string must be a number.  std::atof turned
// "0.05x" into 0.05 and "x" into 0.0 — a typo'd intensity silently became a
// different experiment.
bool parse_double_strict(const std::string& s, double* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

// Clamps a probability to [0,1], warning when the operator asked for more
// faults than probability allows (torn=1.5 means "always", not UB in the
// cumulative-threshold draw of decide()).
double clamp_probability(const std::string& key, double v) {
  if (v >= 0.0 && v <= 1.0) return v;
  double c = std::clamp(v, 0.0, 1.0);
  PS_LOG_WARN("PERFSIGHT_FAULTS: %s=%g outside [0,1], clamped to %g",
              key.c_str(), v, c);
  return c;
}

// Strict unsigned parse with the same whole-string discipline as
// parse_double_strict: "500x" and "" are rejections, not zeros.
bool parse_u64_strict(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

// Parses "T0-T1" (integer simulated milliseconds) into a half-open window.
// Requires T0 < T1: an empty or inverted window is an operator typo, not a
// no-op campaign.
bool parse_window_ms(const std::string& s, SimTime* start, SimTime* end) {
  size_t dash = s.find('-');
  if (dash == std::string::npos) return false;
  uint64_t t0 = 0, t1 = 0;
  if (!parse_u64_strict(s.substr(0, dash), &t0)) return false;
  if (!parse_u64_strict(s.substr(dash + 1), &t1)) return false;
  if (t0 >= t1) return false;
  *start = SimTime::millis(static_cast<int64_t>(t0));
  *end = SimTime::millis(static_cast<int64_t>(t1));
  return true;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::from_env() {
  const char* env = std::getenv("PERFSIGHT_FAULTS");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return parse(env);
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec_string) {
  if (spec_string.empty()) return std::nullopt;

  uint64_t seed = 1;
  double stream_drop = 0;
  ChannelFaultSpec spec;
  // Campaign items are collected first and applied once the seed is known
  // (the seed key may appear anywhere in the list).
  struct PendingOutage {
    std::string name;  // agent name, or host tag for host_outage items
    SimTime start;
    SimTime end;
  };
  std::vector<PendingOutage> outages;
  std::vector<PendingOutage> host_outages;
  std::vector<std::pair<std::string, std::string>> hosts;  // agent -> tag
  struct PendingRolling {
    std::string prefix;
    uint64_t count;
    SimTime start;
    Duration window;
  };
  std::vector<PendingRolling> rollings;
  const std::string& kv = spec_string;
  size_t pos = 0;
  while (pos < kv.size()) {
    size_t comma = kv.find(',', pos);
    if (comma == std::string::npos) comma = kv.size();
    std::string item = kv.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string::npos) {
      PS_LOG_WARN("PERFSIGHT_FAULTS: item '%s' is not key=value; rejected",
                  item.c_str());
      continue;
    }
    std::string key = item.substr(0, eq);
    std::string raw = item.substr(eq + 1);
    if (key == "seed") {
      uint64_t s = 0;
      auto [ptr, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), s);
      if (ec != std::errc() || ptr != raw.data() + raw.size() || raw.empty()) {
        PS_LOG_WARN("PERFSIGHT_FAULTS: bad seed '%s'; rejected (seed stays "
                    "%llu)",
                    raw.c_str(), static_cast<unsigned long long>(seed));
        continue;
      }
      seed = s;
      continue;
    }
    if (key == "outage" || key == "host_outage") {
      // outage=NAME@T0-T1 / host_outage=TAG@T0-T1
      size_t at = raw.rfind('@');
      SimTime t0, t1;
      if (at == std::string::npos || at == 0 ||
          !parse_window_ms(raw.substr(at + 1), &t0, &t1)) {
        PS_LOG_WARN(
            "PERFSIGHT_FAULTS: bad %s '%s' (want NAME@T0-T1, ms, T0<T1); "
            "rejected",
            key.c_str(), raw.c_str());
        continue;
      }
      PendingOutage o{raw.substr(0, at), t0, t1};
      (key == "outage" ? outages : host_outages).push_back(std::move(o));
      continue;
    }
    if (key == "host") {
      // host=NAME:TAG
      size_t colon = raw.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == raw.size()) {
        PS_LOG_WARN("PERFSIGHT_FAULTS: bad host '%s' (want NAME:TAG); rejected",
                    raw.c_str());
        continue;
      }
      hosts.emplace_back(raw.substr(0, colon), raw.substr(colon + 1));
      continue;
    }
    if (key == "rolling") {
      // rolling=PREFIX*N@T0+W — agents PREFIX0..PREFIX(N-1), each down W ms
      // in sequence starting at T0.
      size_t at = raw.rfind('@');
      size_t star = raw.rfind('*', at == std::string::npos ? raw.size() : at);
      size_t plus = at == std::string::npos ? std::string::npos
                                            : raw.find('+', at + 1);
      uint64_t n = 0, t0 = 0, w = 0;
      if (at == std::string::npos || star == std::string::npos || star == 0 ||
          plus == std::string::npos ||
          !parse_u64_strict(raw.substr(star + 1, at - star - 1), &n) ||
          n == 0 ||
          !parse_u64_strict(raw.substr(at + 1, plus - at - 1), &t0) ||
          !parse_u64_strict(raw.substr(plus + 1), &w) || w == 0) {
        PS_LOG_WARN(
            "PERFSIGHT_FAULTS: bad rolling '%s' (want PREFIX*N@T0+W, ms, "
            "N>0, W>0); rejected",
            raw.c_str());
        continue;
      }
      rollings.push_back(PendingRolling{
          raw.substr(0, star), n, SimTime::millis(static_cast<int64_t>(t0)),
          Duration::millis(static_cast<int64_t>(w))});
      continue;
    }
    double value = 0;
    if (!parse_double_strict(raw, &value)) {
      PS_LOG_WARN("PERFSIGHT_FAULTS: bad value '%s' for key '%s'; rejected",
                  raw.c_str(), key.c_str());
      continue;
    }
    if (key == "transient") {
      spec.transient_p = clamp_probability(key, value);
    } else if (key == "timeout") {
      spec.timeout_p = clamp_probability(key, value);
    } else if (key == "stale") {
      spec.stale_p = clamp_probability(key, value);
    } else if (key == "torn") {
      spec.torn_p = clamp_probability(key, value);
    } else if (key == "stream_drop") {
      stream_drop = clamp_probability(key, value);
    } else {
      // A typo'd key ("transiet=0.05") silently skipped means the operator
      // believes faults are on when they are not.
      PS_LOG_WARN("PERFSIGHT_FAULTS: unknown key '%s'; rejected", key.c_str());
    }
  }

  FaultPlan plan(seed);
  plan.set_stream_drop(stream_drop);
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    plan.set_channel_faults(static_cast<ChannelKind>(k), spec);
  }
  for (const auto& o : outages) plan.schedule_outage(o.name, o.start, o.end);
  for (const auto& o : host_outages) {
    plan.schedule_host_outage(o.name, o.start, o.end);
  }
  for (const auto& [agent, tag] : hosts) plan.set_host(agent, tag);
  for (const auto& r : rollings) {
    std::vector<std::string> agents;
    agents.reserve(r.count);
    for (uint64_t i = 0; i < r.count; ++i) {
      agents.push_back(r.prefix + std::to_string(i));
    }
    plan.schedule_rolling_upgrade(agents, r.start, r.window);
  }
  return plan;
}

std::string FaultPlan::to_env_string() const {
  // Shortest-round-trip number formatting: parse_double_strict reads the
  // emitted string back to the exact same double, so the string form is a
  // fixed point of parse ∘ to_env_string.
  auto num = [](double v) {
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    PS_CHECK(ec == std::errc());
    return std::string(buf, ptr);
  };
  // Window times project to the grammar's integer milliseconds.
  auto window = [](const OutageWindow& w) {
    return std::to_string(w.start.ns() / 1000000) + "-" +
           std::to_string(w.end.ns() / 1000000);
  };
  std::string out = "seed=" + std::to_string(seed_);
  // parse() applies one uniform spec to every kind; emit kind 0's.
  const ChannelFaultSpec& s = channel_[0];
  if (s.transient_p > 0) out += ",transient=" + num(s.transient_p);
  if (s.timeout_p > 0) out += ",timeout=" + num(s.timeout_p);
  if (s.stale_p > 0) out += ",stale=" + num(s.stale_p);
  if (s.torn_p > 0) out += ",torn=" + num(s.torn_p);
  if (stream_drop_p_ > 0) out += ",stream_drop=" + num(stream_drop_p_);

  std::vector<std::pair<std::string, OutageWindow>> outages;
  for (const auto& [agent, windows] : outages_) {
    for (const OutageWindow& w : windows) outages.emplace_back(agent, w);
  }
  auto by_name_window = [](const std::pair<std::string, OutageWindow>& a,
                           const std::pair<std::string, OutageWindow>& b) {
    if (a.first != b.first) return a.first < b.first;
    if (a.second.start != b.second.start) {
      return a.second.start < b.second.start;
    }
    return a.second.end < b.second.end;
  };
  std::sort(outages.begin(), outages.end(), by_name_window);
  for (const auto& [agent, w] : outages) {
    out += ",outage=" + agent + "@" + window(w);
  }

  std::vector<std::pair<std::string, std::string>> hosts(host_of_.begin(),
                                                         host_of_.end());
  std::sort(hosts.begin(), hosts.end());
  for (const auto& [agent, tag] : hosts) out += ",host=" + agent + ":" + tag;

  std::vector<std::pair<std::string, OutageWindow>> host_outages;
  for (const auto& [tag, windows] : host_outages_) {
    for (const OutageWindow& w : windows) host_outages.emplace_back(tag, w);
  }
  std::sort(host_outages.begin(), host_outages.end(), by_name_window);
  for (const auto& [tag, w] : host_outages) {
    out += ",host_outage=" + tag + "@" + window(w);
  }
  return out;
}

StatsRecord apply_torn_read(const StatsRecord& r, uint64_t salt) {
  if (r.attrs.size() < 2) return r;  // nothing meaningful to tear
  StatsRecord out;
  out.timestamp = r.timestamp;
  out.element = r.element;
  out.attrs.reserve(r.attrs.size());
  for (size_t i = 0; i < r.attrs.size(); ++i) {
    if (mix64(salt ^ (i + 1)) & 1) out.attrs.push_back(r.attrs[i]);
  }
  // A tear that dropped nothing (or everything) still has to be a tear: the
  // quality annotation relies on the record being incomplete but nonempty.
  if (out.attrs.size() == r.attrs.size()) out.attrs.pop_back();
  if (out.attrs.empty()) out.attrs.push_back(r.attrs.front());
  return out;
}

bool is_monotone_counter(const std::string& attr_name) {
  static const char* kCounters[] = {
      attr::kRxPkts,   attr::kTxPkts,   attr::kRxBytes,  attr::kTxBytes,
      attr::kDropPkts, attr::kDropBytes, attr::kInTimeNs, attr::kOutTimeNs,
      attr::kInBytes,  attr::kOutBytes,
  };
  for (const char* c : kCounters) {
    if (attr_name == c) return true;
  }
  return false;
}

}  // namespace perfsight
