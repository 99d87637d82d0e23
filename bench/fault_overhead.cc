// Overhead and degradation bounds of the fault-tolerant collection layer.
//
// The fault machinery (faults.h + the agent's retry/breaker path) must be
// free when unused and bounded when used:
//
//   1. Disabled-path overhead: installing a fault plan with zero
//      probabilities must not slow a poll sweep by more than 5% — the plan
//      check and the pure decide() hash are the only extra work per
//      element, and diagnosis deployments leave the plan installed all the
//      time so CI can flip intensities via PERFSIGHT_FAULTS.
//   2. Determinism: the zero-probability plan must leave the sweep output
//      byte-identical to an agent with no plan at all (same RNG draws,
//      same records, same modelled response times).
//   3. Budget bound: with faults *enabled* and a per-element deadline
//      budget, no element's retry chain may run past the budget — the
//      sweep's modelled completion time stays bounded no matter how hostile
//      the plan is (timeout spikes far above the budget included).
//   4. Inert-campaign overhead: a plan carrying scheduled outage windows
//      that never intersect the swept times (the always-installed chaos
//      campaign, between windows) costs < 5% and stays byte-identical too —
//      the window check is a per-query schedule lookup, not an RNG draw.
//
// The three configurations of 1 and 4 (no plan, inert plan, inert
// campaign) take turns sweep by sweep over several rounds, and each keeps
// its fastest round: a burst of load from elsewhere on the host lands on
// all three alike, and a bad round is dropped whole.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "perfsight/agent.h"
#include "perfsight/faults.h"
#include "perfsight/stats.h"
#include "perfsight/stats_source.h"

using namespace perfsight;
using namespace perfsight::bench;

namespace {

constexpr size_t kAgents = 4;
constexpr size_t kElementsPerAgent = 32;
constexpr int kSweepsPerTrial = 400;
constexpr int kRounds = 7;

// An element with a representative counter page: collect() re-parses a
// /proc-style blob every poll, so the per-element CPU cost the fault path
// rides on is realistic (no modelled channel sleeps here — this bench
// isolates the machinery's own overhead).
class ProcTextSource : public StatsSource {
 public:
  ProcTextSource(ElementId id, uint64_t seed) : id_(std::move(id)) {
    blob_ = " rxPkts: " + std::to_string(1000000 + seed * 17) +
            "\n rxBytes: " + std::to_string(1500000000ull + seed * 1313) +
            "\n txPkts: " + std::to_string(900000 + seed * 11) +
            "\n txBytes: " + std::to_string(1400000000ull + seed * 919) +
            "\n dropPkts: " + std::to_string(seed % 7) + "\n";
  }

  ElementId id() const override { return id_; }
  ChannelKind channel_kind() const override { return ChannelKind::kProcFs; }

  StatsRecord collect(SimTime now) const override {
    StatsRecord r;
    r.element = id_;
    r.timestamp = now;
    size_t pos = 0;
    while (pos < blob_.size()) {
      size_t colon = blob_.find(':', pos);
      size_t eol = blob_.find('\n', pos);
      if (colon == std::string::npos || eol == std::string::npos) break;
      std::string key = blob_.substr(pos, colon - pos);
      while (!key.empty() && key.front() == ' ') key.erase(key.begin());
      uint64_t value = std::stoull(blob_.substr(colon + 1, eol - colon - 1));
      r.attrs.push_back(Attr{key, static_cast<double>(value)});
      pos = eol + 1;
    }
    return r;
  }

 private:
  ElementId id_;
  std::string blob_;
};

struct Fleet {
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<ProcTextSource>> sources;

  Fleet() {
    for (size_t a = 0; a < kAgents; ++a) {
      agents.push_back(std::make_unique<Agent>("host" + std::to_string(a),
                                               /*seed=*/a + 1));
      for (size_t e = 0; e < kElementsPerAgent; ++e) {
        sources.push_back(std::make_unique<ProcTextSource>(
            ElementId{"host" + std::to_string(a) + "/el" + std::to_string(e)},
            a * kElementsPerAgent + e));
        PS_CHECK(agents.back()->add_element(sources.back().get()).is_ok());
      }
    }
  }
};

// Wall time of one fleet sweep at `s` ms; optionally collects its wire
// encoding for the determinism check.
double sweep_seconds(Fleet& fleet, int s, std::string* wire_out) {
  auto start = std::chrono::steady_clock::now();
  for (auto& agent : fleet.agents) {
    std::vector<QueryResponse> out = agent->poll_all(SimTime::millis(s));
    if (wire_out != nullptr) {
      for (const QueryResponse& resp : out) {
        *wire_out += to_text(resp.record);
        *wire_out += '|';
      }
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  heading("Fault-machinery overhead and degradation bounds",
          "robust collection for PerfSight (IMC'15) Sec. 4.2 channels");
  note("%zu agents x %zu elements, %d sweeps per config per round, "
       "fastest of %d rounds",
       kAgents, kElementsPerAgent, kSweepsPerTrial, kRounds);
  Reporter report("fault_overhead");

  // --- 1+2: disabled-path overhead and byte identity -----------------------
  FaultPlan inert(7);  // installed, zero probabilities: plan checks run,
                       // nothing ever fires

  // --- 4: inert campaign (windows never intersecting the sweeps) -----------
  FaultPlan campaign(7);
  for (size_t a = 0; a < kAgents; ++a) {
    // The sweeps run at t < 4 s; these windows sit an hour out — the
    // schedule is installed and consulted but never fires.
    campaign.schedule_outage("host" + std::to_string(a),
                             SimTime::seconds(3600), SimTime::seconds(7200));
  }

  // No plan, inert plan, inert campaign.  Each round runs kSweepsPerTrial
  // sweeps of all three, alternating sweep by sweep and starting one
  // further along each time; the first round records each one's last sweep
  // for the byte-identity checks.
  const FaultPlan* const kPlans[] = {nullptr, &inert, &campaign};
  constexpr size_t kConfigs = std::size(kPlans);
  std::vector<std::unique_ptr<Fleet>> fleets;
  for (const FaultPlan* plan : kPlans) {
    fleets.push_back(std::make_unique<Fleet>());
    for (auto& a : fleets.back()->agents) a->set_fault_plan(plan);
  }
  std::vector<double> best(kConfigs, std::numeric_limits<double>::infinity());
  std::vector<std::string> wire(kConfigs);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> secs(kConfigs, 0.0);
    for (int s = 0; s < kSweepsPerTrial; ++s) {
      const bool last = round == 0 && s == kSweepsPerTrial - 1;
      for (size_t k = 0; k < kConfigs; ++k) {
        const size_t i = (s + k) % kConfigs;
        secs[i] += sweep_seconds(*fleets[i], s, last ? &wire[i] : nullptr);
      }
    }
    for (size_t i = 0; i < kConfigs; ++i) best[i] = std::min(best[i], secs[i]);
  }
  const double base_s = best[0], inert_s = best[1], campaign_s = best[2];
  const std::string& wire_none = wire[0];
  const std::string& wire_inert = wire[1];
  const std::string& wire_campaign = wire[2];
  const double slowdown_pct = (inert_s / base_s - 1.0) * 100.0;
  const double campaign_pct = (campaign_s / base_s - 1.0) * 100.0;

  row({"config", "sweep(us)", "overhead"});
  row({"no plan", fmt("%.1f", base_s * 1e6 / kSweepsPerTrial), "-"});
  row({"inert plan", fmt("%.1f", inert_s * 1e6 / kSweepsPerTrial),
       fmt("%+.2f%%", slowdown_pct)});
  row({"inert campaign", fmt("%.1f", campaign_s * 1e6 / kSweepsPerTrial),
       fmt("%+.2f%%", campaign_pct)});

  shape_check(slowdown_pct < 5.0,
              "installed-but-inert fault plan slows sweeps by < 5%");
  shape_check(!wire_none.empty() && wire_none == wire_inert,
              "inert-plan sweep output byte-identical to no-plan agent");
  shape_check(campaign_pct < 5.0,
              "installed campaign between windows slows sweeps by < 5%");
  shape_check(wire_none == wire_campaign,
              "between-windows campaign sweep output byte-identical");
  report.info("base_sweep_us", base_s * 1e6 / kSweepsPerTrial);
  report.info("inert_overhead_pct", slowdown_pct);
  report.info("campaign_overhead_pct", campaign_pct);
  report.gate("oracle_wire_bytes", static_cast<double>(wire_none.size()));

  // --- 3: budget bound under a hostile plan ---------------------------------
  FaultPlan hostile(11);
  ChannelFaultSpec spec;
  spec.transient_p = 0.25;
  spec.timeout_p = 0.20;
  spec.stale_p = 0.05;
  spec.torn_p = 0.05;
  for (size_t k = 0; k < kNumChannelKinds; ++k) {
    hostile.set_channel_faults(static_cast<ChannelKind>(k), spec);
  }
  hostile.set_timeout_spike(Duration::millis(50));  // far above the budget

  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.element_budget = Duration::millis(4);

  Fleet fleet;
  for (auto& a : fleet.agents) {
    a->set_fault_plan(&hostile);
    a->set_retry_policy(policy);
  }
  Duration worst;
  size_t responses = 0, missing = 0;
  for (int s = 0; s < kSweepsPerTrial; ++s) {
    for (auto& agent : fleet.agents) {
      for (const QueryResponse& r : agent->poll_all(SimTime::millis(s * 10))) {
        ++responses;
        if (r.quality == DataQuality::kMissing) ++missing;
        if (r.response_time > worst) worst = r.response_time;
      }
    }
  }
  AgentFaultStats fs;
  for (auto& a : fleet.agents) {
    AgentFaultStats s = a->fault_stats();
    fs.faults_injected += s.faults_injected;
    fs.retries += s.retries;
    fs.deadline_hits += s.deadline_hits;
    fs.exhausted += s.exhausted;
  }
  note("hostile plan: %llu faults, %llu retries, %llu deadline hits, "
       "%llu exhausted over %zu responses (%zu missing)",
       static_cast<unsigned long long>(fs.faults_injected),
       static_cast<unsigned long long>(fs.retries),
       static_cast<unsigned long long>(fs.deadline_hits),
       static_cast<unsigned long long>(fs.exhausted), responses, missing);
  note("worst element response under faults: %.3f ms (budget %.3f ms)",
       worst.ms(), policy.element_budget.ms());

  shape_check(fs.faults_injected > 0, "hostile plan actually injected faults");
  shape_check(worst <= policy.element_budget,
              "no element retry chain ran past its deadline budget");
  // Seeded-RNG modelled quantities: bit-stable across machines, so they can
  // gate the ±10% perf-trajectory diff.
  report.gate("hostile_faults_injected",
              static_cast<double>(fs.faults_injected));
  report.gate("hostile_missing", static_cast<double>(missing));
  report.gate("hostile_worst_response_us",
              static_cast<double>(worst.ns()) / 1e3);
  return 0;
}
