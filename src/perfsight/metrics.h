// Uniform metrics exposition for operators (§4.3's "diagnostic applications"
// made scrapeable).
//
// A MetricsRegistry pulls every registered agent's elements through the
// normal query path and renders the counters as Prometheus text-format
// gauges, alongside *self-profiling* instruments that answer "what does
// diagnosis itself cost":
//
//   * per-agent, per-channel-kind latency histograms (every agent batch
//     observes each channel kind's shared trip once — the Fig. 9
//     distribution, live);
//   * end-to-end Algorithm 1/2 diagnosis-latency histograms (the detectors
//     observe measurement window + channel time per run);
//   * flight-recorder health (events recorded / overwritten).
//
// The exposition is plain text over scrape(): embed it behind any HTTP
// handler or dump it to a file — no dependency on a metrics client library.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"

namespace perfsight {

class Agent;
class AgentClient;
class FaultPlan;
class ThreadPool;

// Histogram of latencies in seconds over fixed exponential buckets
// (1 us .. 4 s, x4 steps, plus +Inf).  Cheap enough to leave always on:
// one observe is a comparison walk over 12 bounds and two adds.
class LatencyHistogram {
 public:
  static constexpr std::array<double, 12> kBoundsSec = {
      1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3,
      4e-3, 16e-3, 64e-3, 256e-3, 1.0,  4.0};
  static constexpr size_t kBuckets = kBoundsSec.size() + 1;

  void observe(double seconds) {
    ++counts_[bucket_for(seconds)];
    ++count_;
    sum_ += seconds;
  }

  static size_t bucket_for(double seconds) {
    for (size_t i = 0; i < kBoundsSec.size(); ++i) {
      if (seconds <= kBoundsSec[i]) return i;
    }
    return kBoundsSec.size();
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  uint64_t bucket_count(size_t i) const { return counts_[i]; }

  // Approximate quantile by bucket upper bound; 0 when empty.
  double approx_quantile(double q) const;

 private:
  std::array<uint64_t, kBuckets> counts_ = {};
  uint64_t count_ = 0;
  double sum_ = 0;
};

// Prometheus-style metrics registry: named self-profiling instruments plus
// element scraping via agents.
class MetricsRegistry {
 public:
  struct Gauge {
    double value = 0;
    void set(double v) { value = v; }
    void add(double v) { value += v; }
  };
  struct CounterMetric {
    uint64_t value = 0;
    void add(uint64_t n) { value += n; }
    void increment() { ++value; }
  };

  // Instruments are created on first use and keep stable addresses for the
  // registry's lifetime.  `labels` is raw Prometheus label syntax without
  // braces (e.g. "algorithm=\"contention\"") — metrics differing only in
  // labels are distinct series of one family.
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& labels = {});
  CounterMetric& counter(const std::string& name, const std::string& help,
                         const std::string& labels = {});
  LatencyHistogram& histogram(const std::string& name,
                              const std::string& help,
                              const std::string& labels = {});

  // Agents scraped on every expose(); not owned.
  void add_agent(Agent* agent) { agents_.push_back(agent); }
  size_t num_agents() const { return agents_.size(); }

  // Socket-backed (or otherwise adapter-wrapped) agents, scraped through
  // AgentClient::query_batch — the exact path the controller uses, so a
  // remote agent's element gauges match its in-process twin's attribute for
  // attribute.  Scraped after the in-process agents, in registration order.
  void add_agent_client(AgentClient* client) {
    agent_clients_.push_back(client);
  }
  size_t num_agent_clients() const { return agent_clients_.size(); }

  // Collection pool used by expose() to scrape agents concurrently (one
  // task per agent; each agent's RNG is its own, so output is byte-identical
  // to the sequential scrape).  Null, the default, scrapes sequentially.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  // Fault plan driving the agents, if any; not owned.  With a plan armed
  // and fault counters moving, expose() adds per-agent-per-kind breaker
  // gauges (perfsight_agent_breaker_state: 0 closed, 1 open, 2 half-open)
  // and, when the plan carries a scheduled campaign, a
  // perfsight_fault_campaign_active gauge.  Fault-free exposition is
  // byte-identical to the pre-fault format.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

  // Renders the full exposition: every element attribute of every agent
  // (in-process and client-wrapped) as perfsight_element_stat gauges (the
  // scrape itself travels the modelled channels, feeding the agents'
  // latency histograms), each agent's per-channel latency histograms, the
  // registered instruments, and the global flight-recorder health counters
  // — including, when any trace rings exist, per-ring occupancy/capacity/
  // overwrite gauges so a ring quietly discarding events shows up on a
  // dashboard instead of only in a shorter trace.
  std::string expose(SimTime now) const;

 private:
  template <typename T>
  struct Family {
    std::string name;
    std::string help;
    std::string labels;
    std::unique_ptr<T> metric;
  };

  template <typename T>
  T& find_or_add(std::vector<Family<T>>& families, const std::string& name,
                 const std::string& help, const std::string& labels);

  std::vector<Agent*> agents_;
  std::vector<AgentClient*> agent_clients_;
  ThreadPool* pool_ = nullptr;
  const FaultPlan* fault_plan_ = nullptr;
  std::vector<Family<Gauge>> gauges_;
  std::vector<Family<CounterMetric>> counters_;
  std::vector<Family<LatencyHistogram>> histograms_;
};

// Escapes a Prometheus label value (backslash, quote, newline).
std::string prom_escape(const std::string& s);

}  // namespace perfsight
