// The PerfSight controller (§4.3) and the basic utility routines of Fig. 6.
//
// The controller sits between diagnostic applications and the per-server
// agents: it resolves (tenant, element) to the owning agent, forwards
// attribute queries, and takes the two counter samples separated by a
// measurement window that the interval-based utilities GetThroughput /
// GetPktLoss / GetAvgPktSize reduce.  "Sleeping" for the window means
// advancing simulated time, so the controller is handed an AdvanceFn by the
// scenario (in a real deployment it would be wall-clock sleep).
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "perfsight/agent.h"
#include "perfsight/metrics.h"
#include "perfsight/stats.h"
#include "perfsight/topology.h"

namespace perfsight {

// Advances the world by `d` and returns the new time ("sleep(T)" in Fig. 6).
using AdvanceFn = std::function<SimTime(Duration)>;
// Returns the current time.
using NowFn = std::function<SimTime()>;

class Controller {
 public:
  Controller(AdvanceFn advance, NowFn now)
      : advance_(std::move(advance)), now_(std::move(now)) {}

  // --- registration (performed by the deployment layer) -----------------
  // Agents register through the AgentClient surface: the controller never
  // cares whether an agent is in-process (Agent) or on the far end of a
  // socket (RemoteAgent) — the scatter-gather path is identical.
  void register_agent(AgentClient* agent) { agents_.push_back(agent); }

  // Maps a tenant's element to the agent serving it.
  Status register_element(TenantId tenant, const ElementId& id,
                          AgentClient* agent);

  // Declares `agent` a read replica for a tenant's element (quorum reads):
  // when the primary fails — retries exhausted, breaker open, transport
  // lost, element departed — the scatter-gather merge asks the replica
  // before declaring a blind spot.  A replica answer is annotated
  // DataQuality::kReplica so coverage reports distinguish it from a fresh
  // primary read; a double failure keeps the PRIMARY's failure Status
  // (byte-identical to the unmirrored run).  The replica must serve the
  // element.
  Status register_mirror(TenantId tenant, const ElementId& id,
                         AgentClient* agent);

  // Declares `id` part of the virtualization stack on `agent`'s machine
  // (Algorithm 1 scans these).  A stack element belongs to the agent it was
  // first registered on, as a tenant element belongs to its register_element
  // agent: reads of it route there and nowhere else, so an element that
  // leaves its owner reads as a blind spot carrying the owner's Status, even
  // if another agent happens to serve it.  Registering it on more agents (a
  // replica's stack view) adds owners that count for stack_elements_for,
  // not routes.
  void register_stack_element(AgentClient* agent, const ElementId& id);

  // Declares `id` a middlebox of `tenant` and records chain edges.
  void register_middlebox(TenantId tenant, const ElementId& id) {
    tenant_mbs_[tenant].push_back(id);
    tenant_chain_[tenant].add_node(id);
  }
  void add_chain_edge(TenantId tenant, const ElementId& from,
                      const ElementId& to) {
    tenant_chain_[tenant].add_edge(from, to);
  }

  // --- lookup -------------------------------------------------------------
  const std::vector<ElementId>& middleboxes(TenantId tenant) const;
  const ChainTopology& chain(TenantId tenant) const;
  std::vector<ElementId> elements_of(TenantId tenant) const;
  // Every virtualization-stack element on every machine hosting a tenant
  // element (the scan set of Algorithm 1), ascending and unique: an element
  // registered on two such machines is listed once.  Algorithm 1 relies on
  // that order to rank equal losses by id.
  std::vector<ElementId> stack_elements_for(TenantId tenant) const;
  const std::vector<AgentClient*>& agents() const { return agents_; }

  SimTime now() const { return now_(); }
  SimTime advance(Duration d) const { return advance_(d); }

  // --- scatter-gather configuration -----------------------------------------
  // Collection pool the scatter-gather fan-out runs over (one task per
  // owning agent) — the only pool on the diagnosis side: every reader
  // above the controller fans out through it.  Not owned; null — the
  // default — visits agents sequentially.  The deployment layer wires its
  // pool in.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  // Metrics sink for the perfsight_controller_batch_* series.  Instruments
  // are created once here (stable addresses) so the hot paths never touch
  // the registry's family vectors; not owned.
  void set_metrics(MetricsRegistry* m);

  // --- self-profiling --------------------------------------------------------
  // Cumulative cost of the queries this controller has issued: how many,
  // and how much modelled channel time they spent (the per-query latencies
  // of Fig. 9, summed — batched queries add one amortised round trip per
  // channel kind, which is the saving).  `queries` counts answered slots;
  // `channel_time` bills every trip paid, a failed element's included,
  // whatever the batch size.  Diagnosis applications read deltas
  // around a run to report what the run itself cost.  The two tallies are
  // kept under one mutex so a snapshot is never torn: the old pair of
  // independent relaxed atomics let a reader observe the query count of one
  // sweep with the channel time of another.
  struct CostSnapshot {
    uint64_t queries = 0;
    Duration channel_time;
  };
  CostSnapshot cost() const {
    std::lock_guard<std::mutex> lock(cost_mu_);
    return CostSnapshot{queries_, Duration::nanos(channel_time_ns_)};
  }

  // --- Fig. 6 interfaces ----------------------------------------------------
  // The controller has two reads: GETATTR (get_attr_many) and the
  // measurement window (sample_window).  GETTHROUGHPUT, GETPKTLOSS and
  // GETAVGPKTSIZE are reducers over a window (below the class), and one
  // element is a batch of one.

  // A record plus the collection layer's judgement of how trustworthy it is
  // (fault-tolerant collection: stale and torn records still flow, annotated).
  struct QualifiedRecord {
    StatsRecord record;
    DataQuality quality = DataQuality::kFresh;
  };

  // GETATTR(tenantID, elementIDs, attributes): groups the ids by owning
  // agent, issues one AgentClient::query_batch per agent (amortising channel
  // round trips per kind), fans the agents out over the pool, and merges the
  // responses back into input order.  This is the controller's only read
  // path: every size runs it, a batch of one included, and an empty `ids`
  // returns at once.  Output is byte-identical to asking each id as a batch
  // of one: same records, same qualities, same Status text for failures.
  std::vector<Result<QualifiedRecord>> get_attr_many(
      TenantId tenant, const std::vector<ElementId>& ids,
      const std::vector<std::string>& attrs) const;

  // --- the measurement window ------------------------------------------------
  // One element's two samples around a window, reduced to the values of the
  // requested attrs.
  struct WindowSample {
    Status status;  // ok, or the Status of the first sample that failed
    DataQuality quality = DataQuality::kFresh;  // worse of the two; kMissing
    SimTime t[2];                               // the samples' timestamps
    // The attrs' values in request order, first sample then second; nullopt
    // where a record lacked the attr.
    std::vector<std::optional<double>> values;

    bool ok() const { return status.is_ok(); }
    const std::optional<double>& first(size_t a) const { return values[a]; }
    const std::optional<double>& second(size_t a) const {
      return values[values.size() / 2 + a];
    }
  };

  // The window every interval-based reader shares (Fig. 6's "sample,
  // sleep(T), sample"): one batched sweep, advance by `window`, a second
  // sweep, one entry per id in input order.  Each sweep is reduced to its
  // values as it lands, so at most one sweep's records are alive at a time.
  // When no first sample succeeded (an empty `ids` included) the window is
  // not waited out and no second sweep is issued.
  std::vector<WindowSample> sample_window(TenantId tenant,
                                          const std::vector<ElementId>& ids,
                                          const std::vector<std::string>& attrs,
                                          Duration window) const;

 private:
  // The agent that answers for `id`: the tenant's registered agent, else
  // the stack element's first owner, else the first agent serving it.
  AgentClient* locate(TenantId tenant, const ElementId& id) const;
  // The registered read replica, or null.
  AgentClient* mirror_of(TenantId tenant, const ElementId& id) const;

  AdvanceFn advance_;
  NowFn now_;
  // get_attr_many is logically const (a read); the cost bookkeeping is not
  // state the read depends on.  One mutex guards both tallies and the metric
  // bumps so snapshots are never torn (see cost()).
  mutable std::mutex cost_mu_;
  mutable uint64_t queries_ = 0;
  mutable int64_t channel_time_ns_ = 0;
  ThreadPool* pool_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  // Instruments cached at set_metrics time: creation mutates the registry's
  // family vectors (not thread-safe), but the instruments themselves have
  // stable addresses, so the hot paths only ever touch these pointers —
  // under cost_mu_.
  MetricsRegistry::CounterMetric* m_queries_batch_ = nullptr;
  MetricsRegistry::CounterMetric* m_scatters_ = nullptr;
  MetricsRegistry::CounterMetric* m_scatter_agents_ = nullptr;
  LatencyHistogram* m_batch_channel_s_ = nullptr;
  std::vector<AgentClient*> agents_;
  std::unordered_map<TenantId, std::unordered_map<ElementId, AgentClient*>>
      vnet_;
  std::unordered_map<TenantId, std::unordered_map<ElementId, AgentClient*>>
      mirror_;
  // One entry per register_stack_element call, ascending by id; an id's
  // entries (its owners) keep registration order.
  struct StackEntry {
    ElementId id;
    AgentClient* owner;
  };
  std::vector<StackEntry> stack_;
  std::unordered_map<TenantId, std::vector<ElementId>> tenant_mbs_;
  std::unordered_map<TenantId, ChainTopology> tenant_chain_;
};

// The interval utilities of Fig. 6, one reducer each over a window that
// sampled the utility's attrs first, in this order.  Only an ok() window is
// reduced: a failed one carries its Status and reads kMissing.  A rate
// computed from one stale endpoint is itself stale, so the reduced value
// takes the window's quality.

// GETTHROUGHPUT: the output rate over the window.
inline const std::vector<std::string> kThroughputAttrs = {attr::kTxBytes};
DataRate throughput(const Controller::WindowSample& w);

// GETPKTLOSS: the drop-counter delta when both samples carry a drop counter
// (more precise while queues drain or fill), else the growth of
// (inPkts - outPkts), the paper's rule.
inline const std::vector<std::string> kLossAttrs = {
    attr::kDropPkts, attr::kRxPkts, attr::kTxPkts};
int64_t pkt_loss(const Controller::WindowSample& w);

// GETAVGPKTSIZE: bytes per packet over the window (0 when none left).
inline const std::vector<std::string> kAvgPktSizeAttrs = {attr::kTxBytes,
                                                          attr::kTxPkts};
double avg_pkt_size(const Controller::WindowSample& w);

// The fraction of a scan set of `total` elements measured when `blind` of
// them were not (1 for an empty set), and its "coverage N%" rendering.
inline double coverage(size_t total, size_t blind) {
  return total == 0 ? 1.0 : static_cast<double>(total - blind) / total;
}
inline std::string coverage_text(double c) {
  return "coverage " + std::to_string(static_cast<int>(c * 100 + 0.5)) + "%";
}

// The self-profiling frame of one diagnosis run: construction emits
// kDiagnosisStarted under `id`; finish() observes the run's cost — the
// window it waited out plus the modelled channel time of every query it
// issued — into `cost` (when non-null) and emits kDiagnosisCompleted with
// `verdict`.
class DiagnosisFrame {
 public:
  DiagnosisFrame(const Controller* controller, const ElementId& id,
                 TenantId tenant, const char* what, LatencyHistogram* cost);
  void finish(const char* verdict) const;

 private:
  const Controller* controller_;
  ElementId id_;
  LatencyHistogram* cost_;
  SimTime t0_;
  Duration ch0_;
};

}  // namespace perfsight
