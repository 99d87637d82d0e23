#include "perfsight/controller.h"

#include <algorithm>
#include <unordered_set>

#include "perfsight/trace.h"

namespace perfsight {

namespace {
// Trace events of the scatter-gather layer hang off a synthetic element:
// the fan-out is controller-wide, not owned by any dataplane element.
const ElementId& controller_trace_id() {
  static const ElementId kId{"controller"};
  return kId;
}
}  // namespace

Status Controller::register_element(TenantId tenant, const ElementId& id,
                                    AgentClient* agent) {
  PS_CHECK(agent != nullptr);
  if (!agent->has_element(id)) {
    return Status::not_found("agent " + agent->name() +
                             " does not serve element " + id.name);
  }
  vnet_[tenant][id] = agent;
  return Status::ok();
}

Status Controller::register_mirror(TenantId tenant, const ElementId& id,
                                   AgentClient* agent) {
  PS_CHECK(agent != nullptr);
  if (!agent->has_element(id)) {
    return Status::not_found("agent " + agent->name() +
                             " does not serve element " + id.name);
  }
  mirror_[tenant][id] = agent;
  return Status::ok();
}

AgentClient* Controller::mirror_of(TenantId tenant, const ElementId& id) const {
  auto tit = mirror_.find(tenant);
  if (tit == mirror_.end()) return nullptr;
  auto eit = tit->second.find(id);
  return eit == tit->second.end() ? nullptr : eit->second;
}

const std::vector<ElementId>& Controller::middleboxes(TenantId tenant) const {
  static const std::vector<ElementId> kEmpty;
  auto it = tenant_mbs_.find(tenant);
  return it == tenant_mbs_.end() ? kEmpty : it->second;
}

const ChainTopology& Controller::chain(TenantId tenant) const {
  static const ChainTopology kEmpty;
  auto it = tenant_chain_.find(tenant);
  return it == tenant_chain_.end() ? kEmpty : it->second;
}

std::vector<ElementId> Controller::elements_of(TenantId tenant) const {
  std::vector<ElementId> out;
  auto it = vnet_.find(tenant);
  if (it == vnet_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [id, agent] : it->second) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

void Controller::register_stack_element(AgentClient* agent,
                                        const ElementId& id) {
  // Registration mostly arrives in id order and appends; an id out of order
  // goes after its earlier owners.
  auto at = stack_.end();
  if (!stack_.empty() && id < stack_.back().id) {
    at = std::partition_point(
        stack_.begin(), stack_.end(),
        [&](const StackEntry& e) { return !(id < e.id); });
  }
  stack_.insert(at, StackEntry{id, agent});
}

std::vector<ElementId> Controller::stack_elements_for(TenantId tenant) const {
  std::vector<ElementId> out;
  auto it = vnet_.find(tenant);
  if (it == vnet_.end()) return out;
  std::unordered_set<AgentClient*> machines;
  for (const auto& [id, agent] : it->second) machines.insert(agent);
  // Each id's owners are adjacent: the id is listed once if any of them
  // hosts a tenant element (a mirrored element is registered on its primary
  // AND its replica agent).
  for (size_t i = 0; i < stack_.size();) {
    bool hosted = false;
    size_t j = i;
    for (; j < stack_.size() && stack_[j].id == stack_[i].id; ++j) {
      hosted = hosted || machines.count(stack_[j].owner) > 0;
    }
    if (hosted) out.push_back(stack_[i].id);
    i = j;
  }
  return out;
}

AgentClient* Controller::locate(TenantId tenant, const ElementId& id) const {
  auto tit = vnet_.find(tenant);
  if (tit != vnet_.end()) {
    auto eit = tit->second.find(id);
    if (eit != tit->second.end()) return eit->second;
  }
  auto sit = std::partition_point(
      stack_.begin(), stack_.end(),
      [&](const StackEntry& e) { return e.id < id; });
  if (sit != stack_.end() && sit->id == id) return sit->owner;
  // An id registered nowhere (a middlebox of a chain, say): the first agent
  // that serves it.
  for (AgentClient* a : agents_) {
    if (a->has_element(id)) return a;
  }
  return nullptr;
}

void Controller::set_metrics(MetricsRegistry* m) {
  metrics_ = m;
  if (m == nullptr) {
    m_queries_batch_ = nullptr;
    m_scatters_ = m_scatter_agents_ = nullptr;
    m_batch_channel_s_ = nullptr;
    return;
  }
  // Created once here: instrument creation mutates the registry's family
  // vectors (not thread-safe), but the instruments themselves have stable
  // addresses, so the query paths only touch these pointers — under
  // cost_mu_.
  m_queries_batch_ =
      &m->counter("perfsight_controller_queries_total",
                  "Element queries the controller issued", "path=\"batch\"");
  m_scatters_ = &m->counter("perfsight_controller_batch_scatters_total",
                            "Multi-element queries fanned out as batches");
  m_scatter_agents_ =
      &m->counter("perfsight_controller_batch_agents_total",
                  "Per-agent batches issued by scatter-gather fan-outs");
  m_batch_channel_s_ =
      &m->histogram("perfsight_controller_batch_channel_seconds",
                    "Modelled channel time per scatter-gather fan-out");
}

Result<Controller::QualifiedRecord> Controller::get_attr_q(
    TenantId tenant, const ElementId& id,
    const std::vector<std::string>& attrs) const {
  return std::move(get_attr_many(tenant, {id}, attrs).front());
}

Result<StatsRecord> Controller::get_attr(
    TenantId tenant, const ElementId& id,
    const std::vector<std::string>& attrs) const {
  Result<QualifiedRecord> q = get_attr_q(tenant, id, attrs);
  if (!q.ok()) return q.status();
  return std::move(q).take().record;
}

namespace {
// The single-element Fig. 6 utilities are batches of one: the element's
// result, and its quality only when the result is a value (a failed
// single-element call leaves `*quality` untouched).
template <typename T>
Result<T> only(std::vector<Result<T>> out, const std::vector<DataQuality>& q,
               DataQuality* quality) {
  if (quality != nullptr && out.front().ok()) *quality = q.front();
  return std::move(out.front());
}
}  // namespace

Result<DataRate> Controller::get_throughput(TenantId tenant,
                                            const ElementId& id,
                                            Duration window,
                                            DataQuality* quality) const {
  std::vector<DataQuality> q;
  return only(get_throughput_many(tenant, {id}, window, &q), q, quality);
}

Result<int64_t> Controller::get_pkt_loss(TenantId tenant, const ElementId& id,
                                         Duration window,
                                         DataQuality* quality) const {
  std::vector<DataQuality> q;
  return only(get_pkt_loss_many(tenant, {id}, window, &q), q, quality);
}

Result<double> Controller::get_avg_pkt_size(TenantId tenant,
                                            const ElementId& id,
                                            Duration window,
                                            DataQuality* quality) const {
  std::vector<DataQuality> q;
  return only(get_avg_pkt_size_many(tenant, {id}, window, &q), q, quality);
}

// --- scatter-gather ---------------------------------------------------------

namespace {

// A fan-out by input index.  `slots` holds the input positions the agents
// must fill, stable-sorted by (group, id): group g owns slots [begin, end),
// and inside it equal ids form runs in input order.  Each run is one
// deduplicated request id, and the runs ascend like query_batch's answer.
struct ScatterPlan {
  struct Slot {
    size_t group;
    size_t index;  // into the input ids
  };
  struct Group {
    AgentClient* agent = nullptr;
    size_t begin = 0;
    size_t end = 0;
    std::vector<ElementId> sorted_ids;  // one per run, ascending
  };
  std::vector<Group> groups;  // in first-appearance order
  std::vector<Slot> slots;
  std::unordered_map<AgentClient*, size_t> group_of;

  // Input slot `index` is `agent`'s to fill.
  void add(AgentClient* agent, size_t index) {
    auto [it, fresh] = group_of.try_emplace(agent, groups.size());
    if (fresh) {
      groups.emplace_back();
      groups.back().agent = agent;
    }
    slots.push_back(Slot{it->second, index});
  }

  // Sorts the slots into group ranges and lists each group's run ids.  A
  // sweep over ascending ids whose agents own contiguous id ranges is
  // already in order and is not sorted again.
  void seal(const std::vector<ElementId>& ids) {
    const auto by_group_id = [&](const Slot& a, const Slot& b) {
      if (a.group != b.group) return a.group < b.group;
      return ids[a.index] < ids[b.index];
    };
    if (!std::is_sorted(slots.begin(), slots.end(), by_group_id)) {
      std::stable_sort(slots.begin(), slots.end(), by_group_id);
    }
    size_t k = 0;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      Group& g = groups[gi];
      g.begin = k;
      while (k < slots.size() && slots[k].group == gi) ++k;
      g.end = k;
      g.sorted_ids.reserve(g.end - g.begin);
      for (size_t i = g.begin; i < g.end; ++i) {
        const ElementId& id = ids[slots[i].index];
        if (i == g.begin || !(id == g.sorted_ids.back())) {
          g.sorted_ids.push_back(id);
        }
      }
    }
  }

  // Calls fn(id, first, last, response) once per run of group `gi`, in
  // ascending id order: [first, last) are the run's slots, and response is
  // the answer for `id` in the ascending batch `b`, or null when the agent
  // did not answer it.
  template <typename Fn>
  void merge(size_t gi, const std::vector<ElementId>& ids, BatchResponse& b,
             Fn fn) const {
    std::vector<QueryResponse>& resp = b.responses;
    const Slot* first = slots.data() + groups[gi].begin;
    const Slot* const end = slots.data() + groups[gi].end;
    size_t ri = 0;
    while (first != end) {
      const ElementId& id = ids[first->index];
      const Slot* last = first + 1;
      while (last != end && ids[last->index] == id) ++last;
      while (ri < resp.size() && resp[ri].record.element < id) ++ri;
      QueryResponse* hit = nullptr;
      if (ri < resp.size() && resp[ri].record.element == id) hit = &resp[ri++];
      fn(id, first, last, hit);
      first = last;
    }
  }
};

}  // namespace

std::vector<Result<Controller::QualifiedRecord>> Controller::get_attr_many(
    TenantId tenant, const std::vector<ElementId>& ids,
    const std::vector<std::string>& attrs) const {
  if (ids.empty()) return {};
  // Every slot is overwritten below; the placeholder's text is short enough
  // to need no allocation per slot.
  std::vector<Result<QualifiedRecord>> out(
      ids.size(),
      Result<QualifiedRecord>(Status::unavailable("unfilled slot")));

  // Group the input slots by owning agent.
  ScatterPlan plan;
  plan.slots.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    AgentClient* agent = locate(tenant, ids[i]);
    if (agent == nullptr) {
      out[i] = Status::not_found("no agent serves element " + ids[i].name);
      continue;
    }
    plan.add(agent, i);
  }
  plan.seal(ids);

  // One timestamp for the whole fan-out: every per-agent batch samples the
  // same instant (only the interval utilities advance time).
  const SimTime now = now_();
  trace_event(controller_trace_id(), now, TraceEventKind::kControllerScatter,
              static_cast<double>(ids.size()), "scatter");

  // Root of this sweep's span tree.  Each pool worker re-installs the
  // context (thread-locals do not cross the fan-out boundary), so agent
  // batch spans — and, over sockets, the remote server's serve spans — all
  // parent to this scatter span.
  const bool traced = trace_enabled();
  const TraceContext scatter_ctx =
      traced ? TraceContext{next_span_id(), next_span_id()} : TraceContext{};

  // Fan the agents out over the pool.  query_batch gets no pool of its own:
  // a worker blocking inside a nested parallel_for on the same pool can
  // deadlock, and the per-agent batch is already one channel round trip per
  // kind — the win is agent-level parallelism.
  auto fan_out = [&](const ScatterPlan& p) {
    std::vector<BatchResponse> br(p.groups.size());
    parallel_for_or_inline(pool_, p.groups.size(), [&](size_t gi) {
      ScopedTraceContext span_ctx(scatter_ctx);
      br[gi] = p.groups[gi].agent->query_batch(p.groups[gi].sorted_ids, now);
    });
    return br;
  };

  // Fills a run's slots with one record: copies for the duplicates, the
  // record itself moved into the last slot.
  uint64_t ok_slots = 0;
  size_t served = 0;
  using Slot = ScatterPlan::Slot;
  auto fill = [&](const Slot* first, const Slot* last, QualifiedRecord q) {
    for (const Slot* s = first; s + 1 < last; ++s) out[s->index] = q;
    out[(last - 1)->index] = std::move(q);
    ok_slots += static_cast<uint64_t>(last - first);
    ++served;
  };

  // Gather: merge per-agent responses back into input slots, sequentially,
  // in group order.  Ids absent from an answer were unknown to the agent
  // and surface with the exact Status text Agent::query would have
  // produced.
  Duration total_channel;
  std::vector<BatchResponse> br = fan_out(plan);
  // Quorum second round: kMissing slots whose element has a registered
  // replica are collected per mirror agent and retried below, before their
  // blind spots stand.
  ScatterPlan mirrors;
  for (size_t gi = 0; gi < plan.groups.size(); ++gi) {
    const std::string& agent_name = plan.groups[gi].agent->name();
    total_channel = total_channel + br[gi].channel_time;
    plan.merge(gi, ids, br[gi], [&](const ElementId& id, const Slot* first,
                                    const Slot* last, QueryResponse* resp) {
      if (resp == nullptr) {
        Status miss = no_element_status(agent_name, id);
        for (const Slot* s = first; s != last; ++s) out[s->index] = miss;
        return;
      }
      if (resp->quality == DataQuality::kMissing) {
        // Retries exhausted / budget hit / breaker open: reconstruct the
        // Status single_answer returns for this failure.  It stays
        // the answer unless a replica can serve the element below.
        Status fail = query_failure_status(agent_name, id, resp->attempts,
                                           resp->fail_code);
        for (const Slot* s = first; s != last; ++s) out[s->index] = fail;
        if (AgentClient* mirror = mirror_of(tenant, id)) {
          for (const Slot* s = first; s != last; ++s) {
            mirrors.add(mirror, s->index);
          }
        }
        return;
      }
      fill(first, last,
           QualifiedRecord{project(std::move(resp->record), attrs),
                           resp->quality});
    });
  }

  // The mirror round mirrors the primary round: one batch per replica
  // agent, fanned over the pool, merged by ascending element id.  A replica
  // answer replaces the blind spot annotated kReplica; a replica failure
  // leaves the primary's Status in place (byte-identical to no mirror).
  if (!mirrors.groups.empty()) {
    mirrors.seal(ids);
    std::vector<BatchResponse> mbr = fan_out(mirrors);
    for (size_t gi = 0; gi < mirrors.groups.size(); ++gi) {
      total_channel = total_channel + mbr[gi].channel_time;
      mirrors.merge(gi, ids, mbr[gi], [&](const ElementId&, const Slot* first,
                                          const Slot* last,
                                          QueryResponse* resp) {
        if (resp == nullptr || resp->quality == DataQuality::kMissing) return;
        fill(first, last,
             QualifiedRecord{project(std::move(resp->record), attrs),
                             worse(DataQuality::kReplica, resp->quality)});
      });
    }
  }

  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    queries_issued_ += ok_slots;
    channel_time_ns_ += total_channel.ns();
    if (m_queries_batch_ != nullptr) m_queries_batch_->add(ok_slots);
    if (m_scatters_ != nullptr) m_scatters_->increment();
    if (m_batch_channel_s_ != nullptr) {
      m_batch_channel_s_->observe(static_cast<double>(total_channel.ns()) /
                                  1e9);
    }
    if (m_scatter_agents_ != nullptr) {
      m_scatter_agents_->add(plan.groups.size() + mirrors.groups.size());
    }
  }
  trace_event(controller_trace_id(), now, TraceEventKind::kControllerGather,
              static_cast<double>(served), "gather");
  if (traced) {
    // The scatter span covers the whole fan-out; its duration is the
    // modelled channel time the sweep consumed (deterministic, unlike the
    // wall clock the pool happens to deliver).
    trace_span(controller_trace_id(), now, TraceEventKind::kSpanScatter,
               total_channel, scatter_ctx.span_id, /*parent_span=*/0,
               static_cast<double>(ids.size()), "scatter");
  }
  return out;
}

// --- the measurement window -------------------------------------------------

std::vector<Controller::WindowSample> Controller::sample_window(
    TenantId tenant, const std::vector<ElementId>& ids,
    const std::vector<std::string>& attrs, Duration window) const {
  std::vector<WindowSample> out(ids.size());
  // Sweep `k` (0 or 1), reduced into `out` as it lands; the first failing
  // Status stands.  Returns whether any sample landed.
  auto sweep = [&](size_t k) {
    std::vector<Result<QualifiedRecord>> got =
        get_attr_many(tenant, ids, attrs);
    bool landed = false;
    for (size_t i = 0; i < ids.size(); ++i) {
      WindowSample& w = out[i];
      if (!w.ok()) continue;
      if (!got[i].ok()) {
        w.status = got[i].status();
        w.quality = DataQuality::kMissing;
        continue;
      }
      landed = true;
      const QualifiedRecord& q = got[i].value();
      w.quality = worse(w.quality, q.quality);
      w.t[k] = q.record.timestamp;
      w.values.resize(2 * attrs.size());
      // A projected record holds the attrs in request order; only one that
      // lacks some of them is searched by name.
      const std::vector<Attr>& got_attrs = q.record.attrs;
      const bool whole = got_attrs.size() == attrs.size();
      for (size_t a = 0; a < attrs.size(); ++a) {
        w.values[k * attrs.size() + a] =
            whole ? std::optional<double>(got_attrs[a].value)
                  : q.record.get(attrs[a]);
      }
    }
    return landed;
  };
  if (sweep(0)) {
    advance_(window);
    sweep(1);
  }
  return out;
}

namespace {

// One Result per window entry — its Status, or `value(entry)` — and, when
// `quality` is non-null, each entry's quality.
template <typename T, typename Value>
std::vector<Result<T>> per_element(
    const std::vector<Controller::WindowSample>& window,
    std::vector<DataQuality>* quality, Value value) {
  if (quality != nullptr) quality->clear();
  std::vector<Result<T>> out;
  for (const Controller::WindowSample& w : window) {
    if (quality != nullptr) quality->push_back(w.quality);
    out.push_back(w.ok() ? Result<T>(value(w)) : Result<T>(w.status));
  }
  return out;
}

}  // namespace

std::vector<Result<DataRate>> Controller::get_throughput_many(
    TenantId tenant, const std::vector<ElementId>& ids, Duration window,
    std::vector<DataQuality>* quality) const {
  return per_element<DataRate>(
      sample_window(tenant, ids, {attr::kTxBytes}, window), quality,
      [](const WindowSample& w) {
        const double db = w.second(0).value_or(0) - w.first(0).value_or(0);
        return rate_of(static_cast<uint64_t>(std::max(0.0, db)),
                       w.t[1] - w.t[0]);
      });
}

std::vector<Result<int64_t>> Controller::get_pkt_loss_many(
    TenantId tenant, const std::vector<ElementId>& ids, Duration window,
    std::vector<DataQuality>* quality) const {
  return per_element<int64_t>(sample_window(tenant, ids, kLossAttrs, window),
                              quality, pkt_loss);
}

std::vector<Result<double>> Controller::get_avg_pkt_size_many(
    TenantId tenant, const std::vector<ElementId>& ids, Duration window,
    std::vector<DataQuality>* quality) const {
  return per_element<double>(
      sample_window(tenant, ids, {attr::kTxBytes, attr::kTxPkts}, window),
      quality, [](const WindowSample& w) {
        const double db = w.second(0).value_or(0) - w.first(0).value_or(0);
        const double dp = w.second(1).value_or(0) - w.first(1).value_or(0);
        return dp <= 0 ? 0.0 : db / dp;
      });
}

int64_t pkt_loss(const Controller::WindowSample& w) {
  constexpr size_t kDrop = 0, kRx = 1, kTx = 2;  // kLossAttrs positions
  if (w.first(kDrop) && w.second(kDrop)) {
    return static_cast<int64_t>(*w.second(kDrop) - *w.first(kDrop));
  }
  const double d1 = w.first(kRx).value_or(0) - w.first(kTx).value_or(0);
  const double d2 = w.second(kRx).value_or(0) - w.second(kTx).value_or(0);
  return static_cast<int64_t>(d2 - d1);
}

DiagnosisFrame::DiagnosisFrame(const Controller* controller,
                               const ElementId& id, TenantId tenant,
                               const char* what, LatencyHistogram* cost)
    : controller_(controller),
      id_(id),
      cost_(cost),
      t0_(controller->now()),
      ch0_(controller->channel_time()) {
  trace_event(id_, t0_, TraceEventKind::kDiagnosisStarted,
              static_cast<double>(tenant.value()), what);
}

void DiagnosisFrame::finish(const char* verdict) const {
  const SimTime t1 = controller_->now();
  const Duration cost = (t1 - t0_) + (controller_->channel_time() - ch0_);
  if (cost_ != nullptr) cost_->observe(cost.sec());
  trace_event(id_, t1, TraceEventKind::kDiagnosisCompleted, cost.ms(),
              verdict);
}

}  // namespace perfsight
