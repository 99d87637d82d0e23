// The sequential reference the controller's differentials compare against:
// an AgentClient decorator that answers a batch by asking its inner client
// for each id as a batch of one, in ascending id order.  Registered in place
// of an agent, it turns the controller's scatter-gather read into the
// per-element loop — every id its own trip, its own jitter draw, its own
// fault outcome — so a whole diagnosis pipeline can run against it and be
// compared byte for byte with the batched run.  Header-only; tests only.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "perfsight/agent.h"

namespace perfsight {

class PerIdReference : public AgentClient {
 public:
  explicit PerIdReference(AgentClient* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  bool has_element(const ElementId& id) const override {
    return inner_->has_element(id);
  }
  std::vector<ElementId> element_ids() const override {
    return inner_->element_ids();
  }

  // One inner batch of one per requested id (duplicates included), merged
  // in ascending id order as the AgentClient contract requires.
  BatchResponse query_batch(const std::vector<ElementId>& ids, SimTime now,
                            ThreadPool* pool = nullptr) override {
    std::vector<ElementId> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    BatchResponse out;
    for (const ElementId& id : sorted) {
      BatchResponse one = inner_->query_batch({id}, now, pool);
      out.channel_time += one.channel_time;
      out.unknown_ids += one.unknown_ids;
      out.degraded += one.degraded;
      for (QueryResponse& r : one.responses) {
        out.responses.push_back(std::move(r));
      }
    }
    return out;
  }

 private:
  AgentClient* inner_;
};

}  // namespace perfsight
