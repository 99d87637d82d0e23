#include "resources/maxmin.h"

#include <algorithm>

namespace perfsight {

void weighted_maxmin(double capacity, const std::vector<Demand>& demands,
                     std::vector<double>* alloc_out, MaxMinScratch* scratch) {
  const size_t n = demands.size();
  std::vector<double>& alloc = *alloc_out;
  alloc.assign(n, 0.0);
  if (n == 0 || capacity <= 0) return;

  // Effective demand = min(amount, cap); negative caps mean uncapped.
  std::vector<double>& want = scratch->want;
  want.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double w = std::max(0.0, demands[i].amount);
    if (demands[i].cap >= 0) w = std::min(w, demands[i].cap);
    want[i] = w;
  }

  std::vector<unsigned char>& done = scratch->done;
  done.assign(n, 0);
  double remaining = capacity;
  // Each pass satisfies at least one consumer, so <= n passes.
  for (size_t pass = 0; pass < n; ++pass) {
    double active_weight = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!done[i] && want[i] > alloc[i]) {
        active_weight += std::max(1e-12, demands[i].weight);
      } else {
        done[i] = 1;
      }
    }
    if (active_weight <= 0 || remaining <= 1e-12) break;

    // Fill level per unit weight this pass.
    double fill = remaining / active_weight;
    bool any_satisfied = false;
    double given_total = 0;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      double w = std::max(1e-12, demands[i].weight);
      double offer = fill * w;
      double need = want[i] - alloc[i];
      double given = std::min(offer, need);
      alloc[i] += given;
      given_total += given;
      if (given >= need - 1e-12) {
        done[i] = 1;
        any_satisfied = true;
      }
    }
    remaining -= given_total;
    // If no consumer hit its demand, everyone got exactly their weighted
    // share of the remaining capacity and we are finished.
    if (!any_satisfied) break;
  }
}

std::vector<double> weighted_maxmin(double capacity,
                                    const std::vector<Demand>& demands) {
  std::vector<double> alloc;
  MaxMinScratch scratch;
  weighted_maxmin(capacity, demands, &alloc, &scratch);
  return alloc;
}

}  // namespace perfsight
