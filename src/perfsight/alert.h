// AlertWatcher: turns one-shot diagnosis into continuous monitoring.
//
// The paper's workflow is operator-driven: notice a symptom, run Algorithm
// 1 or 2 by hand.  The watcher closes the loop: rules over the Monitor's
// time series ("vm0 TUN drop *rate* above 1000 pkts/s") are evaluated after
// every sampling tick, and a breach automatically runs the configured
// diagnosis — the same ContentionDetector / RootCauseAnalyzer an operator
// would have run, over the same controller — and records the report in the
// alert.  A cooldown keeps a persistent problem from re-firing on every
// sample while it is being remediated.
//
// Each firing also lands in the flight recorder (kAlertFired), so a trace
// shows symptom onset, the alert, and the diagnosis run in one timeline.
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "perfsight/contention.h"
#include "perfsight/monitor.h"
#include "perfsight/rootcause.h"

namespace perfsight {

struct AlertRule {
  std::string name;
  ElementId element;
  std::string attr;
  // Threshold applies to the per-second rate of the series (true) or to the
  // raw sampled value (false).
  bool on_rate = true;
  double threshold = 0;  // fires when observation >= threshold

  enum class Action { kNone, kContention, kRootCause };
  Action action = Action::kContention;
  Duration window = Duration::seconds(1);     // diagnosis window
  Duration cooldown = Duration::seconds(5);   // min spacing between firings
};

struct Alert {
  SimTime at;
  std::string rule;
  ElementId element;
  std::string attr;
  double observed = 0;
  double threshold = 0;
  // Filled according to the rule's action.
  bool ran_contention = false;
  ContentionReport contention;
  bool ran_rootcause = false;
  RootCauseReport rootcause;
  // Fraction of the triggered diagnosis's scan set measured fresh (copied
  // from the report).  < 1 means the verdict was drawn from partial data.
  double coverage = 1.0;
};

class AlertWatcher {
 public:
  // Monitor is the series source; the detectors are borrowed and may be
  // null when no rule uses the corresponding action.
  AlertWatcher(const Monitor* monitor, const ContentionDetector* contention,
               const RootCauseAnalyzer* rootcause)
      : monitor_(monitor), contention_(contention), rootcause_(rootcause) {}

  void add_rule(AlertRule rule) {
    rules_.push_back(RuleState{std::move(rule), SimTime{}, false});
  }

  // Evaluates every rule, in order, against the monitor's current series;
  // call after each Monitor::sample().  A triggered diagnosis advances
  // simulated time by its window exactly like a manual run — unless no
  // element of its scan set answered the first sweep, in which case no
  // window is waited out (Controller::sample_window).  Returns the alerts
  // fired by this call; the full history stays available via history().
  std::vector<Alert> check(const AuxSignals& aux = {});

  const std::vector<Alert>& history() const { return history_; }

 private:
  struct RuleState {
    AlertRule rule;
    SimTime last_fired;
    bool fired_before = false;
  };

  const Monitor* monitor_;
  const ContentionDetector* contention_;
  const RootCauseAnalyzer* rootcause_;
  std::vector<RuleState> rules_;
  std::vector<Alert> history_;
};

std::string to_text(const Alert& alert);

}  // namespace perfsight
