#include "perfsight/alert.h"

#include "common/status.h"
#include "perfsight/trace.h"

namespace perfsight {

std::vector<Alert> AlertWatcher::check(const AuxSignals& aux) {
  // Rules run in order.  `now` is read per rule because a fired diagnosis
  // may advance simulated time: later rules see the post-diagnosis clock.
  std::vector<Alert> fired;
  for (RuleState& rs : rules_) {
    const AlertRule& rule = rs.rule;
    double observed = 0;
    if (rule.on_rate) {
      Monitor::Series r = monitor_->rates(rule.element, rule.attr);
      if (r.empty()) continue;
      observed = r.last();
    } else {
      const Monitor::Series& v = monitor_->values(rule.element, rule.attr);
      if (v.empty()) continue;
      observed = v.last();
    }
    if (observed < rule.threshold) continue;

    const SimTime now = monitor_->controller()->now();
    if (rs.fired_before && now - rs.last_fired < rule.cooldown) continue;
    rs.fired_before = true;
    rs.last_fired = now;

    trace_event(rule.element, now, TraceEventKind::kAlertFired, observed,
                rule.name);

    Alert alert;
    alert.at = now;
    alert.rule = rule.name;
    alert.element = rule.element;
    alert.attr = rule.attr;
    alert.observed = observed;
    alert.threshold = rule.threshold;
    switch (rule.action) {
      case AlertRule::Action::kContention:
        PS_CHECK(contention_ != nullptr);
        alert.contention =
            contention_->diagnose(monitor_->tenant(), rule.window, aux);
        alert.ran_contention = true;
        alert.coverage = alert.contention.coverage;
        break;
      case AlertRule::Action::kRootCause:
        PS_CHECK(rootcause_ != nullptr);
        alert.rootcause = rootcause_->analyze(monitor_->tenant(), rule.window);
        alert.ran_rootcause = true;
        alert.coverage = alert.rootcause.coverage;
        break;
      case AlertRule::Action::kNone:
        break;
    }
    history_.push_back(alert);
    fired.push_back(history_.back());
  }
  return fired;
}

std::string to_text(const Alert& alert) {
  std::string out = "ALERT [" + alert.rule + "] " + alert.element.name + "." +
                    alert.attr + " = " + std::to_string(alert.observed) +
                    " >= " + std::to_string(alert.threshold) + " at t=" +
                    std::to_string(alert.at.sec()) + "s\n";
  if (alert.coverage < 1.0) {
    out += "  (diagnosis ran on partial data: " +
           coverage_text(alert.coverage) + ")\n";
  }
  if (alert.ran_contention) out += to_text(alert.contention);
  if (alert.ran_rootcause) out += to_text(alert.rootcause);
  return out;
}

}  // namespace perfsight
