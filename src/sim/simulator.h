// Discrete-time simulation engine.
//
// The software dataplane is modelled in fixed ticks (default 1 ms).  Each
// tick the engine: (1) fires any timed callbacks due at or before the tick
// start — this is how scenarios inject workloads ("at t=10s, VM2 starts
// flooding"); (2) calls Steppable::step(now, dt) on every registered
// component in registration order.  Components are registered in dataflow
// order (sources first, sinks last) so a batch admitted at a tick can flow
// through several elements within that tick, which mirrors the
// function-call fast path of real stacks (NAPI → vswitch → TUN is one call
// chain, not three queue hops).
//
// Time is purely simulated: a 100-second scenario runs in milliseconds of
// wall time.  Wall-clock overhead questions (Table 2, Fig. 15/16) are
// answered by the separate hotpath harness, not by this engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"

namespace perfsight::sim {

// A component advanced once per tick.
class Steppable {
 public:
  virtual ~Steppable() = default;

  // Advance simulated work by `dt`, ending at time `now + dt`.
  virtual void step(SimTime now, Duration dt) = 0;

  // Diagnostic name (shown in traces and error messages).
  virtual std::string name() const { return "steppable"; }
};

class Simulator {
 public:
  explicit Simulator(Duration tick = Duration::millis(1)) : tick_(tick) {}

  Duration tick() const { return tick_; }
  SimTime now() const { return now_; }

  // Registers a component; not owned.  Order of registration is the order
  // of stepping within a tick (wire sources before sinks).
  void add(Steppable* s) { components_.push_back(s); }

  // Schedules `fn` to run at simulated time `at` (fired at the start of the
  // first tick whose begin time is >= `at`).
  void at(SimTime when, std::function<void()> fn) {
    push(Event{when, next_seq_++, Duration{}, std::move(fn)});
  }
  void after(Duration d, std::function<void()> fn) {
    at(now_ + d, std::move(fn));
  }

  // Schedules `fn` to run every `period` (> 0), starting at `start`.  Each
  // firing re-arms the same event at `when + period`, sequenced after
  // whatever `fn` itself scheduled.
  void every(SimTime start, Duration period, std::function<void()> fn) {
    push(Event{start, next_seq_++, period, std::move(fn)});
  }

  // Runs until simulated time reaches `until`.
  void run_until(SimTime until);
  void run_for(Duration d) { run_until(now_ + d); }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;     // tie-break: preserve scheduling order
    Duration period;  // zero: fires once
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  void push(Event e) {
    events_.push_back(std::move(e));
    std::push_heap(events_.begin(), events_.end(), EventLater{});
  }

  Duration tick_;
  SimTime now_;
  uint64_t next_seq_ = 0;
  std::vector<Steppable*> components_;
  // A binary heap under EventLater: front() is the earliest (when, seq).
  std::vector<Event> events_;
};

}  // namespace perfsight::sim
