#include "sim/simulator.h"

#include "perfsight/trace.h"

namespace perfsight::sim {

void Simulator::run_until(SimTime until) {
  while (now_ < until) {
    // Stamp the flight recorder's clock so instrumentation points without a
    // `now` parameter (drop charging, queue watermarks) timestamp correctly.
    TraceRecorder::global().set_now(now_);
    // Fire events due at or before this tick's start, in time order.  The
    // event is moved out of the heap before it runs, so `fn` may schedule
    // more; a periodic one is moved back in, re-armed.
    while (!events_.empty() && events_.front().when <= now_) {
      std::pop_heap(events_.begin(), events_.end(), EventLater{});
      Event e = std::move(events_.back());
      events_.pop_back();
      e.fn();
      if (e.period > Duration{}) {
        e.when = e.when + e.period;
        e.seq = next_seq_++;
        push(std::move(e));
      }
    }
    for (Steppable* s : components_) s->step(now_, tick_);
    now_ = now_ + tick_;
  }
}

}  // namespace perfsight::sim
