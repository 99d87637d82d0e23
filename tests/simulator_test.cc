#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfsight::sim {
namespace {

struct CountingComponent : Steppable {
  int steps = 0;
  SimTime last_now;
  Duration last_dt;
  void step(SimTime now, Duration dt) override {
    ++steps;
    last_now = now;
    last_dt = dt;
  }
};

TEST(SimulatorTest, RunsTickLoop) {
  Simulator sim(Duration::millis(1));
  CountingComponent c;
  sim.add(&c);
  sim.run_until(SimTime::millis(10));
  EXPECT_EQ(c.steps, 10);
  EXPECT_EQ(sim.now().ns(), SimTime::millis(10).ns());
  EXPECT_EQ(c.last_now.ns(), SimTime::millis(9).ns());
  EXPECT_EQ(c.last_dt.ns(), Duration::millis(1).ns());
}

TEST(SimulatorTest, ComponentsStepInRegistrationOrder) {
  Simulator sim;
  std::vector<int> order;
  struct Rec : Steppable {
    std::vector<int>* order = nullptr;
    int id = 0;
    void step(SimTime, Duration) override { order->push_back(id); }
  };
  Rec a, b, c;
  a.order = b.order = c.order = &order;
  a.id = 1;
  b.id = 2;
  c.id = 3;
  sim.add(&a);
  sim.add(&b);
  sim.add(&c);
  sim.run_for(Duration::millis(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ScheduledEventFiresAtTime) {
  Simulator sim;
  std::vector<double> fired_at;
  sim.at(SimTime::millis(5), [&] { fired_at.push_back(sim.now().ms()); });
  sim.run_until(SimTime::millis(10));
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_DOUBLE_EQ(fired_at[0], 5.0);
}

TEST(SimulatorTest, EventsFireInTimeThenFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(SimTime::millis(3), [&] { order.push_back(2); });
  sim.at(SimTime::millis(1), [&] { order.push_back(1); });
  sim.at(SimTime::millis(3), [&] { order.push_back(3); });  // same time, later
  sim.run_until(SimTime::millis(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim;
  sim.run_until(SimTime::millis(2));
  bool fired = false;
  sim.after(Duration::millis(3), [&] { fired = true; });
  sim.run_until(SimTime::millis(4));
  EXPECT_FALSE(fired);
  sim.run_until(SimTime::millis(6));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, EveryRepeats) {
  Simulator sim;
  int count = 0;
  sim.every(SimTime::millis(2), Duration::millis(3), [&] { ++count; });
  sim.run_until(SimTime::millis(12));
  // Fires at 2, 5, 8, 11.
  EXPECT_EQ(count, 4);
}

// A periodic event re-arms after its callback runs, so whatever the
// callback scheduled for the next firing's time runs first; two periodic
// events due together keep their first-scheduled order on every firing.
TEST(SimulatorTest, EveryRearmsBehindWhatItsCallbackScheduled) {
  Simulator sim;
  std::vector<int> order;
  bool first = true;
  sim.every(SimTime(), Duration::millis(1), [&] {
    order.push_back(0);
    if (first) {
      first = false;
      sim.at(SimTime::millis(1), [&] { order.push_back(1); });
    }
  });
  sim.every(SimTime(), Duration::millis(1), [&] { order.push_back(2); });
  sim.run_until(SimTime::millis(3));
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 0, 2, 0, 2}));
}

TEST(SimulatorTest, EventScheduledInsideEventRuns) {
  Simulator sim;
  bool inner = false;
  sim.at(SimTime::millis(1), [&] {
    sim.after(Duration::millis(2), [&] { inner = true; });
  });
  sim.run_until(SimTime::millis(5));
  EXPECT_TRUE(inner);
}

TEST(SimulatorTest, RunForAdvancesRelative) {
  Simulator sim;
  sim.run_for(Duration::millis(7));
  sim.run_for(Duration::millis(5));
  EXPECT_EQ(sim.now().ns(), SimTime::millis(12).ns());
}

}  // namespace
}  // namespace perfsight::sim
