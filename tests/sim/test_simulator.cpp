#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace predis::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TieBreaksByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(5), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(5), [&] { order.push_back(2); });
  sim.schedule_at(milliseconds(5), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_after(milliseconds(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, milliseconds(7));
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(milliseconds(10), [&] { ++fired; });
  sim.schedule_at(milliseconds(20), [&] { ++fired; });
  const std::size_t n = sim.run_until(milliseconds(15));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(15));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  Simulator sim;
  bool fired = false;
  runtime::TimerHandle h =
      sim.schedule_after(milliseconds(5), [&] { fired = true; });
  EXPECT_TRUE(h.scheduled());
  h.cancel();
  EXPECT_FALSE(h.scheduled());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(milliseconds(1), recurse);
  };
  sim.schedule_after(milliseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(milliseconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(milliseconds(5), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule_after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 4u);
}

}  // namespace
}  // namespace predis::sim
