// SimRuntime's event queue: (time, insertion-sequence) order, timers,
// cancellation and the run_until horizon.
#include "runtime/sim_runtime.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace predis::runtime {
namespace {

/// Far past every event these tests schedule.
constexpr SimTime kHorizon = seconds(1);

SimRuntime make_sim() { return SimRuntime(LatencyMatrix::uniform(1, 0)); }

TEST(Simulator, ExecutesInTimeOrder) {
  SimRuntime sim = make_sim();
  std::vector<int> order;
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sim.run_until(kHorizon);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TieBreaksByInsertionOrder) {
  SimRuntime sim = make_sim();
  std::vector<int> order;
  sim.schedule_at(milliseconds(5), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(5), [&] { order.push_back(2); });
  sim.schedule_at(milliseconds(5), [&] { order.push_back(3); });
  sim.run_until(kHorizon);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NowAdvancesToEventTime) {
  SimRuntime sim = make_sim();
  SimTime seen = -1;
  sim.schedule_after(milliseconds(7), [&] { seen = sim.now(); });
  sim.run_until(kHorizon);
  EXPECT_EQ(seen, milliseconds(7));
}

TEST(Simulator, RunUntilStopsAtLimit) {
  SimRuntime sim = make_sim();
  int fired = 0;
  sim.schedule_at(milliseconds(10), [&] { ++fired; });
  sim.schedule_at(milliseconds(20), [&] { ++fired; });
  sim.run_until(milliseconds(15));
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(15));
  sim.run_until(kHorizon);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  SimRuntime sim = make_sim();
  bool fired = false;
  TimerHandle h = sim.schedule_after(milliseconds(5), [&] { fired = true; });
  EXPECT_TRUE(h.scheduled());
  h.cancel();
  EXPECT_FALSE(h.scheduled());
  sim.run_until(kHorizon);
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  SimRuntime sim = make_sim();
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.schedule_after(milliseconds(1), recurse);
    } else {
      EXPECT_EQ(sim.now(), milliseconds(5));
    }
  };
  sim.schedule_after(milliseconds(1), recurse);
  sim.run_until(kHorizon);
  EXPECT_EQ(depth, 5);
}

TEST(Simulator, SchedulingInPastThrows) {
  SimRuntime sim = make_sim();
  sim.schedule_at(milliseconds(10), [] {});
  sim.run_until(milliseconds(10));
  EXPECT_THROW(sim.schedule_at(milliseconds(5), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, CountsExecutedEvents) {
  SimRuntime sim = make_sim();
  for (int i = 0; i < 4; ++i) sim.schedule_after(i, [] {});
  sim.run_until(kHorizon);
  EXPECT_EQ(sim.events_executed(), 4u);
}

}  // namespace
}  // namespace predis::runtime
