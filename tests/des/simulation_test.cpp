#include "des/simulation.h"

#include <gtest/gtest.h>

#include <vector>

namespace spindown::des {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, SameTimeEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulation, RejectsPastScheduling) {
  Simulation sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulation, EventsScheduledDuringExecutionRun) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(1.0, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

// ---------------------------------------------------------------------------
// Pooled-calendar semantics.

TEST(Simulation, SlotsAreRecycledNotLeaked) {
  Simulation sim;
  // Steady-state schedule->fire keeps reusing the same slot.
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_in(1.0, [] {});
    sim.run();
  }
  EXPECT_LE(sim.slab_size(), 4u);
  EXPECT_EQ(sim.executed(), 1000u);
}

TEST(Simulation, ManyEventsStressOrdering) {
  Simulation sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed(), 10000u);
}

} // namespace
} // namespace spindown::des
