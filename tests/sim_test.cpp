// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <vector>

#include "oci/sim/scheduler.hpp"
#include "oci/sim/trace.hpp"

namespace {

using oci::sim::Scheduler;
using oci::sim::Trace;
using oci::util::Time;

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::nanoseconds(30.0), [&] { order.push_back(3); });
  s.schedule_at(Time::nanoseconds(10.0), [&] { order.push_back(1); });
  s.schedule_at(Time::nanoseconds(20.0), [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now().nanoseconds(), 30.0);
}

TEST(Scheduler, FifoTieBreakAtEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(Time::nanoseconds(10.0), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  Time seen = Time::zero();
  s.schedule_in(Time::nanoseconds(5.0), [&] {
    seen = s.now();
    s.schedule_in(Time::nanoseconds(5.0), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(seen.nanoseconds(), 10.0);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(Time::nanoseconds(1.0), [&] { ++fired; });
  s.schedule_at(Time::nanoseconds(2.0), [&] { ++fired; });
  s.schedule_at(Time::nanoseconds(10.0), [&] { ++fired; });
  EXPECT_EQ(s.run_until(Time::nanoseconds(5.0)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now().nanoseconds(), 5.0);  // time advances to horizon
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, EventAtExactHorizonFires) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(Time::nanoseconds(5.0), [&] { fired = true; });
  s.run_until(Time::nanoseconds(5.0));
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const auto id = s.schedule_at(Time::nanoseconds(5.0), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // double cancel reports failure
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelUnknownIdFails) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(0));
  EXPECT_FALSE(s.cancel(12345));
}

TEST(Scheduler, CannotScheduleInPast) {
  Scheduler s;
  s.schedule_at(Time::nanoseconds(10.0), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(Time::nanoseconds(5.0), [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_at(s.now(), Scheduler::Callback{}), std::invalid_argument);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) s.schedule_in(Time::nanoseconds(1.0), chain);
  };
  s.schedule_at(Time::zero(), chain);
  s.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(s.now().nanoseconds(), 9.0);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(Time::nanoseconds(1.0), [&] { ++fired; });
  s.schedule_at(Time::nanoseconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, ExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_in(Time::nanoseconds(i + 1.0), [] {});
  s.run();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(Scheduler, PendingExcludesCancelled) {
  Scheduler s;
  const auto a = s.schedule_at(Time::nanoseconds(1.0), [] {});
  s.schedule_at(Time::nanoseconds(2.0), [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Trace, RecordAndQuery) {
  Trace tr;
  tr.record(Time::nanoseconds(1.0), "clk", 1.0);
  tr.record(Time::nanoseconds(2.0), "clk", 0.0);
  tr.record(Time::nanoseconds(3.0), "data", 42.0);
  EXPECT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.for_signal("clk").size(), 2u);
  EXPECT_DOUBLE_EQ(tr.last_value("clk", -1.0), 0.0);
  EXPECT_DOUBLE_EQ(tr.last_value("data", -1.0), 42.0);
  EXPECT_DOUBLE_EQ(tr.last_value("missing", -1.0), -1.0);
  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
}

}  // namespace
