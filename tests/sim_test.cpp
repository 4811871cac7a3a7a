// Unit tests for the simulation trace.
#include <gtest/gtest.h>

#include "oci/sim/trace.hpp"

namespace {

using oci::sim::Trace;
using oci::util::Time;

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
