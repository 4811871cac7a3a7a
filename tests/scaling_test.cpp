// Tests for the CMOS technology-node scaling model.
#include <gtest/gtest.h>

#include "oci/electrical/scaling.hpp"

using namespace oci;
using electrical::TechnologyNode;
using util::Capacitance;
using util::Time;

TEST(Scaling, LadderIsOrderedCoarsestFirst) {
  const auto& ladder = electrical::technology_ladder();
  ASSERT_GE(ladder.size(), 5u);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_LT(ladder[i].feature_nm, ladder[i - 1].feature_nm);
    EXPECT_LE(ladder[i].supply.volts(), ladder[i - 1].supply.volts());
    EXPECT_LT(ladder[i].fo4_delay, ladder[i - 1].fo4_delay);
    EXPECT_LT(ladder[i].delay_element, ladder[i - 1].delay_element);
    // The cost of scaling: relative mismatch grows.
    EXPECT_GE(ladder[i].mismatch_sigma, ladder[i - 1].mismatch_sigma);
    // Pad capacitance shrinks, but much slower than feature size.
    EXPECT_LT(ladder[i].pad_capacitance.farads(), ladder[i - 1].pad_capacitance.farads());
  }
}

TEST(Scaling, PadCapacitanceScalesSlowerThanDriverLoad) {
  const auto& ladder = electrical::technology_ladder();
  const auto& first = ladder.front();
  const auto& last = ladder.back();
  const double pad_shrink = first.pad_capacitance.farads() / last.pad_capacitance.farads();
  const double driver_shrink =
      first.led_driver_load.farads() / last.led_driver_load.farads();
  EXPECT_GT(driver_shrink, 2.0 * pad_shrink);
}

TEST(Scaling, DelayElementIsAFewFo4) {
  for (const TechnologyNode& node : electrical::technology_ladder()) {
    const double ratio = node.delay_element.seconds() / node.fo4_delay.seconds();
    EXPECT_GT(ratio, 1.5) << node.name;
    EXPECT_LT(ratio, 4.0) << node.name;
  }
}

TEST(Scaling, NodeByNameFindsAndThrows) {
  EXPECT_EQ(electrical::node_by_name("90nm").feature_nm, 90.0);
  EXPECT_EQ(electrical::node_by_name("32nm").feature_nm, 32.0);
  EXPECT_THROW((void)electrical::node_by_name("7nm"), std::invalid_argument);
}

TEST(Scaling, SwitchingEnergyIsCV2) {
  const TechnologyNode& node = electrical::node_by_name("90nm");
  const auto e = electrical::switching_energy_at(node, Capacitance::femtofarads(100.0));
  EXPECT_NEAR(e.joules(), 100e-15 * 1.2 * 1.2, 1e-18);
}
