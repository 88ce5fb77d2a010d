// Sanity checks for the canned WAN/LAN environments of §V.
#include "runtime/environments.hpp"

#include <gtest/gtest.h>

namespace predis::runtime {
namespace {

TEST(Environments, WanMatrixShapeAndSymmetry) {
  const LatencyMatrix wan = wan_latency();
  ASSERT_EQ(wan.regions(), kWanRegions);
  for (std::uint32_t a = 0; a < kWanRegions; ++a) {
    for (std::uint32_t b = 0; b < kWanRegions; ++b) {
      EXPECT_EQ(wan.at(a, b), wan.at(b, a)) << a << "," << b;
      EXPECT_GT(wan.at(a, b), 0);
      if (a != b) {
        // Inter-region latency always exceeds intra-region.
        EXPECT_GT(wan.at(a, b), wan.at(a, a));
      }
    }
  }
}

TEST(Environments, LanIsUniform25ms) {
  const LatencyMatrix lan = lan_latency();
  ASSERT_EQ(lan.regions(), 1u);
  EXPECT_EQ(lan.at(0, 0), milliseconds(25));
}

TEST(Environments, HundredMbpsNode) {
  const NodeConfig cfg = node_100mbps(2);
  EXPECT_EQ(cfg.region, 2u);
  EXPECT_DOUBLE_EQ(cfg.up_bw, 12.5e6);
  EXPECT_DOUBLE_EQ(cfg.down_bw, 12.5e6);
  // 100 Mbps moves 12.5 MB per second.
  EXPECT_DOUBLE_EQ(kBandwidth100Mbps * 8.0, 100e6);
}

TEST(Environments, WanLatenciesMatchPaperScale) {
  // One-way latencies between Chinese regions are tens of ms.
  const LatencyMatrix wan = wan_latency();
  for (std::uint32_t a = 0; a < kWanRegions; ++a) {
    for (std::uint32_t b = 0; b < kWanRegions; ++b) {
      if (a == b) continue;
      EXPECT_GE(wan.at(a, b), milliseconds(10));
      EXPECT_LE(wan.at(a, b), milliseconds(40));
    }
  }
}

}  // namespace
}  // namespace predis::runtime
