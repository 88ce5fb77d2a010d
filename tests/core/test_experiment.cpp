#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace predis::core {
namespace {

ClusterConfig base_config(Protocol p, double load) {
  ClusterConfig cfg;
  cfg.protocol = p;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.wan = false;  // LAN keeps test runtime small
  cfg.offered_load_tps = load;
  cfg.n_clients = 4;
  cfg.duration = seconds(8);
  cfg.warmup = seconds(3);
  return cfg;
}

class AllProtocols : public ::testing::TestWithParam<Protocol> {};

TEST_P(AllProtocols, CommitsOfferedLoadWhenUnderCapacity) {
  const ClusterResult r = run_cluster(base_config(GetParam(), 1500));
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.ledgers_consistent);
  EXPECT_GT(r.ledger_blocks_min, 0u);
  // At 1.5 k tx/s every protocol keeps up (within 15% after warmup).
  EXPECT_GT(r.throughput_tps, 1275.0) << to_string(GetParam());
  EXPECT_GT(r.avg_latency_ms, 0.0);
  EXPECT_GT(r.latency_samples, 0u);
  EXPECT_GT(r.commit_events, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocols,
    ::testing::Values(Protocol::kPbft, Protocol::kHotStuff,
                      Protocol::kPredisPbft, Protocol::kPredisHotStuff,
                      Protocol::kNarwhal, Protocol::kStratus),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The paper's core claim (Fig. 4): under load beyond the baselines'
// capacity, Predis variants sustain far higher throughput.
TEST(Experiment, PredisOutperformsBaselinesUnderHighLoad) {
  const double load = 10'000;
  const ClusterResult pbft = run_cluster(base_config(Protocol::kPbft, load));
  const ClusterResult ppbft =
      run_cluster(base_config(Protocol::kPredisPbft, load));
  EXPECT_GT(ppbft.throughput_tps, 1.5 * pbft.throughput_tps);
  EXPECT_TRUE(pbft.consistent);
  EXPECT_TRUE(ppbft.consistent);
}

// The predis-sim 40 k tx/s overload run: about 4x capacity, so only a
// few blocks commit. Its uplink figure must stay within the 100 Mbps
// links (bytes enqueued during the drain count against the time the
// uplink needs to send them), and the empty latency set must be
// reported as empty, not as 0 ms.
TEST(Experiment, OverloadReportsHonestUplinkAndNoLatencySamples) {
  ClusterConfig cfg = base_config(Protocol::kPredisPbft, 40'000);
  cfg.n_clients = 8;
  cfg.warmup = cfg.duration / 3;
  const ClusterResult r = run_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.consensus_uplink_mbps, 50.0);
  EXPECT_LE(r.consensus_uplink_mbps, 100.0);
  EXPECT_EQ(r.latency_samples, 0u);
}

TEST(Experiment, WanEnvironmentRuns) {
  ClusterConfig cfg = base_config(Protocol::kPredisHotStuff, 1000);
  cfg.wan = true;
  const ClusterResult r = run_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.throughput_tps, 800.0);
  // WAN latencies are tens of ms one way; client latency reflects it.
  EXPECT_GT(r.avg_latency_ms, 50.0);
}

TEST(Experiment, FaultInjectionReducesThroughput) {
  ClusterConfig healthy = base_config(Protocol::kPredisPbft, 4000);
  ClusterConfig faulty = healthy;
  faulty.n_faulty = 1;
  faulty.fault_mode = consensus::predis::FaultMode::kSilent;

  const ClusterResult h = run_cluster(healthy);
  const ClusterResult f = run_cluster(faulty);
  EXPECT_TRUE(h.consistent);
  EXPECT_TRUE(f.consistent);
  EXPECT_GT(f.throughput_tps, 0.0);
  EXPECT_LT(f.throughput_tps, h.throughput_tps);
}

TEST(Experiment, ScalesToEightConsensusNodes) {
  ClusterConfig cfg = base_config(Protocol::kPredisPbft, 2000);
  cfg.n_consensus = 8;
  cfg.f = 2;
  cfg.n_clients = 8;
  const ClusterResult r = run_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.throughput_tps, 1700.0);
}

}  // namespace
}  // namespace predis::core
