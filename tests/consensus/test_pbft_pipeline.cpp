// Pipelined (watermarked) PBFT: multiple slots in flight, safety under
// leader crashes mid-pipeline, and throughput/latency benefits.
#include <gtest/gtest.h>

#include "cluster.hpp"
#include "consensus/pbft/pbft_node.hpp"

namespace predis::consensus::pbft {
namespace {

using testing::TestCluster;

/// PBFT with 100-transaction batches and `window` slots in flight.
core::ClusterConfig pipeline(SeqNum window) {
  auto cfg = testing::cluster_config(core::Protocol::kPbft);
  cfg.batch_size = 100;
  cfg.pbft_pipeline_window = window;
  return cfg;
}

TEST(PbftPipeline, WindowOneMatchesSerializedBehaviour) {
  TestCluster cluster(pipeline(1));
  cluster.add_client(cluster.consensus_ids(), 500, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 800u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(PbftPipeline, DeepWindowCommitsEverythingExactlyOnce) {
  TestCluster cluster(pipeline(8));
  cluster.add_client(cluster.consensus_ids(), 800, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_EQ(cluster.metrics.committed_txs(), cluster.metrics.submitted_txs());
  EXPECT_EQ(cluster.metrics.latencies().count(),
            cluster.metrics.submitted_txs());
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(PbftPipeline, PipeliningReducesLatencyUnderLoad) {
  auto run = [](SeqNum window) {
    TestCluster cluster(pipeline(window));
    cluster.add_client(cluster.consensus_ids(), 3000, seconds(3));
    cluster.net().start();
    cluster.net().run_until(seconds(4));
    EXPECT_TRUE(cluster.ledger.consistent());
    return cluster.metrics.latencies().mean();
  };
  const double serialized = run(1);
  const double pipelined = run(4);
  // Overlapping the propose phases cuts queueing delay at this load.
  EXPECT_LT(pipelined, serialized);
}

TEST(PbftPipeline, LeaderCrashMidPipelineStaysSafe) {
  TestCluster cluster(pipeline(4));
  cluster.add_client(cluster.consensus_ids(), 1500, seconds(4));
  cluster.net().start();
  cluster.net().run_until(milliseconds(700));
  const auto before = cluster.metrics.committed_txs();
  EXPECT_GT(before, 0u);

  cluster.net().set_node_down(cluster.consensus_ids()[0], true);
  cluster.net().run_until(seconds(5));
  EXPECT_GT(cluster.metrics.committed_txs(), before);
  EXPECT_TRUE(cluster.ledger.consistent());
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GE(cluster.nodes[i].pbft->view(), 1u);
    // All survivors executed the same prefix.
    EXPECT_EQ(cluster.nodes[i].pbft->last_executed(),
              cluster.nodes[1].pbft->last_executed());
  }
}

class PipelineSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineSeeds, RandomCrashSafetySweep) {
  TestCluster cluster(pipeline(4));
  const std::uint64_t seed = GetParam();
  cluster.add_client(cluster.consensus_ids(), 1200, seconds(3), seed);
  cluster.net().start();
  PREDIS_FIRE_AND_FORGET(cluster.net().schedule_after(
      milliseconds(200 + 170 * static_cast<SimTime>(seed % 6)),
      [&cluster, seed] {
        cluster.net().set_node_down(cluster.consensus_ids()[seed % 4], true);
      }));
  cluster.net().run_until(seconds(4));
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeeds,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace predis::consensus::pbft
