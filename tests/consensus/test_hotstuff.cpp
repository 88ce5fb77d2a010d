#include "consensus/hotstuff/hotstuff_node.hpp"

#include <gtest/gtest.h>

#include "cluster.hpp"

namespace predis::consensus::hotstuff {
namespace {

using testing::TestCluster;

/// HotStuff with 100-transaction batches.
core::ClusterConfig hs_config(std::size_t n = 4, std::size_t f = 1) {
  auto cfg = testing::cluster_config(core::Protocol::kHotStuff, n, f);
  cfg.batch_size = 100;
  return cfg;
}

TEST(HotStuff, CommitsClientTransactions) {
  TestCluster cluster(hs_config());
  cluster.add_client(cluster.consensus_ids(), 500, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));

  EXPECT_GT(cluster.metrics.committed_txs(), 800u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(HotStuff, RotatesLeadersAcrossRounds) {
  TestCluster cluster(hs_config());
  cluster.add_client(cluster.consensus_ids(), 300, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  // Many rounds must have passed (pipelined block per round).
  for (auto& node : cluster.nodes) {
    EXPECT_GT(node.hotstuff->committed_round(), 8u);
  }
}

TEST(HotStuff, NoTimeoutsWhenHealthy) {
  TestCluster cluster(hs_config());
  cluster.add_client(cluster.consensus_ids(), 300, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  for (auto& node : cluster.nodes) {
    EXPECT_EQ(node.hotstuff->timeouts(), 0u);
  }
}

TEST(HotStuff, CommittedTransactionsAreNotDuplicated) {
  TestCluster cluster(hs_config());
  cluster.add_client(cluster.consensus_ids(), 400, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  // Every submitted tx commits at most once: committed == submitted.
  EXPECT_EQ(cluster.metrics.committed_txs(), cluster.metrics.submitted_txs());
}

TEST(HotStuff, LeaderCrashRecoversThroughPacemaker) {
  TestCluster cluster(hs_config());
  cluster.add_client(cluster.consensus_ids(), 300, seconds(4));
  cluster.net().start();
  cluster.net().run_until(milliseconds(600));
  const auto before = cluster.metrics.committed_txs();
  EXPECT_GT(before, 0u);

  // Crash one node; the rotating pacemaker must keep making progress
  // through its rounds via NewView quorums.
  cluster.net().set_node_down(cluster.consensus_ids()[1], true);
  cluster.net().run_until(seconds(4));
  EXPECT_GT(cluster.metrics.committed_txs(), before);
  EXPECT_TRUE(cluster.ledger.consistent());
  std::size_t timeouts = 0;
  for (auto& node : cluster.nodes) timeouts += node.hotstuff->timeouts();
  EXPECT_GT(timeouts, 0u);
}

TEST(HotStuff, StallsBeyondFFailures) {
  TestCluster cluster(hs_config());
  cluster.nodes[2].hotstuff->set_paused(true);
  cluster.nodes[3].hotstuff->set_paused(true);
  cluster.add_client(cluster.consensus_ids(), 300, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(2));
  EXPECT_EQ(cluster.metrics.committed_txs(), 0u);
}

// A catch-up retry that fires while the core is paused ends the
// episode, so lag evidence after the pause starts a new one.
TEST(HotStuff, LaggingReplicaCatchesUpAfterAPausedRetry) {
  TestCluster cluster(hs_config());
  const NodeId lagging_id = cluster.consensus_ids()[3];
  HotStuffCore& lagging = *cluster.nodes[3].hotstuff;
  bool isolated = true;       // every message to or from node 3 is lost
  bool replies_lost = false;  // every catch-up reply to node 3 is lost
  std::size_t requests = 0;   // catch-up requests node 3 sent
  cluster.net().set_drop_filter(
      [&](NodeId from, NodeId to, const runtime::Message& msg) {
        const std::string name = msg.name();
        if (from == lagging_id && name == "HsCatchUpRequest") ++requests;
        if (isolated) return from == lagging_id || to == lagging_id;
        return replies_lost && to == lagging_id && name == "HsBlockBatch";
      });
  cluster.add_client(cluster.consensus_ids(), 300, seconds(6));
  cluster.net().start();

  // Cut off, node 3 falls behind; the next proposal it hears is an
  // orphan far above its commit frontier and starts its catch-up. No
  // reply gets through, so the episode is still retrying when the core
  // pauses and its pending retry fires during the pause.
  cluster.net().run_until(seconds(2));
  ASSERT_EQ(lagging.committed_round(), 0u);
  isolated = false;
  replies_lost = true;
  cluster.net().run_until(seconds(3));
  ASSERT_GT(requests, 0u);
  lagging.set_paused(true);
  cluster.net().run_until(seconds(4));
  lagging.set_paused(false);
  replies_lost = false;

  // Later orphan proposals are fresh lag evidence.
  cluster.net().run_until(seconds(8));
  EXPECT_GT(lagging.committed_round(), 0u);
  EXPECT_EQ(lagging.committed_round(),
            cluster.nodes[0].hotstuff->committed_round());
  EXPECT_TRUE(cluster.ledger.consistent());
}

class HsSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HsSeeds, SafetyHoldsWithRandomCrash) {
  TestCluster cluster(hs_config());
  const std::uint64_t seed = GetParam();
  cluster.add_client(cluster.consensus_ids(), 400, seconds(3), seed);
  cluster.net().start();
  PREDIS_FIRE_AND_FORGET(cluster.net().schedule_after(
      milliseconds(150 + 130 * static_cast<SimTime>(seed % 5)),
      [&cluster, seed] {
        cluster.net().set_node_down(cluster.consensus_ids()[seed % 4], true);
      }));
  cluster.net().run_until(seconds(4));
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HsSeeds,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(HotStuff, SevenNodeClusterCommits) {
  TestCluster cluster(hs_config(7, 2));
  cluster.add_client(cluster.consensus_ids(), 500, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 500u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

}  // namespace
}  // namespace predis::consensus::hotstuff
