// End-to-end §III-E forking-attack lifecycle on a live P-PBFT cluster:
// a producer equivocates, every honest node bans it, the ban expires,
// the producer rejoins with a new genesis bundle and its chain is cut
// into blocks again.
#include <gtest/gtest.h>

#include "cluster.hpp"
#include "consensus/predis/predis_nodes.hpp"

namespace predis::consensus::predis {
namespace {

using testing::TestCluster;

struct RejoinCluster : TestCluster {
  explicit RejoinCluster(SimTime ban_duration) : TestCluster(4, 1) {
    for (std::size_t i = 0; i < 4; ++i) {
      PredisConfig pcfg;
      pcfg.bundle_size = 20;
      pcfg.bundle_interval = milliseconds(20);
      pcfg.ban_duration = ban_duration;
      testing::add_predis_pbft_node(*this, pcfg);
    }
  }

  /// Injects a forged conflicting bundle for chain 3 height 1 so every
  /// honest node learns the equivocation and bans producer 3.
  void inject_equivocation() {
    const Mempool& pool0 = nodes[0].engine->mempool();
    ASSERT_TRUE(pool0.chain(3).has(1));
    Transaction tx;
    tx.client = 70;
    tx.seq = 9;
    Bundle evil = make_bundle(3, 1, kZeroHash,
                              pool0.chain(3).get(1)->header.tip_list, {tx},
                              KeyPair::from_seed(consensus_ids()[3]));
    auto msg = std::make_shared<BundleMsg>();
    msg->bundle = evil;
    net().send(consensus_ids()[3], consensus_ids()[0], msg);
  }
};

TEST(RejoinFlow, BannedProducerRejoinsAfterExpiry) {
  RejoinCluster cluster(seconds(2));
  cluster.add_node_clients(150, seconds(9), 40);
  cluster.net().start();
  cluster.net().run_until(milliseconds(600));
  cluster.inject_equivocation();
  cluster.net().run_until(seconds(2));

  // Banned everywhere while the ban lasts.
  for (auto& node : cluster.nodes) {
    EXPECT_TRUE(node.engine->mempool().is_banned(3));
  }
  const BundleHeight banned_height =
      cluster.nodes[0].engine->mempool().chain(3).contiguous_height();

  // Ban expires ~2s after detection; give the rejoin time to propagate.
  cluster.net().run_until(seconds(8));
  for (auto& node : cluster.nodes) {
    EXPECT_FALSE(node.engine->mempool().is_banned(3));
  }
  // Chain 3 produces again after the new genesis.
  EXPECT_GT(cluster.nodes[0].engine->mempool().chain(3).contiguous_height(),
            banned_height);
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

TEST(RejoinFlow, PermanentBanWithoutDuration) {
  RejoinCluster cluster(/*ban_duration=*/0);
  cluster.add_node_clients(150, seconds(5), 50);
  cluster.net().start();
  cluster.net().run_until(milliseconds(600));
  cluster.inject_equivocation();
  cluster.net().run_until(seconds(6));
  for (auto& node : cluster.nodes) {
    EXPECT_TRUE(node.engine->mempool().is_banned(3));
  }
  EXPECT_TRUE(cluster.ledger.consistent());
}

}  // namespace
}  // namespace predis::consensus::predis
