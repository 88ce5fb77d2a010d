// PBFT checkpointing and state transfer: a replica that was offline for
// many slots catches back up by adopting a quorum-certified snapshot
// instead of replaying every missed block.
#include <gtest/gtest.h>

#include "cluster.hpp"
#include "consensus/pbft/pbft_node.hpp"
#include "consensus/predis/predis_nodes.hpp"

namespace predis::consensus {
namespace {

using testing::TestCluster;

TEST(StateTransfer, CheckpointsBecomeStableDuringNormalOperation) {
  auto cfg = testing::cluster_config(core::Protocol::kPbft);
  cfg.batch_size = 50;
  TestCluster cluster(cfg);
  for (auto& node : cluster.nodes) node.pbft->set_checkpoint_interval(8);
  cluster.add_client(cluster.consensus_ids(), 800, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));

  for (auto& node : cluster.nodes) {
    EXPECT_GT(node.pbft->stable_checkpoint(), 0u);
    EXPECT_LE(node.pbft->stable_checkpoint(), node.pbft->last_executed());
  }
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(StateTransfer, RevivedPredisReplicaCatchesUpViaSnapshot) {
  auto cfg = testing::cluster_config(core::Protocol::kPredisPbft);
  cfg.bundle_size = 20;
  cfg.bundle_interval = milliseconds(20);
  TestCluster cluster(cfg);
  const auto& nodes = cluster.nodes;
  for (auto& node : nodes) node.pbft->set_checkpoint_interval(8);
  cluster.add_node_clients(300, seconds(8), 70);
  cluster.net().start();

  // Node 3 goes dark for two simulated seconds.
  const NodeId node3 = cluster.consensus_ids()[3];
  cluster.net().run_until(seconds(1));
  cluster.net().set_node_down(node3, true);
  cluster.net().run_until(seconds(3));
  cluster.net().set_node_down(node3, false);

  cluster.net().run_until(seconds(9));

  // The revived node adopted a snapshot and is close to the others.
  EXPECT_GE(nodes[3].pbft->state_transfers(), 1u);
  const SeqNum healthy = nodes[0].pbft->last_executed();
  EXPECT_GT(healthy, 20u);
  EXPECT_GE(nodes[3].pbft->last_executed() + 20, healthy);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(StateTransfer, SnapshotFromSingleNodeRequiresCertificate) {
  // A snapshot whose (seq, digest) lacks a quorum certificate must be
  // ignored. Drive the core directly with a forged snapshot message.
  TestCluster cluster(testing::cluster_config(core::Protocol::kPbft));
  cluster.net().start();

  auto forged = std::make_shared<pbft::StateSnapshotMsg>();
  forged->seq = 100;
  forged->digest = Sha256::hash(as_bytes(std::string("poison")));
  const auto& ids = cluster.consensus_ids();
  cluster.net().send(ids[1], ids[0], forged);
  cluster.net().run_until(milliseconds(200));

  EXPECT_EQ(cluster.nodes[0].pbft->last_executed(), 0u);
  EXPECT_EQ(cluster.nodes[0].pbft->state_transfers(), 0u);
}

}  // namespace
}  // namespace predis::consensus
