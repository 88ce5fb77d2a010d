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
  TestCluster cluster(4, 1);
  pbft::PbftNodeConfig ncfg;
  ncfg.batch_size = 50;
  std::vector<std::unique_ptr<pbft::PbftNode>> nodes;
  for (std::size_t i = 0; i < 4; ++i) {
    nodes.push_back(
        std::make_unique<pbft::PbftNode>(cluster.context(i), ncfg,
                                         cluster.ledger));
    nodes.back()->core().set_checkpoint_interval(8);
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  cluster.add_client(cluster.ids, 800, seconds(2));
  cluster.net.start();
  cluster.run_until(seconds(3));

  for (auto& node : nodes) {
    EXPECT_GT(node->core().stable_checkpoint(), 0u);
    EXPECT_LE(node->core().stable_checkpoint(),
              node->core().last_executed());
  }
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(StateTransfer, RevivedPredisReplicaCatchesUpViaSnapshot) {
  TestCluster cluster(4, 1);
  const auto keys = producer_keys(cluster.ids);
  std::vector<std::unique_ptr<predis::PredisPbftNode>> nodes;
  for (std::size_t i = 0; i < 4; ++i) {
    predis::PredisConfig pcfg;
    pcfg.bundle_size = 20;
    pcfg.bundle_interval = milliseconds(20);
    nodes.push_back(std::make_unique<predis::PredisPbftNode>(
        cluster.context(i), pcfg, keys, KeyPair::from_seed(cluster.ids[i]),
        cluster.ledger));
    nodes.back()->core().set_checkpoint_interval(8);
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.add_client({cluster.ids[i]}, 300, seconds(8), 70 + i);
  }
  cluster.net.start();

  // Node 3 goes dark for two simulated seconds.
  cluster.run_until(seconds(1));
  cluster.net.set_node_down(cluster.ids[3], true);
  cluster.run_until(seconds(3));
  cluster.net.set_node_down(cluster.ids[3], false);

  cluster.run_until(seconds(9));

  // The revived node adopted a snapshot and is close to the others.
  EXPECT_GE(nodes[3]->core().state_transfers(), 1u);
  const SeqNum healthy = nodes[0]->core().last_executed();
  EXPECT_GT(healthy, 20u);
  EXPECT_GE(nodes[3]->core().last_executed() + 20, healthy);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(StateTransfer, SnapshotFromSingleNodeRequiresCertificate) {
  // A snapshot whose (seq, digest) lacks a quorum certificate must be
  // ignored. Drive the core directly with a forged snapshot message.
  TestCluster cluster(4, 1);
  pbft::PbftNodeConfig ncfg;
  std::vector<std::unique_ptr<pbft::PbftNode>> nodes;
  for (std::size_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<pbft::PbftNode>(cluster.context(i),
                                                     ncfg, cluster.ledger));
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  cluster.net.start();

  auto forged = std::make_shared<pbft::StateSnapshotMsg>();
  forged->seq = 100;
  forged->digest = Sha256::hash(as_bytes(std::string("poison")));
  cluster.net.send(cluster.ids[1], cluster.ids[0], forged);
  cluster.run_until(milliseconds(200));

  EXPECT_EQ(nodes[0]->core().last_executed(), 0u);
  EXPECT_EQ(nodes[0]->core().state_transfers(), 0u);
}

}  // namespace
}  // namespace predis::consensus
