// Partition tests: consensus halts while no quorum-connected component
// exists and resumes (safely) when the partition heals.
#include <gtest/gtest.h>

#include "cluster.hpp"
#include "consensus/pbft/pbft_node.hpp"
#include "consensus/predis/predis_nodes.hpp"

namespace predis::consensus {
namespace {

using testing::TestCluster;

/// Drop every message crossing the {0,1} | {2,3} cut.
runtime::Runtime::DropFilter split_filter(const std::vector<NodeId>& ids) {
  return [ids](NodeId from, NodeId to, const runtime::Message&) {
    auto side = [&ids](NodeId id) {
      return id == ids[0] || id == ids[1];
    };
    const bool from_consensus =
        std::find(ids.begin(), ids.end(), from) != ids.end();
    const bool to_consensus =
        std::find(ids.begin(), ids.end(), to) != ids.end();
    if (!from_consensus || !to_consensus) return false;  // clients pass
    return side(from) != side(to);
  };
}

TEST(Partition, PbftHaltsDuringSplitAndHealsSafely) {
  auto cfg = testing::cluster_config(core::Protocol::kPbft);
  cfg.batch_size = 50;
  TestCluster cluster(cfg);
  cluster.add_client(cluster.consensus_ids(), 400, seconds(6));
  cluster.net().start();

  cluster.net().run_until(seconds(1));
  const auto before = cluster.metrics.committed_txs();
  EXPECT_GT(before, 0u);

  // 2-2 split: neither side has a quorum of 3.
  cluster.net().set_drop_filter(split_filter(cluster.consensus_ids()));
  cluster.net().run_until(seconds(3));
  const auto during = cluster.metrics.committed_txs();
  EXPECT_LE(during, before + 100);  // at most in-flight remnants

  // Heal; progress resumes and safety holds.
  cluster.net().set_drop_filter(nullptr);
  cluster.net().run_until(seconds(7));
  EXPECT_GT(cluster.metrics.committed_txs(), during);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(Partition, PredisPbftHealsAndRecoversBundles) {
  auto cfg = testing::cluster_config(core::Protocol::kPredisPbft);
  cfg.bundle_size = 20;
  cfg.bundle_interval = milliseconds(20);
  TestCluster cluster(cfg);
  cluster.add_node_clients(200, seconds(6), 80);
  cluster.net().start();

  cluster.net().run_until(seconds(1));
  cluster.net().set_drop_filter(split_filter(cluster.consensus_ids()));
  cluster.net().run_until(seconds(3));
  cluster.net().set_drop_filter(nullptr);
  cluster.net().run_until(seconds(8));

  EXPECT_TRUE(cluster.ledger.consistent());
  // After healing, bundles produced during the split were exchanged and
  // confirmed: every chain advanced well past its pre-split height.
  const Mempool& pool = cluster.nodes[0].engine->mempool();
  for (std::size_t chain = 0; chain < 4; ++chain) {
    EXPECT_GT(pool.chain(chain).contiguous_height(), 60u) << chain;
  }
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

TEST(Partition, MinorityPartitionCannotCommit) {
  TestCluster cluster(testing::cluster_config(core::Protocol::kPbft));
  // Isolate node 0 (the leader) alone; the other three keep quorum.
  const NodeId isolated = cluster.consensus_ids()[0];
  cluster.net().set_drop_filter(
      [isolated, ids = cluster.consensus_ids()](NodeId from, NodeId to,
                                                const runtime::Message&) {
        const bool from_c = std::find(ids.begin(), ids.end(), from) != ids.end();
        const bool to_c = std::find(ids.begin(), ids.end(), to) != ids.end();
        if (!from_c || !to_c) return false;
        return from == isolated || to == isolated;
      });
  cluster.add_client(cluster.consensus_ids(), 400, seconds(4));
  cluster.net().start();
  cluster.net().run_until(seconds(5));

  // The majority side view-changed past the isolated leader and kept
  // committing; the isolated node committed nothing new.
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
  EXPECT_EQ(cluster.nodes[0].pbft->last_executed(), 0u);
  EXPECT_GT(cluster.nodes[1].pbft->view(), 0u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

}  // namespace
}  // namespace predis::consensus
