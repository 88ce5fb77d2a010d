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
  TestCluster cluster(4, 1);
  pbft::PbftNodeConfig ncfg;
  ncfg.batch_size = 50;
  std::vector<std::unique_ptr<pbft::PbftNode>> nodes;
  for (std::size_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<pbft::PbftNode>(cluster.context(i),
                                                     ncfg, cluster.ledger));
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  cluster.add_client(cluster.ids, 400, seconds(6));
  cluster.net.start();

  cluster.run_until(seconds(1));
  const auto before = cluster.metrics.committed_txs();
  EXPECT_GT(before, 0u);

  // 2-2 split: neither side has a quorum of 3.
  cluster.net.set_drop_filter(split_filter(cluster.ids));
  cluster.run_until(seconds(3));
  const auto during = cluster.metrics.committed_txs();
  EXPECT_LE(during, before + 100);  // at most in-flight remnants

  // Heal; progress resumes and safety holds.
  cluster.net.set_drop_filter(nullptr);
  cluster.run_until(seconds(7));
  EXPECT_GT(cluster.metrics.committed_txs(), during);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(Partition, PredisPbftHealsAndRecoversBundles) {
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
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.add_client({cluster.ids[i]}, 200, seconds(6), 80 + i);
  }
  cluster.net.start();

  cluster.run_until(seconds(1));
  cluster.net.set_drop_filter(split_filter(cluster.ids));
  cluster.run_until(seconds(3));
  cluster.net.set_drop_filter(nullptr);
  cluster.run_until(seconds(8));

  EXPECT_TRUE(cluster.ledger.consistent());
  // After healing, bundles produced during the split were exchanged and
  // confirmed: every chain advanced well past its pre-split height.
  const Mempool& pool = nodes[0]->engine().mempool();
  for (std::size_t chain = 0; chain < 4; ++chain) {
    EXPECT_GT(pool.chain(chain).contiguous_height(), 60u) << chain;
  }
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

TEST(Partition, MinorityPartitionCannotCommit) {
  TestCluster cluster(4, 1);
  pbft::PbftNodeConfig ncfg;
  std::vector<std::unique_ptr<pbft::PbftNode>> nodes;
  for (std::size_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<pbft::PbftNode>(cluster.context(i),
                                                     ncfg, cluster.ledger));
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  // Isolate node 0 (the leader) alone; the other three keep quorum.
  const NodeId isolated = cluster.ids[0];
  cluster.net.set_drop_filter(
      [isolated, ids = cluster.ids](NodeId from, NodeId to,
                                    const runtime::Message&) {
        const bool from_c = std::find(ids.begin(), ids.end(), from) != ids.end();
        const bool to_c = std::find(ids.begin(), ids.end(), to) != ids.end();
        if (!from_c || !to_c) return false;
        return from == isolated || to == isolated;
      });
  cluster.add_client(cluster.ids, 400, seconds(4));
  cluster.net.start();
  cluster.run_until(seconds(5));

  // The majority side view-changed past the isolated leader and kept
  // committing; the isolated node committed nothing new.
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
  EXPECT_EQ(nodes[0]->core().last_executed(), 0u);
  EXPECT_GT(nodes[1]->core().view(), 0u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

}  // namespace
}  // namespace predis::consensus
