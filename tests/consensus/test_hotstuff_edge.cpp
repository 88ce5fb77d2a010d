// Edge cases of the chained-HotStuff core: out-of-order proposals
// (orphans), duplicate votes, and stale messages.
#include <gtest/gtest.h>

#include "cluster.hpp"
#include "consensus/hotstuff/hotstuff_node.hpp"

namespace predis::consensus::hotstuff {
namespace {

using testing::TestCluster;

/// HotStuff with 50-transaction batches.
core::ClusterConfig edge() {
  auto cfg = testing::cluster_config(core::Protocol::kHotStuff);
  cfg.batch_size = 50;
  return cfg;
}

TEST(HotStuffEdge, ReorderedProposalsStillCommit) {
  TestCluster cluster(edge());
  // Give one link a large jitter so proposals from rotating leaders
  // arrive out of order at node 3 (exercises the orphan buffer).
  Rng rng(5);
  const NodeId node3 = cluster.consensus_ids()[3];
  cluster.net().set_extra_delay([&rng, node3](NodeId from, NodeId to) {
    if (to == node3 && from != node3) {
      return static_cast<SimTime>(rng.next_below(30)) * milliseconds(1);
    }
    return SimTime{0};
  });
  cluster.add_client(cluster.consensus_ids(), 400, seconds(3));
  cluster.net().start();
  cluster.net().run_until(seconds(4));

  EXPECT_GT(cluster.metrics.committed_txs(), 800u);
  EXPECT_TRUE(cluster.ledger.consistent());
  // Node 3 still executes the same chain despite the jitter.
  EXPECT_GT(cluster.nodes[3].hotstuff->committed_round(), 10u);
}

TEST(HotStuffEdge, DuplicatedMessagesAreHarmless) {
  TestCluster cluster(edge());
  // Deliver every consensus message twice by re-sending from a tap.
  // The network has no duplication hook, so emulate with a drop-filter
  // that never drops but a second identical send via extra delay is not
  // possible; instead run with heavy load and rely on duplicate votes
  // from the vote-to-two-leaders rule, then assert exact-once commits.
  cluster.add_client(cluster.consensus_ids(), 500, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_EQ(cluster.metrics.committed_txs(), cluster.metrics.submitted_txs());
  EXPECT_EQ(cluster.metrics.latencies().count(),
            cluster.metrics.submitted_txs());
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(HotStuffEdge, LossySingleLinkDegradesButStaysSafe) {
  TestCluster cluster(edge());
  int counter = 0;
  const auto& ids = cluster.consensus_ids();
  cluster.net().set_drop_filter(
      [&counter, &ids](NodeId from, NodeId to, const runtime::Message&) {
        // Drop every 4th message on the 0 -> 2 link.
        return from == ids[0] && to == ids[2] && ++counter % 4 == 0;
      });
  cluster.add_client(cluster.consensus_ids(), 400, seconds(3));
  cluster.net().start();
  cluster.net().run_until(seconds(4));
  EXPECT_GT(cluster.metrics.committed_txs(), 400u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

}  // namespace
}  // namespace predis::consensus::hotstuff
