#include "consensus/narwhal/shared_mempool.hpp"

#include <gtest/gtest.h>

#include "cluster.hpp"

namespace predis::consensus::narwhal {
namespace {

using testing::TestCluster;

/// Narwhal (RBC, n - f acks) or Stratus (PAB, f + 1 acks) with
/// 20-transaction microblocks packed every 20 ms.
core::ClusterConfig shared_mempool(core::Protocol protocol) {
  auto cfg = testing::cluster_config(protocol);
  cfg.bundle_size = 20;
  cfg.bundle_interval = milliseconds(20);
  return cfg;
}

TEST(Narwhal, CommitsWithRbcQuorum) {
  TestCluster cluster(shared_mempool(core::Protocol::kNarwhal));
  cluster.add_node_clients(250, seconds(2), 61);
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 1200u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(Stratus, CommitsWithPabQuorum) {
  TestCluster cluster(shared_mempool(core::Protocol::kStratus));
  cluster.add_node_clients(250, seconds(2), 61);
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 1200u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(SharedMempool, NoTransactionCommittedTwice) {
  TestCluster cluster(shared_mempool(core::Protocol::kNarwhal));
  cluster.add_client(cluster.consensus_ids(), 300, seconds(2), 5);
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  // The client broadcast to all nodes; each node packs its own copy of
  // the duplicates into microblocks, but dedup happens at reply time —
  // commits may exceed submissions (microblocks are not deduplicated
  // across producers, exactly the Byzantine-client issue §III-E notes).
  // What must hold: every submitted tx got exactly one reply.
  EXPECT_EQ(cluster.metrics.latencies().count(),
            cluster.metrics.submitted_txs());
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(SharedMempool, ProposalSizeGrowsWithIdCount) {
  const IdListPayload small(
      std::vector<MicroblockRef>(10), /*cert_signers=*/3);
  const IdListPayload large(
      std::vector<MicroblockRef>(1000), /*cert_signers=*/3);
  EXPECT_GT(large.wire_size(), 50 * small.wire_size());
  // 1000 ids with certificates is tens of KB — the paper's ~30 KB
  // versus a <2.5 KB Predis block.
  EXPECT_GT(large.wire_size(), 30'000u);
}

TEST(SharedMempool, StratusCertificatesAreSmaller) {
  const IdListPayload narwhal(std::vector<MicroblockRef>(100), 3);
  const IdListPayload stratus(std::vector<MicroblockRef>(100), 2);
  EXPECT_LT(stratus.wire_size(), narwhal.wire_size());
}

TEST(SharedMempool, SurvivesCrashOfOneNode) {
  TestCluster cluster(shared_mempool(core::Protocol::kNarwhal));
  cluster.add_node_clients(150, seconds(3), 61);
  cluster.net().start();
  cluster.net().run_until(milliseconds(800));
  const auto before = cluster.metrics.committed_txs();
  cluster.net().set_node_down(cluster.consensus_ids()[2], true);
  cluster.net().run_until(seconds(4));
  EXPECT_GT(cluster.metrics.committed_txs(), before);
  EXPECT_TRUE(cluster.ledger.consistent());
}

}  // namespace
}  // namespace predis::consensus::narwhal
