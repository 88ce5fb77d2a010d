// §III-E censorship attack: a consensus node that swallows the client
// transactions sent to it. The client's resubmission countermeasure
// consigns overdue transactions to other consensus nodes, so they still
// commit.
#include <gtest/gtest.h>

#include "cluster.hpp"
#include "consensus/predis/predis_nodes.hpp"

namespace predis::consensus::predis {
namespace {

using testing::TestCluster;

/// P-PBFT with 20-transaction bundles cut every 20 ms.
core::ClusterConfig censor_config() {
  auto cfg = testing::cluster_config(core::Protocol::kPredisPbft);
  cfg.bundle_size = 20;
  cfg.bundle_interval = milliseconds(20);
  return cfg;
}

/// One client aimed at `target` that consigns transactions unconfirmed
/// after `resubmit` to the other consensus nodes.
ClientActor* add_resubmitting_client(TestCluster& cluster, NodeId target,
                                     double tps, SimTime resubmit) {
  ClientConfig shape;
  shape.all_consensus = cluster.consensus_ids();
  shape.resubmit_timeout = resubmit;
  shape.tx_per_second = tps;
  shape.stop_at = seconds(2);
  shape.seed = 99;
  cluster.clients = add_clients(cluster.net(), {target}, 1, /*regions=*/1,
                                /*broadcast=*/false, shape, cluster.metrics);
  return cluster.clients.back().get();
}

TEST(Censorship, DroppedTransactionsCommitViaResubmission) {
  TestCluster cluster(censor_config());
  // Node 3 censors: every client request addressed to it is dropped.
  const NodeId censor = cluster.consensus_ids()[3];
  cluster.net().set_drop_filter(
      [censor](NodeId, NodeId to, const runtime::Message& msg) {
        return to == censor &&
               std::string(msg.name()) == "ClientRequest";
      });

  ClientActor* client = add_resubmitting_client(
      cluster, censor, 200, milliseconds(600));
  cluster.net().start();
  cluster.net().run_until(seconds(6));

  // Every transaction eventually committed through another node.
  EXPECT_GT(client->resubmissions(), 0u);
  EXPECT_EQ(cluster.metrics.latencies().count(),
            cluster.metrics.submitted_txs());
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(Censorship, NoResubmissionsWhenTargetHonest) {
  TestCluster cluster(censor_config());
  ClientActor* client = add_resubmitting_client(
      cluster, cluster.consensus_ids()[0], 200, milliseconds(600));
  cluster.net().start();
  cluster.net().run_until(seconds(4));
  EXPECT_EQ(client->resubmissions(), 0u);
  EXPECT_EQ(cluster.metrics.latencies().count(),
            cluster.metrics.submitted_txs());
}

}  // namespace
}  // namespace predis::consensus::predis
