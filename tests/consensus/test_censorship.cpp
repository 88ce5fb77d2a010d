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

struct CensorCluster : TestCluster {
  CensorCluster() : TestCluster(4, 1) {
    const auto keys = producer_keys(ids);
    for (std::size_t i = 0; i < 4; ++i) {
      PredisConfig pcfg;
      pcfg.bundle_size = 20;
      pcfg.bundle_interval = milliseconds(20);
      nodes.push_back(std::make_unique<PredisPbftNode>(
          context(i), pcfg, keys, KeyPair::from_seed(ids[i]), ledger));
      net.attach(ids[i], nodes.back().get());
    }
  }
  std::vector<std::unique_ptr<PredisPbftNode>> nodes;
};

ClientActor* add_resubmitting_client(CensorCluster& cluster, NodeId target,
                                     double tps, SimTime resubmit) {
  runtime::NodeConfig ncfg;
  ncfg.up_bw = 10 * runtime::kBandwidth100Mbps;
  ncfg.down_bw = 10 * runtime::kBandwidth100Mbps;
  const NodeId id = cluster.net.add_node(ncfg);
  ClientConfig ccfg;
  ccfg.self = id;
  ccfg.targets = {target};
  ccfg.all_consensus = cluster.ids;
  ccfg.resubmit_timeout = resubmit;
  ccfg.tx_per_second = tps;
  ccfg.stop_at = seconds(2);
  ccfg.seed = 99;
  cluster.clients.push_back(
      std::make_unique<ClientActor>(cluster.net, ccfg, cluster.metrics));
  cluster.net.attach(id, cluster.clients.back().get());
  return cluster.clients.back().get();
}

TEST(Censorship, DroppedTransactionsCommitViaResubmission) {
  CensorCluster cluster;
  // Node 3 censors: every client request addressed to it is dropped.
  const NodeId censor = cluster.ids[3];
  cluster.net.set_drop_filter(
      [censor](NodeId, NodeId to, const runtime::Message& msg) {
        return to == censor &&
               std::string(msg.name()) == "ClientRequest";
      });

  ClientActor* client = add_resubmitting_client(
      cluster, censor, 200, milliseconds(600));
  cluster.net.start();
  cluster.run_until(seconds(6));

  // Every transaction eventually committed through another node.
  EXPECT_GT(client->resubmissions(), 0u);
  EXPECT_EQ(cluster.metrics.latencies().count(), client->submitted());
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(Censorship, NoResubmissionsWhenTargetHonest) {
  CensorCluster cluster;
  ClientActor* client = add_resubmitting_client(
      cluster, cluster.ids[0], 200, milliseconds(600));
  cluster.net.start();
  cluster.run_until(seconds(4));
  EXPECT_EQ(client->resubmissions(), 0u);
  EXPECT_EQ(cluster.metrics.latencies().count(), client->submitted());
}

}  // namespace
}  // namespace predis::consensus::predis
