#include "consensus/predis/predis_nodes.hpp"

#include <gtest/gtest.h>

#include "cluster.hpp"

namespace predis::consensus::predis {
namespace {

using testing::TestCluster;

template <typename Node>
struct PredisCluster : TestCluster {
  explicit PredisCluster(std::size_t n = 4, std::size_t f = 1,
                         FaultMode fault = FaultMode::kNone,
                         std::size_t n_faulty = 0)
      : TestCluster(n, f) {
    const auto keys = producer_keys();
    for (std::size_t i = 0; i < n; ++i) {
      PredisConfig pcfg;
      pcfg.bundle_size = 20;
      pcfg.bundle_interval = milliseconds(20);
      if (i + n_faulty >= n) pcfg.fault = fault;
      nodes.push_back(std::make_unique<Node>(
          context(i), pcfg, keys, KeyPair::from_seed(ids[i]), ledger));
      net.attach(ids[i], nodes.back().get());
    }
  }

  /// Predis clients send to a single consensus node each.
  void add_predis_clients(double total_tps, SimTime stop) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      add_client({ids[i]}, total_tps / static_cast<double>(ids.size()),
                 stop, 31 + i);
    }
  }

  std::vector<std::unique_ptr<Node>> nodes;
};

using PPbft = PredisCluster<PredisPbftNode>;
using PHs = PredisCluster<PredisHotStuffNode>;

TEST(PredisPbft, CommitsClientTransactions) {
  PPbft cluster;
  cluster.add_predis_clients(1000, seconds(2));
  cluster.net.start();
  cluster.run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 1500u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(PredisHotStuff, CommitsClientTransactions) {
  PHs cluster;
  cluster.add_predis_clients(1000, seconds(2));
  cluster.net.start();
  cluster.run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 1500u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(PredisPbft, EveryNodeContributesBundles) {
  PPbft cluster;
  cluster.add_predis_clients(800, seconds(2));
  cluster.net.start();
  cluster.run_until(seconds(3));
  // Each consensus node's chain advanced in everyone's mempool.
  const Mempool& pool = cluster.nodes[0]->engine().mempool();
  for (std::size_t chain = 0; chain < 4; ++chain) {
    EXPECT_GT(pool.chain(chain).contiguous_height(), 10u) << chain;
  }
}

TEST(PredisPbft, MissingBundlesAreFetchedAndBlocksStillCommit) {
  PPbft cluster;
  // Drop ~30% of bundle multicasts from node 3 to node 1: node 1 must
  // fetch the gaps when Predis blocks reference them (§III-D case 2).
  int counter = 0;
  cluster.net.set_drop_filter(
      [&](NodeId from, NodeId to, const runtime::Message& msg) {
        if (from == cluster.ids[3] && to == cluster.ids[1] &&
            std::string(msg.name()) == "Bundle") {
          return ++counter % 3 == 0;
        }
        return false;
      });
  cluster.add_predis_clients(800, seconds(3));
  cluster.net.start();
  cluster.run_until(seconds(4));
  EXPECT_GT(cluster.metrics.committed_txs(), 1000u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(PredisPbft, LeaderCrashViewChangeRecovers) {
  PPbft cluster;
  cluster.add_predis_clients(800, seconds(4));
  cluster.net.start();
  cluster.run_until(seconds(1));
  const auto before = cluster.metrics.committed_txs();
  EXPECT_GT(before, 0u);

  cluster.net.set_node_down(cluster.ids[0], true);
  cluster.run_until(seconds(5));
  EXPECT_GT(cluster.metrics.committed_txs(), before);
  EXPECT_TRUE(cluster.ledger.consistent());
}

// Fig. 6 case 1: silent Byzantine nodes — the rest keep committing at
// roughly (n - f)/n of the healthy rate.
TEST(PredisPbft, SilentFaultDegradesButDoesNotStop) {
  PPbft healthy;
  healthy.add_predis_clients(1000, seconds(3));
  healthy.net.start();
  healthy.run_until(seconds(4));
  const auto healthy_txs = healthy.metrics.committed_txs();

  PPbft faulty(4, 1, FaultMode::kSilent, 1);
  faulty.add_predis_clients(1000, seconds(3));
  faulty.net.start();
  faulty.run_until(seconds(4));
  const auto faulty_txs = faulty.metrics.committed_txs();

  EXPECT_GT(faulty_txs, 0u);
  EXPECT_LT(faulty_txs, healthy_txs);
  // Case-1 throughput ~ (n - f)/n of normal (the silent node's clients
  // are not served).
  EXPECT_GT(static_cast<double>(faulty_txs),
            0.55 * static_cast<double>(healthy_txs));
  EXPECT_TRUE(faulty.ledger.consistent());
}

// Fig. 6 case 2: the faulty node still produces bundles but sends them
// to only n_c - f - 1 peers and never votes. Missing-bundle fetches
// keep the system live, with throughput between case 1 and healthy.
TEST(PredisPbft, PartialDisseminationFaultStaysLive) {
  PPbft faulty(4, 1, FaultMode::kPartialDissemination, 1);
  faulty.add_predis_clients(1000, seconds(3));
  faulty.net.start();
  faulty.run_until(seconds(4));
  EXPECT_GT(faulty.metrics.committed_txs(), 500u);
  EXPECT_TRUE(faulty.ledger.consistent());
}

TEST(PredisHotStuff, ToleratesSilentFault) {
  PHs faulty(4, 1, FaultMode::kSilent, 1);
  faulty.add_predis_clients(800, seconds(3));
  faulty.net.start();
  faulty.run_until(seconds(4));
  EXPECT_GT(faulty.metrics.committed_txs(), 0u);
  EXPECT_TRUE(faulty.ledger.consistent());
}

class PredisSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PredisSeeds, SafetyAcrossSeeds) {
  PPbft cluster;
  for (std::size_t i = 0; i < cluster.ids.size(); ++i) {
    cluster.add_client({cluster.ids[i]}, 200, seconds(2),
                       GetParam() * 100 + i);
  }
  cluster.net.start();
  cluster.run_until(seconds(3));
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredisSeeds,
                         ::testing::Range<std::uint64_t>(1, 7));

// A Byzantine producer that equivocates gets banned everywhere and its
// chain stops being cut, while the system keeps committing.
TEST(PredisPbft, EquivocatingProducerIsBannedEverywhere) {
  PPbft cluster;
  cluster.add_predis_clients(600, seconds(3));
  cluster.net.start();
  cluster.run_until(milliseconds(500));

  // Inject a forged conflicting bundle for chain 3 at height 1 (same
  // parent as the genuine one, different content), as an honest node
  // would learn of it from the network.
  const Mempool& pool0 = cluster.nodes[0]->engine().mempool();
  ASSERT_TRUE(pool0.chain(3).has(1));
  Transaction tx;
  tx.client = 77;
  tx.seq = 1;
  Bundle evil = make_bundle(3, 1, kZeroHash,
                            pool0.chain(3).get(1)->header.tip_list, {tx},
                            KeyPair::from_seed(cluster.ids[3]));
  auto msg = std::make_shared<BundleMsg>();
  msg->bundle = evil;
  // Deliver the equivocation to node 0; it must gossip the evidence.
  cluster.net.send(cluster.ids[3], cluster.ids[0], msg);

  cluster.run_until(seconds(4));
  for (auto& node : cluster.nodes) {
    EXPECT_TRUE(node->engine().mempool().is_banned(3));
  }
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

TEST(PredisEngineValidate, RejectsBlockSignedByNonLeaderKey) {
  // validate_payload checks the leader signature against the leader's
  // producer key. The same empty-cut block must pass when the leader
  // signed it and fail when another consensus node did.
  TestCluster cluster(4, 1);
  NodeContext ctx = cluster.context(1);
  PredisEngine engine(ctx, PredisConfig{}, cluster.producer_keys(),
                      KeyPair::from_seed(cluster.ids[1]));
  const std::vector<BundleHeight> prev(4, 0);
  auto payload_signed_by = [&](NodeId signer) {
    return std::make_shared<PredisPayload>(
        build_predis_block(engine.mempool(), /*leader=*/0, 1, 1, 0,
                           kZeroHash, prev, KeyPair::from_seed(signer)));
  };
  ASSERT_EQ(verify_predis_block(engine.mempool(),
                                payload_signed_by(cluster.ids[2])->block(),
                                engine.mempool().producer_key(0)),
            BlockVerifyResult::kBadSignature);
  EXPECT_EQ(engine.validate_payload(payload_signed_by(cluster.ids[0]), prev),
            Validity::kValid);
  EXPECT_EQ(engine.validate_payload(payload_signed_by(cluster.ids[2]), prev),
            Validity::kInvalid);
  EXPECT_EQ(engine.validate_payload(payload_signed_by(cluster.ids[1]), prev),
            Validity::kInvalid);
}

}  // namespace
}  // namespace predis::consensus::predis
