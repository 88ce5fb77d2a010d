#include "consensus/predis/predis_nodes.hpp"

#include <gtest/gtest.h>

#include "cluster.hpp"

namespace predis::consensus::predis {
namespace {

using testing::TestCluster;

/// P-PBFT or P-HS with 20-transaction bundles cut every 20 ms; the last
/// `n_faulty` nodes run `fault`.
core::ClusterConfig predis_config(core::Protocol protocol,
                                  FaultMode fault = FaultMode::kNone,
                                  std::size_t n_faulty = 0) {
  auto cfg = testing::cluster_config(protocol);
  cfg.bundle_size = 20;
  cfg.bundle_interval = milliseconds(20);
  cfg.fault_mode = fault;
  cfg.n_faulty = n_faulty;
  return cfg;
}

const core::ClusterConfig kPPbft = predis_config(core::Protocol::kPredisPbft);
const core::ClusterConfig kPHs = predis_config(core::Protocol::kPredisHotStuff);

TEST(PredisPbft, CommitsClientTransactions) {
  TestCluster cluster(kPPbft);
  cluster.add_node_clients(250, seconds(2), 31);
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 1500u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(PredisHotStuff, CommitsClientTransactions) {
  TestCluster cluster(kPHs);
  cluster.add_node_clients(250, seconds(2), 31);
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 1500u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(PredisPbft, EveryNodeContributesBundles) {
  TestCluster cluster(kPPbft);
  cluster.add_node_clients(200, seconds(2), 31);
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  // Each consensus node's chain advanced in everyone's mempool.
  const Mempool& pool = cluster.nodes[0].engine->mempool();
  for (std::size_t chain = 0; chain < 4; ++chain) {
    EXPECT_GT(pool.chain(chain).contiguous_height(), 10u) << chain;
  }
}

TEST(PredisPbft, MissingBundlesAreFetchedAndBlocksStillCommit) {
  TestCluster cluster(kPPbft);
  const auto& ids = cluster.consensus_ids();
  // Drop ~30% of bundle multicasts from node 3 to node 1: node 1 must
  // fetch the gaps when Predis blocks reference them (§III-D case 2).
  int counter = 0;
  cluster.net().set_drop_filter(
      [&](NodeId from, NodeId to, const runtime::Message& msg) {
        if (from == ids[3] && to == ids[1] &&
            std::string(msg.name()) == "Bundle") {
          return ++counter % 3 == 0;
        }
        return false;
      });
  cluster.add_node_clients(200, seconds(3), 31);
  cluster.net().start();
  cluster.net().run_until(seconds(4));
  EXPECT_GT(cluster.metrics.committed_txs(), 1000u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(PredisPbft, LeaderCrashViewChangeRecovers) {
  TestCluster cluster(kPPbft);
  cluster.add_node_clients(200, seconds(4), 31);
  cluster.net().start();
  cluster.net().run_until(seconds(1));
  const auto before = cluster.metrics.committed_txs();
  EXPECT_GT(before, 0u);

  cluster.net().set_node_down(cluster.consensus_ids()[0], true);
  cluster.net().run_until(seconds(5));
  EXPECT_GT(cluster.metrics.committed_txs(), before);
  EXPECT_TRUE(cluster.ledger.consistent());
}

// Fig. 6 case 1: silent Byzantine nodes — the rest keep committing at
// roughly (n - f)/n of the healthy rate.
TEST(PredisPbft, SilentFaultDegradesButDoesNotStop) {
  TestCluster healthy(kPPbft);
  healthy.add_node_clients(250, seconds(3), 31);
  healthy.net().start();
  healthy.net().run_until(seconds(4));
  const auto healthy_txs = healthy.metrics.committed_txs();

  TestCluster faulty(
      predis_config(core::Protocol::kPredisPbft, FaultMode::kSilent, 1));
  faulty.add_node_clients(250, seconds(3), 31);
  faulty.net().start();
  faulty.net().run_until(seconds(4));
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
  TestCluster faulty(predis_config(core::Protocol::kPredisPbft,
                                    FaultMode::kPartialDissemination, 1));
  faulty.add_node_clients(250, seconds(3), 31);
  faulty.net().start();
  faulty.net().run_until(seconds(4));
  EXPECT_GT(faulty.metrics.committed_txs(), 500u);
  EXPECT_TRUE(faulty.ledger.consistent());
}

TEST(PredisHotStuff, ToleratesSilentFault) {
  TestCluster faulty(
      predis_config(core::Protocol::kPredisHotStuff, FaultMode::kSilent, 1));
  faulty.add_node_clients(200, seconds(3), 31);
  faulty.net().start();
  faulty.net().run_until(seconds(4));
  EXPECT_GT(faulty.metrics.committed_txs(), 0u);
  EXPECT_TRUE(faulty.ledger.consistent());
}

class PredisSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PredisSeeds, SafetyAcrossSeeds) {
  TestCluster cluster(kPPbft);
  cluster.add_node_clients(200, seconds(2), GetParam() * 100);
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredisSeeds,
                         ::testing::Range<std::uint64_t>(1, 7));

// A Byzantine producer that equivocates gets banned everywhere and its
// chain stops being cut, while the system keeps committing.
TEST(PredisPbft, EquivocatingProducerIsBannedEverywhere) {
  TestCluster cluster(kPPbft);
  const auto& ids = cluster.consensus_ids();
  cluster.add_node_clients(150, seconds(3), 31);
  cluster.net().start();
  cluster.net().run_until(milliseconds(500));

  // Inject a forged conflicting bundle for chain 3 at height 1 (same
  // parent as the genuine one, different content), as an honest node
  // would learn of it from the network.
  const Mempool& pool0 = cluster.nodes[0].engine->mempool();
  ASSERT_TRUE(pool0.chain(3).has(1));
  Transaction tx;
  tx.client = 77;
  tx.seq = 1;
  Bundle evil = make_bundle(3, 1, kZeroHash,
                            pool0.chain(3).get(1)->header.tip_list, {tx},
                            KeyPair::from_seed(ids[3]));
  auto msg = std::make_shared<BundleMsg>();
  msg->bundle = evil;
  // Deliver the equivocation to node 0; it must gossip the evidence.
  cluster.net().send(ids[3], ids[0], msg);

  cluster.net().run_until(seconds(4));
  for (auto& node : cluster.nodes) {
    EXPECT_TRUE(node.engine->mempool().is_banned(3));
  }
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

TEST(PredisEngineValidate, RejectsBlockSignedByNonLeaderKey) {
  // validate_payload checks the leader signature against the leader's
  // producer key. The same empty-cut block must pass when the leader
  // signed it and fail when another consensus node did.
  TestCluster cluster(4, 1);
  const auto& ids = cluster.consensus_ids();
  NodeContext ctx = cluster.context(1);
  PredisEngine engine(ctx, PredisConfig{}, cluster.keys,
                      KeyPair::from_seed(ids[1]));
  const std::vector<BundleHeight> prev(4, 0);
  auto payload_signed_by = [&](NodeId signer) {
    return std::make_shared<PredisPayload>(
        build_predis_block(engine.mempool(), /*leader=*/0, 1, 1, 0,
                           kZeroHash, prev, KeyPair::from_seed(signer)));
  };
  ASSERT_EQ(verify_predis_block(engine.mempool(),
                                payload_signed_by(ids[2])->block(),
                                engine.mempool().producer_key(0)),
            BlockVerifyResult::kBadSignature);
  EXPECT_EQ(engine.validate_payload(payload_signed_by(ids[0]), prev),
            Validity::kValid);
  EXPECT_EQ(engine.validate_payload(payload_signed_by(ids[2]), prev),
            Validity::kInvalid);
  EXPECT_EQ(engine.validate_payload(payload_signed_by(ids[1]), prev),
            Validity::kInvalid);
}

std::vector<Transaction> client_txs(std::size_t n, TxSeq first_seq) {
  std::vector<Transaction> txs(n);
  for (std::size_t i = 0; i < n; ++i) {
    txs[i].client = 99;
    txs[i].seq = first_seq + i;
  }
  return txs;
}

TEST(PredisEngineIngest, BatchReplyStillChecksEveryRoot) {
  // A BundleBatch reply's signatures are verified as one batch; that
  // vouches for the headers, not for the bodies under them.
  TestCluster cluster(4, 1);
  const auto& ids = cluster.consensus_ids();
  NodeContext ctx = cluster.context(0);
  PredisEngine engine(ctx, PredisConfig{}, cluster.keys,
                      KeyPair::from_seed(ids[0]));
  const KeyPair key1 = KeyPair::from_seed(ids[1]);
  Bundle swapped = make_bundle(1, 1, kZeroHash, {0, 1, 0, 0},
                               client_txs(3, 1), key1);
  swapped.txs = client_txs(3, 100);  // same signed header, other body
  ASSERT_TRUE(verify_bundle_signature(swapped.header, key1.public_key()));

  auto batch = std::make_shared<BundleBatchMsg>();
  batch->bundles = {swapped,
                    make_bundle(2, 1, kZeroHash, {0, 0, 1, 0},
                                client_txs(3, 7),
                                KeyPair::from_seed(ids[2]))};
  EXPECT_TRUE(engine.handle(ids[3], batch));
  EXPECT_FALSE(engine.mempool().chain(1).has(1));
  EXPECT_TRUE(engine.mempool().chain(2).has(1));
}

TEST(PredisEngineIngest, OwnBundleStillNeedsTheRegisteredKey) {
  // Own bundles skip the root recheck (make_bundle just computed it),
  // not the signature check against the registered producer key.
  PredisConfig cfg;
  cfg.bundle_size = 10;
  for (const bool registered : {true, false}) {
    TestCluster cluster(4, 1);
    NodeContext ctx = cluster.context(0);
    const NodeId signer = registered ? cluster.consensus_ids()[0] : 999;
    PredisEngine engine(ctx, cfg, cluster.keys, KeyPair::from_seed(signer));
    engine.enqueue(client_txs(10, 1));  // one full bundle: packed eagerly
    EXPECT_EQ(engine.mempool().chain(0).contiguous_height(),
              registered ? 1u : 0u);
  }
}

}  // namespace
}  // namespace predis::consensus::predis
