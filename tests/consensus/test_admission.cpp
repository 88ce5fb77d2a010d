// Confirmation-bounded admission (AdmissionBudget): a shared-mempool
// producer sheds client load once its admitted-but-unconfirmed
// transactions reach kUnconfirmedTxCap, and admits again once commits
// confirm them — also after rejected bundles, bans and rejoins,
// crash-restart with state transfer, equivocation, and a partition or
// lost acknowledgements that strand its own bundles or microblocks.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster.hpp"
#include "consensus/narwhal/shared_mempool.hpp"
#include "consensus/predis/predis_nodes.hpp"

namespace predis::consensus {
namespace {

using testing::TestCluster;

std::vector<Transaction> client_txs(std::size_t n, TxSeq first_seq) {
  std::vector<Transaction> txs(n);
  for (std::size_t i = 0; i < n; ++i) {
    txs[i].client = 99;
    txs[i].seq = first_seq + i;
  }
  return txs;
}

/// Drops every message between `node` and the other consensus nodes
/// (client traffic still flows) — no restart hook fires at heal time.
runtime::Runtime::DropFilter isolate(NodeId node, std::vector<NodeId> ids) {
  return [node, ids = std::move(ids)](NodeId from, NodeId to,
                                      const runtime::Message&) {
    const auto member = [&ids](NodeId id) {
      return std::find(ids.begin(), ids.end(), id) != ids.end();
    };
    return member(from) && member(to) && (from == node) != (to == node);
  };
}

TEST(AdmissionBudget, ShedsAtTheCapByReason) {
  TestCluster cluster(4, 1);
  const NodeContext ctx = cluster.context(0);
  AdmissionBudget budget(milliseconds(150), 100);
  budget.set_metrics(&cluster.metrics);

  EXPECT_TRUE(budget.admit(ctx, 99, 10));  // one more batch fits
  EXPECT_FALSE(budget.admit(ctx, 100, 10));
  EXPECT_TRUE(budget.at_cap(100));
  EXPECT_EQ(cluster.metrics.shed_txs(ShedReason::kUnconfirmedCap), 10u);
  EXPECT_EQ(cluster.metrics.shed_txs(ShedReason::kUplinkBacklog), 0u);
  EXPECT_FALSE(
      AdmissionBudget(milliseconds(150)).at_cap(kUnconfirmedTxCap - 1));
}

TEST(AdmissionBudget, UplinkBacklogIsCheckedFirst) {
  TestCluster cluster(4, 1);
  const auto& ids = cluster.consensus_ids();
  const NodeContext ctx = cluster.context(0);
  // 5000 x 536 B queued on a 100 Mbps uplink is ~214 ms of backlog.
  auto big = std::make_shared<ClientRequestMsg>();
  big->txs = client_txs(5000, 1);
  cluster.net().send(ids[0], ids[1], big);
  ASSERT_GT(cluster.net().uplink_backlog(ids[0]), milliseconds(150));

  AdmissionBudget budget(milliseconds(150), 100);
  budget.set_metrics(&cluster.metrics);
  EXPECT_FALSE(budget.admit(ctx, 100, 7));  // at the cap too
  EXPECT_EQ(cluster.metrics.shed_txs(ShedReason::kUplinkBacklog), 7u);
  EXPECT_EQ(cluster.metrics.shed_txs(ShedReason::kUnconfirmedCap), 0u);
}

std::uint64_t shed_at_cap(const TestCluster& cluster) {
  return cluster.metrics.shed_txs(ShedReason::kUnconfirmedCap);
}

namespace pd = ::predis::consensus::predis;

/// One engine at index 0 of a 4-node group, driven by hand: nothing
/// runs, so bundles pile up above the confirmed cut until a test
/// commits a block.
struct SoloEngine {
  explicit SoloEngine(pd::FaultMode fault = pd::FaultMode::kNone)
      : ctx(cluster.context(0)),
        engine(ctx, config(fault), cluster.keys,
               KeyPair::from_seed(cluster.consensus_ids()[0])) {
    engine.set_metrics(&cluster.metrics);
  }

  static pd::PredisConfig config(pd::FaultMode fault) {
    pd::PredisConfig cfg;
    cfg.bundle_size = 50;
    cfg.fault = fault;
    return cfg;
  }

  /// Enqueue `n` client transactions, then let the uplink drain so only
  /// the unconfirmed cap can shed.
  void submit(std::size_t n) {
    engine.enqueue(client_txs(n, next_seq));
    next_seq += n;
    cluster.net().run_until(cluster.net().now() + milliseconds(10));
  }

  /// Commit a block cutting the own chain at its tip (f = n - 1 cuts at
  /// the leader's own knowledge).
  void commit_own_tip(std::uint64_t slot) {
    const std::vector<BundleHeight> prev = engine.last_cut();
    engine.commit_block(
        slot, std::make_shared<PredisPayload>(build_predis_block(
                  engine.mempool(), 0, 3, slot, 0, kZeroHash, prev,
                  KeyPair::from_seed(cluster.consensus_ids()[0]))));
  }

  TestCluster cluster{4, 1};
  NodeContext ctx;
  pd::PredisEngine engine;
  TxSeq next_seq = 1;
};

constexpr std::size_t kCapBundles = kUnconfirmedTxCap / 50;

TEST(PredisAdmission, ShedsAtTheCapAndAdmitsAgainAfterCommit) {
  SoloEngine solo;
  for (std::size_t i = 0; i < kCapBundles; ++i) solo.submit(50);
  EXPECT_EQ(solo.engine.mempool().chain(0).contiguous_height(), kCapBundles);
  EXPECT_EQ(solo.engine.queue_depth(), 0u);  // eager packing
  EXPECT_EQ(solo.engine.unconfirmed_txs(), kUnconfirmedTxCap);

  // The ingress queue is empty, yet the node holds its cap unconfirmed.
  solo.submit(50);
  EXPECT_EQ(shed_at_cap(solo.cluster), 50u);
  EXPECT_EQ(solo.engine.mempool().chain(0).contiguous_height(), kCapBundles);

  solo.commit_own_tip(1);
  EXPECT_EQ(solo.engine.mempool().confirmed()[0], kCapBundles);
  EXPECT_EQ(solo.engine.unconfirmed_txs(), 0u);

  solo.submit(50);
  EXPECT_EQ(shed_at_cap(solo.cluster), 50u);
  EXPECT_EQ(solo.engine.unconfirmed_txs(), 50u);
}

TEST(PredisAdmission, PausedFaultyProducerIsNotCapped) {
  // A Fig. 6 case-2 node never sees its bundles confirmed (its core is
  // paused); the cap would silence it, which is not the fault modelled.
  SoloEngine solo(pd::FaultMode::kPartialDissemination);
  for (std::size_t i = 0; i < kCapBundles + 10; ++i) solo.submit(50);
  EXPECT_EQ(solo.engine.mempool().chain(0).contiguous_height(),
            kCapBundles + 10);
  EXPECT_EQ(shed_at_cap(solo.cluster), 0u);
}

TEST(PredisAdmission, RejectedOwnBundleIsNotCounted) {
  SoloEngine solo;
  solo.submit(50);
  solo.engine.mempool().ban(0);  // own bundles now bounce off the mempool
  solo.submit(50);
  EXPECT_EQ(solo.engine.mempool().chain(0).contiguous_height(), 1u);
  EXPECT_EQ(solo.engine.unconfirmed_txs(), 50u);
}

TEST(PredisAdmission, FastForwardConfirmsTheCut) {
  SoloEngine solo;
  for (int i = 0; i < 4; ++i) solo.submit(50);
  solo.engine.fast_forward({3, 0, 0, 0}, 9);
  EXPECT_EQ(solo.engine.unconfirmed_txs(), 50u);  // height 4 is left
}

TEST(PredisAdmission, EquivocationCountsTheKeptBundle) {
  SoloEngine solo;
  solo.submit(50);
  solo.submit(50);
  // Two conflicting bundles at height 3; the engine keeps the empty one.
  solo.engine.inject_equivocation();
  EXPECT_EQ(solo.engine.unconfirmed_txs(), 100u);
  solo.submit(50);
  EXPECT_EQ(solo.engine.mempool().chain(0).contiguous_height(), 4u);
  EXPECT_EQ(solo.engine.unconfirmed_txs(), 150u);
  solo.commit_own_tip(1);
  EXPECT_EQ(solo.engine.unconfirmed_txs(), 0u);
}

/// P-PBFT group with 20-transaction bundles cut every 20 ms.
struct PredisGroup : TestCluster {
  explicit PredisGroup(SimTime ban_duration = 0,
                       SimTime view_timeout = milliseconds(400))
      : TestCluster(4, 1, view_timeout) {
    for (std::size_t i = 0; i < 4; ++i) {
      pd::PredisConfig pcfg;
      pcfg.bundle_size = 20;
      pcfg.bundle_interval = milliseconds(20);
      pcfg.ban_duration = ban_duration;
      testing::add_predis_pbft_node(*this, pcfg);
    }
  }
};

TEST(PredisAdmission, BanThenRejoinDropsTheErasedSuffix) {
  PredisGroup group(/*ban_duration=*/seconds(1));
  const auto& ids = group.consensus_ids();
  // Node 3's client stops before its rejoin, so whatever node 3 counts
  // after the rejoin can only be bundles that survived it.
  for (std::size_t i = 0; i < 4; ++i) {
    group.add_client({ids[i]}, 400, i == 3 ? seconds(1) : seconds(4),
                     40 + i);
  }
  group.net().start();
  group.net().run_until(milliseconds(600));

  // Forged-but-valid evidence: two signed, different bundles of producer
  // 3 at height 1. Every node, node 3 included, bans it.
  const KeyPair key = KeyPair::from_seed(ids[3]);
  auto conflict = std::make_shared<pd::ConflictMsg>();
  conflict->evidence.first =
      make_bundle(3, 1, kZeroHash, {0, 0, 0, 0}, client_txs(1, 1), key)
          .header;
  conflict->evidence.second =
      make_bundle(3, 1, kZeroHash, {0, 0, 0, 0}, client_txs(1, 2), key)
          .header;
  for (NodeId id : ids) group.net().send(ids[3], id, conflict);
  group.net().run_until(milliseconds(1500));
  const pd::PredisEngine& banned = *group.nodes[3].engine;
  ASSERT_TRUE(banned.mempool().is_banned(3));
  // A banned chain is never cut: its pre-ban bundles stay unconfirmed.
  EXPECT_GT(banned.unconfirmed_txs(), 0u);

  // The rejoin grant (~1.6 s) erases the unconfirmed suffix and resets
  // the production head; the count follows it down.
  group.net().run_until(milliseconds(2000));
  ASSERT_FALSE(banned.mempool().is_banned(3));
  EXPECT_EQ(banned.unconfirmed_txs(), 0u);
  group.net().run_until(seconds(5));
  EXPECT_TRUE(group.ledger.consistent());
}

TEST(PredisAdmission, CrashRestartWithStateTransferConfirmsEverything) {
  PredisGroup group;
  const auto& ids = group.consensus_ids();
  for (auto& node : group.nodes) node.pbft->set_checkpoint_interval(8);
  group.add_node_clients(300, seconds(8), 70);
  group.net().start();
  group.net().run_until(seconds(1));
  group.net().set_node_down(ids[3], true);
  group.net().run_until(seconds(3));
  group.net().set_node_down(ids[3], false);
  group.net().run_until(seconds(9));

  EXPECT_GE(group.nodes[3].pbft->state_transfers(), 1u);
  for (const auto& node : group.nodes) {
    EXPECT_EQ(node.engine->unconfirmed_txs(), 0u);
  }
  EXPECT_TRUE(group.ledger.consistent());
}

TEST(PredisAdmission, IsolatedProducerAdmitsAgainAfterHeal) {
  // Node 0 keeps bundling its client's load while cut off from every
  // peer, until it holds the cap; once the cut heals (no restart hook)
  // its empty bundles' tips make the peers fetch the stranded suffix.
  // The default 2 s view timeout: at 400 ms the view changes outpace
  // the fetch of that suffix (ROADMAP, item 1).
  PredisGroup group(0, seconds(2));
  const auto& ids = group.consensus_ids();
  group.add_client({ids[0]}, 4000, seconds(8), 11);
  group.net().start();
  group.net().run_until(milliseconds(200));
  group.net().set_drop_filter(isolate(ids[0], ids));
  group.net().run_until(seconds(2));
  const pd::PredisEngine& engine = *group.nodes[0].engine;
  EXPECT_GE(engine.unconfirmed_txs() + engine.queue_depth(),
            kUnconfirmedTxCap);
  EXPECT_GT(group.metrics.shed_txs(ShedReason::kUnconfirmedCap), 0u);

  group.net().set_drop_filter(nullptr);
  group.net().run_until(seconds(10));
  EXPECT_EQ(engine.unconfirmed_txs(), 0u);
  // Admitted again: far more than the stranded cap's worth committed.
  EXPECT_GT(group.metrics.committed_txs(), 2 * kUnconfirmedTxCap);
  EXPECT_TRUE(group.ledger.consistent());
}

/// Stratus-style group (f + 1 = 2 acks certify a microblock).
core::ClusterConfig stratus() {
  return testing::cluster_config(core::Protocol::kStratus);
}

TEST(SharedMempoolAdmission, StalledConsensusShedsThenRecovers) {
  // Node 1's ack certifies node 0's microblocks, but with nodes 2 and 3
  // down HotStuff cannot commit, so node 0's unconfirmed count climbs
  // to the cap and its clients are shed.
  TestCluster group(stratus());
  const auto& ids = group.consensus_ids();
  group.add_client({ids[0]}, 3000, seconds(4), 11);
  group.net().start();
  group.net().run_until(milliseconds(100));
  group.net().set_node_down(ids[2], true);
  group.net().set_node_down(ids[3], true);

  group.net().run_until(seconds(2));
  EXPECT_LT(group.metrics.committed_txs(), 500u);
  EXPECT_GT(shed_at_cap(group), 0u);
  // At most one client batch (5 ms of load) past the cap.
  EXPECT_GE(group.nodes[0].pool->unconfirmed_txs(), kUnconfirmedTxCap);
  EXPECT_LE(group.nodes[0].pool->unconfirmed_txs(), kUnconfirmedTxCap + 15u);

  group.net().set_node_down(ids[2], false);
  group.net().set_node_down(ids[3], false);
  group.net().run_until(seconds(7));
  // More than one cap's worth committed: admission resumed once the
  // first cap's worth was confirmed.
  EXPECT_GT(group.metrics.committed_txs(), 5000u);
  EXPECT_EQ(group.nodes[0].pool->unconfirmed_txs(), 0u);
  EXPECT_TRUE(group.ledger.consistent());
}

TEST(SharedMempoolAdmission, IsolatedProducerReoffersAfterHeal) {
  // Cut off from every peer, node 0 packs microblocks nobody acks until
  // it holds the cap. The heal fires no restart hook; at the cap the
  // producer re-offers its uncertified microblocks, so they certify and
  // commit and admission resumes.
  TestCluster group(stratus());
  const auto& ids = group.consensus_ids();
  group.add_client({ids[0]}, 3000, seconds(8), 11);
  group.net().start();
  group.net().run_until(milliseconds(100));
  group.net().set_drop_filter(isolate(ids[0], ids));
  group.net().run_until(seconds(3));
  EXPECT_GE(group.nodes[0].pool->unconfirmed_txs(), kUnconfirmedTxCap);
  EXPECT_GT(shed_at_cap(group), 0u);

  group.net().set_drop_filter(nullptr);
  group.net().run_until(seconds(10));
  EXPECT_EQ(group.nodes[0].pool->unconfirmed_txs(), 0u);
  EXPECT_GT(group.metrics.committed_txs(), 2 * kUnconfirmedTxCap);
  EXPECT_TRUE(group.ledger.consistent());
}

TEST(SharedMempoolAdmission, LostAcksAreResentForReofferedMicroblocks) {
  // Peers receive node 0's microblocks but every ack back to it is lost,
  // so nothing certifies and node 0 fills its cap. After the drop window
  // the peers already hold the bodies: only an ack for the duplicate
  // a re-offer delivers can certify them.
  TestCluster group(stratus());
  const auto& ids = group.consensus_ids();
  group.add_client({ids[0]}, 3000, seconds(8), 11);
  group.net().start();
  group.net().run_until(milliseconds(100));
  group.net().set_drop_filter([producer = ids[0]](
                                NodeId, NodeId to, const runtime::Message& m) {
    return to == producer && std::string(m.name()) == "MbAck";
  });
  group.net().run_until(seconds(3));
  EXPECT_GE(group.nodes[0].pool->unconfirmed_txs(), kUnconfirmedTxCap);
  EXPECT_GT(shed_at_cap(group), 0u);

  group.net().set_drop_filter(nullptr);
  group.net().run_until(seconds(10));
  EXPECT_EQ(group.nodes[0].pool->unconfirmed_txs(), 0u);
  EXPECT_GT(group.metrics.committed_txs(), 2 * kUnconfirmedTxCap);
  EXPECT_TRUE(group.ledger.consistent());
}

}  // namespace
}  // namespace predis::consensus
