// Regression tests for the ban/rejoin timer and for conflict evidence
// surfaced from the retry path:
//
//  * apply_ban must arm exactly one rejoin timer per ban. Every honest
//    node broadcasts a ConflictMsg for the same offence, so duplicates
//    are the common case — each one used to arm another timer, and a
//    stale timer from the first ban could then lift a LATER ban early.
//  * A conflicting bundle that sits in the out-of-order buffer until
//    its parent arrives is detected inside Mempool::retry_pending; the
//    evidence must still reach the engine (ban + ConflictMsg broadcast)
//    even though that path has no caller-supplied evidence out-param.
#include <gtest/gtest.h>

#include <map>

#include "cluster.hpp"
#include "consensus/predis/predis_nodes.hpp"

namespace predis::consensus::predis {
namespace {

using testing::TestCluster;

struct TimerCluster : TestCluster {
  explicit TimerCluster(SimTime ban_duration, bool silence_node3 = false)
      : TestCluster(4, 1) {
    for (std::size_t i = 0; i < 4; ++i) {
      PredisConfig pcfg;
      pcfg.bundle_size = 20;
      pcfg.bundle_interval = milliseconds(20);
      pcfg.ban_duration = ban_duration;
      if (i == 3 && silence_node3) pcfg.fault = FaultMode::kSilent;
      testing::add_predis_pbft_node(*this, pcfg);
    }
    for (std::size_t i = 0; i < 4; ++i) {
      nodes[i].engine->mempool().on_unban =
          [this, i](NodeId producer) { unbans[i][producer]++; };
    }
  }

  /// Signed, genuinely conflicting header pair from producer 3: two
  /// different bundles at the same height (`tag` varies the content so
  /// successive calls make distinct offences).
  ConflictEvidence forge_evidence(BundleHeight height, std::uint64_t tag) {
    Transaction ta;
    ta.client = 70;
    ta.seq = tag * 10 + 1;
    Transaction tb;
    tb.client = 70;
    tb.seq = tag * 10 + 2;
    const KeyPair key = KeyPair::from_seed(consensus_ids()[3]);
    ConflictEvidence ev;
    ev.first = make_bundle(3, height, kZeroHash, {0, 0, 0, 0}, {ta}, key)
                   .header;
    ev.second = make_bundle(3, height, kZeroHash, {0, 0, 0, 0}, {tb}, key)
                    .header;
    return ev;
  }

  void send_conflict(const ConflictEvidence& ev) {
    for (NodeId id : consensus_ids()) {
      auto msg = std::make_shared<ConflictMsg>();
      msg->evidence = ev;
      net().send(consensus_ids()[3], id, msg);
    }
  }

  bool banned_everywhere() const {
    for (const auto& node : nodes) {
      if (!node.engine->mempool().is_banned(3)) return false;
    }
    return true;
  }

  bool banned_anywhere() const {
    for (const auto& node : nodes) {
      if (node.engine->mempool().is_banned(3)) return true;
    }
    return false;
  }

  std::map<std::size_t, std::map<NodeId, std::size_t>> unbans;
};

TEST(BanRejoinTimer, DuplicateConflictMsgsArmOneTimerPerBan) {
  TimerCluster cluster(/*ban_duration=*/seconds(2));
  cluster.add_node_clients(150, seconds(9), 60);
  cluster.net().start();
  cluster.net().run_until(milliseconds(600));

  // First offence; every node bans producer 3 and arms a 2 s timer.
  const ConflictEvidence first = cluster.forge_evidence(1, 1);
  cluster.send_conflict(first);
  cluster.net().run_until(milliseconds(1200));
  EXPECT_TRUE(cluster.banned_everywhere());

  // Duplicate ConflictMsg for the same offence (in the real flow every
  // honest node broadcasts one). Pre-fix this armed a SECOND timer
  // firing ~3.2 s in.
  cluster.send_conflict(first);
  cluster.net().run_until(milliseconds(2800));
  // Ban expired on schedule: one rejoin, everywhere.
  EXPECT_FALSE(cluster.banned_anywhere());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.unbans[i][3], 1u) << "node " << i;
  }

  // Second, fresh offence at ~2.9 s: the new ban must hold for its full
  // 2 s. A stale timer from the duplicate would lift it at ~3.2 s.
  cluster.send_conflict(cluster.forge_evidence(5, 2));
  cluster.net().run_until(milliseconds(3400));
  EXPECT_TRUE(cluster.banned_everywhere());
  cluster.net().run_until(milliseconds(4200));
  EXPECT_TRUE(cluster.banned_everywhere())
      << "stale rejoin timer lifted a later ban early";
  cluster.net().run_until(milliseconds(5400));
  EXPECT_FALSE(cluster.banned_anywhere());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.unbans[i][3], 2u) << "node " << i;
  }

  // Post-rejoin the producer's chain grows again from its new genesis
  // and the cluster stays consistent: no stale timer wiped it.
  const BundleHeight at_rejoin =
      cluster.nodes[0].engine->mempool().chain(3).contiguous_height();
  cluster.net().run_until(seconds(8));
  EXPECT_GT(
      cluster.nodes[0].engine->mempool().chain(3).contiguous_height(),
      at_rejoin);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(BanRejoinTimer, RebanAfterRejoinArmsAFreshTimer) {
  TimerCluster cluster(/*ban_duration=*/seconds(1));
  cluster.net().start();
  cluster.net().run_until(milliseconds(500));
  cluster.send_conflict(cluster.forge_evidence(1, 1));
  cluster.net().run_until(milliseconds(1800));
  EXPECT_FALSE(cluster.banned_anywhere());

  // The guard set must have been cleared on rejoin, or this second ban
  // would never get a timer and the producer would stay banned forever.
  cluster.send_conflict(cluster.forge_evidence(3, 2));
  cluster.net().run_until(milliseconds(2200));
  EXPECT_TRUE(cluster.banned_everywhere());
  cluster.net().run_until(milliseconds(3400));
  EXPECT_FALSE(cluster.banned_anywhere());
}

// A forged child whose parent-hash contradicts the real chain arrives
// BEFORE its parent, parks in the out-of-order buffer, and is only
// detected during retry_pending once the parent lands. The detection
// must still ban the producer locally AND broadcast the evidence so
// the rest of the cluster bans too (pre-fix the evidence died inside
// retry_pending's nullptr out-param).
TEST(BanRejoinTimer, BufferedConflictDetectedOnRetryPropagatesBan) {
  // Producer 3 stays quiet so the forged chain is the only chain-3
  // content anyone sees.
  TimerCluster quiet(/*ban_duration=*/0, /*silence_node3=*/true);
  const auto& ids = quiet.consensus_ids();
  quiet.net().start();
  quiet.net().run_until(milliseconds(300));

  const KeyPair key = KeyPair::from_seed(ids[3]);
  Transaction tx;
  tx.client = 71;
  tx.seq = 1;
  const Bundle g1 =
      make_bundle(3, 1, kZeroHash, {0, 0, 0, 0}, {tx}, key);
  tx.seq = 2;
  const Hash32 bogus_parent = Sha256::hash(as_bytes(std::string("fork")));
  const Bundle g2_evil =
      make_bundle(3, 2, bogus_parent, {0, 0, 0, 0}, {tx}, key);

  // Child first: node 0 buffers it (missing parent).
  auto child = std::make_shared<BundleMsg>();
  child->bundle = g2_evil;
  quiet.net().send(ids[3], ids[0], child);
  quiet.net().run_until(milliseconds(400));
  EXPECT_FALSE(quiet.nodes[0].engine->mempool().is_banned(3));

  // Parent lands: retry_pending pops the child, sees the parent-hash
  // fork, and the engine must broadcast the evidence.
  auto parent = std::make_shared<BundleMsg>();
  parent->bundle = g1;
  quiet.net().send(ids[3], ids[0], parent);
  quiet.net().run_until(milliseconds(900));

  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(quiet.nodes[i].engine->mempool().is_banned(3))
        << "node " << i
        << " never learned about the buffered-conflict evidence";
  }
}

}  // namespace
}  // namespace predis::consensus::predis
