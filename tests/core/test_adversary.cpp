// Adversary layer: AttackKind plumbing, configure_attack plan shaping,
// and — per hostile-injector finding — a regression that drives the
// HostileInjector's full arsenal into a live cluster of each protocol
// and asserts the handlers hold the line: no crash, no state poisoning
// (views/rounds stay sane), and the honest majority keeps committing.
//
// Before the boundary checks these pin down, individual hostile
// messages were fatal or worse: a bundle signed at height 2^40 made the
// Predis fetch path iterate the whole claimed gap, a forged HotStuff QC
// with zero signers poisoned high_qc AND burned the replica's
// last_voted_round, a PBFT NewView without a V-set certificate dragged
// the group into an absurd view, and a Narwhal batch response could
// substitute transactions under a certified reference.
#include "core/adversary.hpp"

#include <gtest/gtest.h>

#include "../consensus/cluster.hpp"
#include "consensus/hotstuff/hotstuff_node.hpp"
#include "consensus/narwhal/shared_mempool.hpp"
#include "consensus/pbft/pbft_node.hpp"
#include "consensus/predis/predis_nodes.hpp"

namespace predis::core {
namespace {

using consensus::testing::TestCluster;

TEST(AttackKind, ToStringCoversEveryKind) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kAttackKindCount; ++i) {
    const char* name = to_string(static_cast<AttackKind>(i));
    EXPECT_STRNE(name, "?") << "attack " << i;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(AttackKind, FlagParserRoundTripsAndRejectsJunk) {
  for (std::size_t i = 0; i < kAttackKindCount; ++i) {
    const auto kind = static_cast<AttackKind>(i);
    if (kind == AttackKind::kNone) continue;
    const auto parsed = attack_from_flag(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(attack_from_flag("churn"), AttackKind::kChurnStorm);
  EXPECT_FALSE(attack_from_flag("definitely-not-an-attack").has_value());
  EXPECT_FALSE(attack_from_flag("").has_value());
}

TEST(ConfigureAttack, DisablesBaselineKindsAndPinsLeader) {
  runtime::FaultPlanConfig plan;
  configure_attack(plan, AttackKind::kThrottle, 5);
  EXPECT_FALSE(plan.crashes);
  EXPECT_FALSE(plan.pair_partitions);
  EXPECT_FALSE(plan.zone_partitions);
  EXPECT_FALSE(plan.jitter);
  EXPECT_FALSE(plan.drops);
  EXPECT_FALSE(plan.equivocation);
  EXPECT_TRUE(plan.throttle);
  EXPECT_FALSE(plan.withhold);
  EXPECT_EQ(plan.events, 5u);
  EXPECT_EQ(plan.pin_node, 0u);
}

TEST(ConfigureAttack, ChurnKeepsRandomMembership) {
  runtime::FaultPlanConfig plan;
  configure_attack(plan, AttackKind::kChurnStorm, 3);
  EXPECT_TRUE(plan.churn_storms);
  // A storm is not leader-specific: membership stays seed-random.
  EXPECT_EQ(plan.pin_node, static_cast<std::size_t>(-1));
}

TEST(ConfigureAttack, NoneYieldsEmptyPlan) {
  runtime::FaultPlanConfig plan;
  configure_attack(plan, AttackKind::kNone, 4);
  runtime::SimRuntime backend(
      runtime::LatencyMatrix::uniform(1, milliseconds(10)));
  runtime::Runtime& net = backend.runtime();
  std::vector<NodeId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.add_node(runtime::NodeConfig{}));
  }
  runtime::FaultScheduler fs(net, ids, plan);
  EXPECT_TRUE(fs.plan().empty());
}

// --- Live-cluster regressions, one per protocol family -----------------

/// Fire repeated hostile bursts from node 0 while honest traffic flows.
/// Returns the injector's message count.
template <typename Cluster>
std::size_t bombard(Cluster& cluster, Protocol protocol) {
  auto injector = std::make_shared<HostileInjector>(
      cluster.net, protocol, cluster.ids);
  for (int burst = 0; burst < 10; ++burst) {
    cluster.schedule_at(milliseconds(300 * (burst + 1)),
                            [injector, &cluster] {
                              injector->burst(cluster.ids[0]);
                            });
  }
  cluster.add_client(cluster.ids, 400, seconds(4));
  cluster.net.start();
  cluster.run_until(seconds(5));
  return injector->injected();
}

TEST(HostileInjector, PbftClusterSurvivesFullArsenal) {
  TestCluster cluster(4, 1);
  std::vector<std::unique_ptr<consensus::pbft::PbftNode>> nodes;
  consensus::pbft::PbftNodeConfig ncfg;
  ncfg.batch_size = 50;
  for (std::size_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<consensus::pbft::PbftNode>(
        cluster.context(i), ncfg, cluster.ledger));
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  const std::size_t injected = bombard(cluster, Protocol::kPbft);

  EXPECT_GT(injected, 0u);
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 400u);
  for (const auto& node : nodes) {
    // Forged NewViews (proof = 0) and absurd-seq votes must not move
    // the view anywhere near the attacker's 2^40 values, and the
    // watermark keeps execution contiguous.
    EXPECT_LT(node->core().view(), 1000u);
    EXPECT_LT(node->core().last_executed(), 1u << 20);
  }
}

TEST(HostileInjector, HotStuffClusterIgnoresForgedQuorumCerts) {
  TestCluster cluster(4, 1);
  std::vector<std::unique_ptr<consensus::hotstuff::HotStuffNode>> nodes;
  consensus::hotstuff::HotStuffNodeConfig ncfg;
  ncfg.batch_size = 50;
  for (std::size_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<consensus::hotstuff::HotStuffNode>(
        cluster.context(i), ncfg, cluster.ledger));
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  const std::size_t injected = bombard(cluster, Protocol::kHotStuff);

  EXPECT_GT(injected, 0u);
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 400u);
  for (const auto& node : nodes) {
    // A zero-signer QC at round 2^40 must not become high_qc (it would
    // drag cur_round there and destroy liveness for good).
    EXPECT_LT(node->core().current_round(), 10'000u);
    EXPECT_GT(node->core().committed_round(), 0u);
  }
}

TEST(HostileInjector, NarwhalClusterRejectsImpersonationAndForgedCerts) {
  TestCluster cluster(4, 1);
  std::vector<std::unique_ptr<consensus::narwhal::SharedMempoolNode>> nodes;
  consensus::narwhal::SharedMempoolConfig ncfg;
  ncfg.microblock_size = 50;
  ncfg.ack_quorum = 3;
  for (std::size_t i = 0; i < 4; ++i) {
    nodes.push_back(
        std::make_unique<consensus::narwhal::SharedMempoolNode>(
            cluster.context(i), ncfg, cluster.ledger));
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  const std::size_t injected = bombard(cluster, Protocol::kNarwhal);

  EXPECT_GT(injected, 0u);
  // Impersonated microblocks, out-of-range producers, zero-signer
  // certificates and substituted batch bodies must all bounce; honest
  // microblocks keep certifying and committing on the same ledger.
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 400u);
  for (const auto& node : nodes) {
    EXPECT_LT(node->core().current_round(), 10'000u);
  }
}

TEST(HostileInjector, PredisClusterCapsAbsurdHeightFetchSpans) {
  TestCluster cluster(4, 1);
  std::vector<std::unique_ptr<consensus::predis::PredisPbftNode>> nodes;
  consensus::predis::PredisConfig pcfg;
  pcfg.bundle_size = 50;
  for (std::size_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<consensus::predis::PredisPbftNode>(
        cluster.context(i), pcfg, consensus::producer_keys(cluster.ids),
        KeyPair::from_seed(cluster.ids[i]), cluster.ledger));
    cluster.net.attach(cluster.ids[i], nodes.back().get());
  }
  // The arsenal includes a *validly signed* bundle at height ~2^40:
  // without the kMaxFetchSpan cap the missing-parent fetch loop walks
  // the entire claimed gap and this test never finishes.
  const std::size_t injected = bombard(cluster, Protocol::kPredisPbft);

  EXPECT_GT(injected, 0u);
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 400u);
  for (const auto& node : nodes) {
    EXPECT_LT(node->core().view(), 1000u);
  }
}

TEST(HostileInjector, BurstsAreDeterministic) {
  // Two identical clusters, same burst schedule: identical counts (the
  // injector derives every junk value from its own nonce sequence).
  auto run = [] {
    TestCluster cluster(4, 1);
    std::vector<std::unique_ptr<consensus::pbft::PbftNode>> nodes;
    consensus::pbft::PbftNodeConfig ncfg;
    for (std::size_t i = 0; i < 4; ++i) {
      nodes.push_back(std::make_unique<consensus::pbft::PbftNode>(
          cluster.context(i), ncfg, cluster.ledger));
      cluster.net.attach(cluster.ids[i], nodes.back().get());
    }
    HostileInjector injector(cluster.net, Protocol::kPbft, cluster.ids);
    std::vector<std::size_t> per_burst;
    for (int b = 0; b < 5; ++b) {
      per_burst.push_back(injector.burst(cluster.ids[0]));
    }
    cluster.net.start();
    cluster.run_until(seconds(1));
    return per_burst;
  };
  EXPECT_EQ(run(), run());
}

TEST(HostileGossipBurst, CountsAndTargetsAreDeterministic) {
  auto run = [] {
    runtime::SimRuntime backend(
        runtime::LatencyMatrix::uniform(1, milliseconds(5)));
    runtime::Runtime& net = backend.runtime();
    struct Sink final : runtime::Actor {
      std::size_t received = 0;
      void on_message(NodeId, const runtime::MsgPtr&) override { ++received; }
    };
    std::vector<NodeId> ids;
    std::vector<std::unique_ptr<Sink>> sinks;
    for (int i = 0; i < 5; ++i) {
      ids.push_back(net.add_node(runtime::NodeConfig{}));
      sinks.push_back(std::make_unique<Sink>());
      net.attach(ids.back(), sinks.back().get());
    }
    const std::vector<NodeId> peers(ids.begin() + 1, ids.end());
    std::size_t sent = 0;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
      sent += hostile_gossip_burst(net, ids[0], peers, 4, nonce);
    }
    net.start();
    net.run_until(seconds(1));
    std::vector<std::size_t> received;
    for (const auto& sink : sinks) received.push_back(sink->received);
    return std::make_pair(sent, received);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(a.first, 0u);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace predis::core
