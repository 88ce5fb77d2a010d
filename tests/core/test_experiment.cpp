#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "../consensus/cluster.hpp"
#include "runtime/environments.hpp"
#include "runtime/trace.hpp"

namespace predis::core {
namespace {

ClusterConfig base_config(Protocol p, double load) {
  ClusterConfig cfg;
  cfg.protocol = p;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.wan = false;  // LAN keeps test runtime small
  cfg.offered_load_tps = load;
  cfg.n_clients = 4;
  cfg.duration = seconds(8);
  cfg.warmup = seconds(3);
  return cfg;
}

class AllProtocols : public ::testing::TestWithParam<Protocol> {};

TEST_P(AllProtocols, CommitsOfferedLoadWhenUnderCapacity) {
  const ClusterResult r = run_cluster(base_config(GetParam(), 1500));
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.ledgers_consistent);
  EXPECT_GT(r.ledger_blocks_min, 0u);
  // At 1.5 k tx/s every protocol keeps up (within 15% after warmup).
  EXPECT_GT(r.throughput_tps, 1275.0) << to_string(GetParam());
  EXPECT_GT(r.avg_latency_ms, 0.0);
  EXPECT_GT(r.latency_samples, 0u);
  EXPECT_GT(r.commit_events, 10u);
}

// make_consensus_node is the one Protocol -> node-type switch: each
// protocol gets exactly the typed handles of its node type.
TEST_P(AllProtocols, FactoryBuildsTheProtocolsNodeType) {
  const Protocol p = GetParam();
  consensus::testing::TestCluster cluster(4, 1);
  ClusterConfig cfg;
  cfg.protocol = p;
  const ConsensusNode node = make_consensus_node(
      cfg, 0, cluster.context(0), cluster.keys, cluster.ledger, nullptr);
  const bool predis =
      p == Protocol::kPredisPbft || p == Protocol::kPredisHotStuff;
  const bool pbft = p == Protocol::kPbft || p == Protocol::kPredisPbft;
  EXPECT_NE(node.actor, nullptr);
  EXPECT_EQ(node.engine != nullptr, predis);
  EXPECT_EQ(node.pool != nullptr,
            p == Protocol::kNarwhal || p == Protocol::kStratus);
  EXPECT_EQ(node.pbft != nullptr, pbft);
  EXPECT_EQ(node.hotstuff != nullptr, !pbft);
}

TEST_P(AllProtocols, ProtocolFlagRoundTrips) {
  EXPECT_EQ(parse_protocol(protocol_flag(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocols,
    ::testing::Values(Protocol::kPbft, Protocol::kHotStuff,
                      Protocol::kPredisPbft, Protocol::kPredisHotStuff,
                      Protocol::kNarwhal, Protocol::kStratus),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Experiment, ParsesThePredisAliasAndRejectsUnknownNames) {
  EXPECT_EQ(parse_protocol("predis"), Protocol::kPredisPbft);
  EXPECT_FALSE(parse_protocol("protcol").has_value());
}

// Fig. 6 fault injection: only the last n_faulty nodes run the fault
// mode, and every engine carries the run's seed.
TEST(Experiment, FactoryFaultsOnlyTheLastNodes) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kPredisPbft;
  cfg.n_faulty = 1;
  cfg.fault_mode = consensus::predis::FaultMode::kSilent;
  cfg.seed = 77;
  const consensus::testing::TestCluster cluster(cfg);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_NE(cluster.nodes[i].engine, nullptr);
    const auto& engine_cfg = cluster.nodes[i].engine->config();
    EXPECT_EQ(engine_cfg.fault, i == 3 ? cfg.fault_mode
                                       : consensus::predis::FaultMode::kNone)
        << "node " << i;
    EXPECT_EQ(engine_cfg.seed, cfg.seed);
  }
}

// The paper's core claim (Fig. 4): under load beyond the baselines'
// capacity, Predis variants sustain far higher throughput.
TEST(Experiment, PredisOutperformsBaselinesUnderHighLoad) {
  const double load = 10'000;
  const ClusterResult pbft = run_cluster(base_config(Protocol::kPbft, load));
  const ClusterResult ppbft =
      run_cluster(base_config(Protocol::kPredisPbft, load));
  EXPECT_GT(ppbft.throughput_tps, 1.5 * pbft.throughput_tps);
  EXPECT_TRUE(pbft.consistent);
  EXPECT_TRUE(ppbft.consistent);
}

// A P-PBFT run at 30 k tx/s, 1.5x the knee: admission holds commits at
// the plateau while the consensus uplinks stay busy. The uplink figure
// must still stay within the 100 Mbps links (bytes enqueued during the
// drain count against the time the uplink needs to send them).
TEST(Experiment, OverloadReportsHonestUplink) {
  ClusterConfig cfg = base_config(Protocol::kPredisPbft, 30'000);
  cfg.n_clients = 8;
  cfg.warmup = cfg.duration / 3;
  const ClusterResult r = run_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.consensus_uplink_mbps, 50.0);
  EXPECT_LE(r.consensus_uplink_mbps, 100.0);
}

// Every consensus node silent: nothing commits by construction, and the
// empty latency set must be reported as empty, not as 0 ms.
TEST(Experiment, EmptyRunReportsNoLatencySamples) {
  ClusterConfig cfg = base_config(Protocol::kPredisPbft, 40'000);
  cfg.n_clients = 8;
  cfg.n_faulty = cfg.n_consensus;
  cfg.fault_mode = consensus::predis::FaultMode::kSilent;
  const ClusterResult r = run_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.committed_txs, 0u);
  EXPECT_EQ(r.latency_samples, 0u);
}

TEST(Experiment, WanEnvironmentRuns) {
  ClusterConfig cfg = base_config(Protocol::kPredisHotStuff, 1000);
  cfg.wan = true;
  const ClusterResult r = run_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.throughput_tps, 800.0);
  // WAN latencies are tens of ms one way; client latency reflects it.
  EXPECT_GT(r.avg_latency_ms, 50.0);
}

TEST(Experiment, FaultInjectionReducesThroughput) {
  ClusterConfig healthy = base_config(Protocol::kPredisPbft, 4000);
  ClusterConfig faulty = healthy;
  faulty.n_faulty = 1;
  faulty.fault_mode = consensus::predis::FaultMode::kSilent;

  const ClusterResult h = run_cluster(healthy);
  const ClusterResult f = run_cluster(faulty);
  EXPECT_TRUE(h.consistent);
  EXPECT_TRUE(f.consistent);
  EXPECT_GT(f.throughput_tps, 0.0);
  EXPECT_LT(f.throughput_tps, h.throughput_tps);
}

TEST(Experiment, ScalesToEightConsensusNodes) {
  ClusterConfig cfg = base_config(Protocol::kPredisPbft, 2000);
  cfg.n_consensus = 8;
  cfg.f = 2;
  cfg.n_clients = 8;
  const ClusterResult r = run_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.throughput_tps, 1700.0);
}

// --- Deployment: the one place a run picks its backend -----------------

struct Ping final : runtime::Message {
  std::size_t wire_size() const override { return 64; }
  const char* name() const override { return "Ping"; }
};

/// Pings `peer` on start and notes how often the network-ready hook had
/// fired by then.
class StartProbe final : public runtime::Actor {
 public:
  StartProbe(runtime::Runtime& net, NodeId self, NodeId peer,
             const int& ready)
      : net_(net), self_(self), peer_(peer), ready_(ready) {}
  void on_start() override {
    ready_at_start = ready_;
    net_.send(self_, peer_, std::make_shared<Ping>());
  }
  void on_message(NodeId, const runtime::MsgPtr&) override {}
  int ready_at_start = -1;

 private:
  runtime::Runtime& net_;
  NodeId self_;
  NodeId peer_;
  const int& ready_;
};

TEST(Deployment, AllocatesEveryIdOnTheContextBackend) {
  runtime::SimRuntime backend(runtime::lan_latency());
  runtime::RunContext ctx;
  ctx.backend = &backend;
  Deployment d(ctx, runtime::lan_latency(), 4, 1, 1);
  EXPECT_EQ(&d.net(), &backend.runtime());
  EXPECT_EQ(backend.node_count(), 4u);
  EXPECT_EQ(d.ccfg.nodes.size(), 4u);
  EXPECT_EQ(d.ccfg.f, 1u);
  EXPECT_EQ(d.keys, consensus::producer_keys(d.consensus_ids()));
}

TEST(Deployment, AssignsRegionsRoundRobin) {
  runtime::RunContext ctx;
  Deployment d(ctx, runtime::wan_latency(), 6, 1, runtime::kWanRegions);
  ASSERT_EQ(d.consensus_ids().size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(d.net().region_of(d.consensus_ids()[i]),
              i % runtime::kWanRegions);
  }
}

TEST(Deployment, InstallsTheTraceHasherAndFiresNetworkReadyOnceBeforeStart) {
  runtime::TraceHasher trace;
  int ready = 0;
  std::vector<NodeId> seen_consensus, seen_others;
  runtime::RunContext ctx;
  ctx.trace = &trace;
  ctx.on_network_ready = [&](runtime::Runtime&,
                             const std::vector<NodeId>& consensus,
                             const std::vector<NodeId>& others) {
    ++ready;
    seen_consensus = consensus;
    seen_others = others;
  };
  Deployment d(ctx, runtime::lan_latency(), 4, 1, 1);
  const NodeId other = d.net().add_node(runtime::node_100mbps(0));
  StartProbe probe(d.net(), d.consensus_ids()[0], other, ready);
  StartProbe peer(d.net(), other, d.consensus_ids()[0], ready);
  d.net().attach(d.consensus_ids()[0], &probe);
  d.net().attach(other, &peer);
  d.run(seconds(1), {other});

  EXPECT_EQ(ready, 1);
  EXPECT_EQ(probe.ready_at_start, 1);
  EXPECT_EQ(seen_consensus, d.consensus_ids());
  EXPECT_EQ(seen_others, std::vector<NodeId>{other});
  EXPECT_EQ(trace.events(), 2u);  // The two pings.
}

}  // namespace
}  // namespace predis::core
