// Shape tests for the Fig. 7 / Fig. 8 experiment runners (small scales
// so the full suite stays fast; the bench binaries run paper scales).
#include "multizone/experiments.hpp"

#include <gtest/gtest.h>

namespace predis::multizone {
namespace {

TEST(DistributionCluster, MultiZoneCommitsAndDistributes) {
  ThroughputConfig cfg;
  cfg.topology = Topology::kMultiZone;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = 12;
  cfg.n_zones = 3;
  cfg.offered_load_tps = 3000;
  cfg.duration = seconds(10);
  cfg.warmup = seconds(5);

  const ThroughputResult r = run_distribution_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.throughput_tps, 2500.0);
  EXPECT_GT(r.full_node_coverage, 0.9);
  // Latency and committed transactions come from the client metrics:
  // transactions, not a block height.
  EXPECT_GT(r.latency_samples, 0u);
  EXPECT_GE(r.p99_latency_ms, r.p50_latency_ms);
  EXPECT_GT(r.p50_latency_ms, 0.0);
  EXPECT_GE(static_cast<double>(r.committed_txs),
            r.throughput_tps * to_seconds(cfg.duration - cfg.warmup));
  // Every zone converged to n_c relayers.
  EXPECT_EQ(r.relayers_seen, cfg.n_zones * cfg.n_consensus);
}

TEST(DistributionCluster, MultiZoneRealStripePayloadsCommitAndDecode) {
  // Same cluster, but consensus nodes ship real erasure-coded stripe
  // bytes and full nodes Merkle-verify + Reed-Solomon-decode them
  // instead of using the directory's decode oracle.
  ThroughputConfig cfg;
  cfg.topology = Topology::kMultiZone;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = 9;
  cfg.n_zones = 3;
  cfg.offered_load_tps = 2000;
  cfg.duration = seconds(8);
  cfg.warmup = seconds(4);
  cfg.real_stripe_payloads = true;

  const ThroughputResult r = run_distribution_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.throughput_tps, 1500.0);
  EXPECT_GT(r.full_node_coverage, 0.9);
  EXPECT_GT(r.consensus_bytes_sent, 0u);
  EXPECT_GT(r.consensus_bytes_received, 0u);
}

TEST(DistributionCluster, StarCommitsAndDistributes) {
  ThroughputConfig cfg;
  cfg.topology = Topology::kStar;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = 12;
  cfg.offered_load_tps = 3000;
  cfg.duration = seconds(10);
  cfg.warmup = seconds(5);

  const ThroughputResult r = run_distribution_cluster(cfg);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.throughput_tps, 2000.0);
  EXPECT_GT(r.full_node_coverage, 0.9);
}

// Fig. 7's claim: star throughput degrades as full nodes are added;
// Multi-Zone throughput does not (zone count fixed).
TEST(DistributionCluster, MultiZoneShrugsOffFullNodeGrowth) {
  auto run = [](Topology topo, std::size_t n_full) {
    ThroughputConfig cfg;
    cfg.topology = topo;
    cfg.n_consensus = 4;
    cfg.f = 1;
    cfg.n_full = n_full;
    cfg.n_zones = 3;
    cfg.offered_load_tps = 9000;
    cfg.duration = seconds(10);
    cfg.warmup = seconds(5);
    return run_distribution_cluster(cfg);
  };

  const double star_many = run(Topology::kStar, 48).throughput_tps;
  const double mz_many = run(Topology::kMultiZone, 48).throughput_tps;
  // With 48 full nodes the star consensus layer is crowded out by
  // block pushes while Multi-Zone's stripe cost stays constant.
  EXPECT_GT(mz_many, 1.3 * star_many);
}

TEST(Propagation, AllTopologiesReachEveryNode) {
  for (Topology topo :
       {Topology::kStar, Topology::kRandom, Topology::kMultiZone}) {
    PropagationConfig cfg;
    cfg.topology = topo;
    cfg.n_consensus = 4;
    cfg.f = 1;
    cfg.n_full = 20;
    cfg.n_zones = 2;
    cfg.block_bytes = 512 << 10;
    cfg.n_blocks = 2;
    const PropagationResult r = run_propagation(cfg);
    EXPECT_GT(r.full_coverage_fraction, 0.99) << to_string(topo);
    ASSERT_TRUE(r.latency_ms_at_fraction.count(1.0)) << to_string(topo);
    EXPECT_GT(r.latency_ms_at_fraction.at(1.0), 0.0);
  }
}

// Fig. 8's claim: at large block sizes Multi-Zone's propagation latency
// is far below star and random, because bundles were pre-distributed.
TEST(Propagation, MultiZoneFastestForLargeBlocks) {
  auto run = [](Topology topo) {
    PropagationConfig cfg;
    cfg.topology = topo;
    cfg.n_consensus = 4;
    cfg.f = 1;
    cfg.n_full = 20;
    cfg.n_zones = 2;
    cfg.block_bytes = 8 << 20;  // 8 MB, past the paper's 5 MB crossover
    cfg.bundle_bytes = 256 << 10;
    cfg.n_blocks = 2;
    return run_propagation(cfg).latency_ms_at_fraction.at(1.0);
  };
  const double star = run(Topology::kStar);
  const double random = run(Topology::kRandom);
  const double mz = run(Topology::kMultiZone);
  EXPECT_LT(mz, 0.5 * star);    // paper: ~50% of star
  EXPECT_LT(mz, 0.5 * random);  // paper: even less vs random
}

TEST(Propagation, MoreZonesFlattenLatency) {
  auto run = [](std::size_t zones) {
    PropagationConfig cfg;
    cfg.topology = Topology::kMultiZone;
    cfg.n_consensus = 4;
    cfg.f = 1;
    cfg.n_full = 24;
    cfg.n_zones = zones;
    cfg.block_bytes = 4 << 20;
    cfg.bundle_bytes = 256 << 10;
    cfg.n_blocks = 2;
    return run_propagation(cfg).latency_ms_at_fraction.at(1.0);
  };
  // The paper's 12-zone-wins trend needs its ~100-node scale (the fig8
  // bench reproduces it); at 24 nodes we only require that extra zones
  // cost at most a small constant factor (stripe copies per zone).
  EXPECT_LE(run(6), run(2) * 2.5);
}

}  // namespace
}  // namespace predis::multizone
