// Golden digests: SimRuntime is the one deterministic oracle, and these
// tests pin what it does for two fixed scenarios. The delivery-trace
// digest folds (time, from, to, size, name) of every delivered message,
// so any change to scheduling, the fluid network model or a protocol's
// message flow shows up here. A change that alters the schedule on
// purpose must update the constants in the same commit and say why;
// an unexplained mismatch is a determinism or behaviour regression.
#include <gtest/gtest.h>

#include "common/sha256.hpp"
#include "core/experiment.hpp"
#include "multizone/experiments.hpp"
#include "runtime/trace.hpp"

namespace predis {
namespace {

TEST(GoldenDigest, SmallClusterMatchesPinnedRun) {
  // P-PBFT, LAN, 4 consensus nodes, 3000 tx/s from 4 clients, seed 7.
  core::ClusterConfig cfg;
  cfg.protocol = core::Protocol::kPredisPbft;
  cfg.wan = false;
  cfg.offered_load_tps = 3000.0;
  cfg.n_clients = 4;
  cfg.duration = seconds(3);
  cfg.warmup = seconds(1);
  cfg.seed = 7;
  runtime::TraceHasher trace;
  cfg.ctx.trace = &trace;
  const core::ClusterResult r = core::run_cluster(cfg);

  EXPECT_EQ(to_hex(trace.digest()),
            "7442324544c779e8c378fd7c364aa46126661065d171c65d44a6d129c791a8fd");
  EXPECT_EQ(trace.events(), 5765u);
  EXPECT_EQ(r.commit_digest,
            "26a8068ef78316b5486c6c3ee5abb9995e9c43554464f91cf533e613eb51106c");
  EXPECT_EQ(r.committed_txs, 8532u);
}

TEST(GoldenDigest, SmallZoneMatchesPinnedRun) {
  // Multi-Zone distribution: 6 full nodes in 2 zones, 2000 tx/s, seed 9.
  multizone::ThroughputConfig cfg;
  cfg.n_full = 6;
  cfg.n_zones = 2;
  cfg.offered_load_tps = 2000.0;
  cfg.n_clients = 4;
  cfg.duration = seconds(3);
  cfg.warmup = seconds(1);
  cfg.seed = 9;
  runtime::TraceHasher trace;
  cfg.ctx.trace = &trace;
  const multizone::ThroughputResult r =
      multizone::run_distribution_cluster(cfg);

  EXPECT_EQ(to_hex(trace.digest()),
            "e435d196aa8d5fa20642fc5b288a86c4531404d42a408c57b0fd35e3bc2a55a3");
  EXPECT_EQ(trace.events(), 34259u);
  EXPECT_GT(r.throughput_tps, 0.0);
}

}  // namespace
}  // namespace predis
