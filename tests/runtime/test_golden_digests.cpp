// Golden digests: SimRuntime is the one deterministic oracle, and these
// tests pin what it does for fixed fault-free and fault-injected runs.
// The delivery-trace digest folds (time, from, to, size, name) of every
// delivered message, so any change to scheduling, the fluid network
// model or a protocol's message flow shows up here. A change that
// alters the schedule on purpose must update the constants in the same
// commit and say why; an unexplained mismatch is a determinism or
// behaviour regression.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/sha256.hpp"
#include "core/experiment.hpp"
#include "core/swarm.hpp"
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

TEST(GoldenDigest, SmallZoneRealStripesMatchesPinnedRun) {
  // The same run with real Reed-Solomon stripe bytes: every full node
  // Merkle-verifies, stores and byte-decodes stripes, so this pins the
  // stripe-state path the oracle-mode case above never enters.
  multizone::ThroughputConfig cfg;
  cfg.n_full = 6;
  cfg.n_zones = 2;
  cfg.offered_load_tps = 2000.0;
  cfg.n_clients = 4;
  cfg.duration = seconds(3);
  cfg.warmup = seconds(1);
  cfg.seed = 9;
  cfg.real_stripe_payloads = true;
  runtime::TraceHasher trace;
  cfg.ctx.trace = &trace;
  const multizone::ThroughputResult r =
      multizone::run_distribution_cluster(cfg);

  EXPECT_EQ(to_hex(trace.digest()),
            "cdd7a701edf55340ccf7f4e33834a322106662360fdd614443c13caef22d87da");
  EXPECT_EQ(trace.events(), 34259u);
  EXPECT_GT(r.throughput_tps, 0.0);
}

// Fault-injected runs: `swarm --seeds 8 --protocol <p>` at the tool's
// defaults (10 s, six fault events within the first third, equivocation
// on). Crashes, partitions and drops drive every catch-up and fetch
// retry loop, so these pin the recovery paths the fault-free cases
// above never enter. Each row: protocol, seed, trace digest prefix,
// trace events, catch-up batches executed.
struct FaultedPin {
  core::Protocol protocol;
  std::uint64_t seed;
  const char* trace;
  std::uint64_t events;
  std::uint64_t catch_up_batches;
};

TEST(GoldenDigest, FaultedSwarmMatchesPinnedRuns) {
  using P = core::Protocol;
  const FaultedPin pins[] = {
    {P::kPbft, 1, "583299db41d7a994", 32571, 1},
    {P::kPbft, 2, "ae75a72913abb685", 34547, 1},
    {P::kPbft, 3, "f968872ad40858eb", 34101, 1},
    {P::kPbft, 4, "24bc229d227411ba", 34408, 0},
    {P::kPbft, 5, "e42e883edad1a3c0", 33046, 1},
    {P::kPbft, 6, "6c896637149378b5", 33217, 1},
    {P::kPbft, 7, "0a8455e19aedd729", 33835, 0},
    {P::kPbft, 8, "68aad8d5c1637d96", 32283, 0},
    {P::kHotStuff, 1, "b27fe1231e3b563e", 32459, 1},
    {P::kHotStuff, 2, "99e2dff5c9652ecf", 32647, 3},
    {P::kHotStuff, 3, "119f1c39daab5672", 32983, 0},
    {P::kHotStuff, 4, "e16604b2bab2de8f", 33328, 1},
    {P::kHotStuff, 5, "10ac40b2f489d3a9", 32176, 2},
    {P::kHotStuff, 6, "4315c39e4544a32c", 31801, 1},
    {P::kHotStuff, 7, "e5c8f40b643d2cd2", 33190, 3},
    {P::kHotStuff, 8, "71f11ff7faed2071", 33011, 1},
    {P::kPredisPbft, 1, "5847da96cba6e661", 15387, 1},
    {P::kPredisPbft, 2, "9ca192a088edaa63", 12530, 1},
    {P::kPredisPbft, 3, "17e87f9c1f77f53e", 16872, 0},
    {P::kPredisPbft, 4, "7f5fa0a2664c47ea", 16948, 1},
    {P::kPredisPbft, 5, "8a3e55361a456a43", 17212, 0},
    {P::kPredisPbft, 6, "b98e2c025282b627", 14809, 0},
    {P::kPredisPbft, 7, "b87aafdd89362158", 12852, 1},
    {P::kPredisPbft, 8, "ce7e4e2393fb826d", 13595, 0},
    {P::kPredisHotStuff, 1, "9531153c2a61e2c2", 12566, 3},
    {P::kPredisHotStuff, 2, "f16125bbf1ff163f", 14133, 1},
    {P::kPredisHotStuff, 3, "0d0a32c624de7707", 15248, 0},
    {P::kPredisHotStuff, 4, "5b881b8a7dcc1748", 15292, 2},
    {P::kPredisHotStuff, 5, "ea5a515e4a9fff9b", 15545, 1},
    {P::kPredisHotStuff, 6, "2343df0271d571b2", 14754, 2},
    {P::kPredisHotStuff, 7, "98d8931e797f11be", 12168, 2},
    {P::kPredisHotStuff, 8, "f69af08b3c641b70", 13056, 0},
    {P::kNarwhal, 1, "e564c6e406c8274a", 21790, 1},
    {P::kNarwhal, 2, "591d27925a09864f", 22808, 3},
    {P::kNarwhal, 3, "5da37a8e10cef5c2", 23542, 1},
    {P::kNarwhal, 4, "19eace39ead44df5", 22737, 2},
    {P::kNarwhal, 5, "0d9372c648459a1f", 22702, 2},
    {P::kNarwhal, 6, "b6c761182977e83a", 21934, 2},
    {P::kNarwhal, 7, "7579e53aafdbab03", 24029, 2},
    {P::kNarwhal, 8, "7b4c4266d7486f07", 22870, 1},
    {P::kStratus, 1, "06910c36888d9af4", 21955, 1},
    {P::kStratus, 2, "174328bc7bfee291", 22956, 2},
    {P::kStratus, 3, "a2ef8c503657721f", 23584, 2},
    {P::kStratus, 4, "d0df20f21b5a4670", 22744, 2},
    {P::kStratus, 5, "487ebcae358d6afc", 22591, 2},
    {P::kStratus, 6, "32e49faf3c0a96e5", 21881, 1},
    {P::kStratus, 7, "3a0f8b60262e98ea", 23636, 0},
    {P::kStratus, 8, "d9c60646229757f0", 22911, 1},
  };
  std::map<P, std::size_t> stalls;
  for (const FaultedPin& pin : pins) {
    core::SwarmCaseConfig cfg;
    cfg.protocol = pin.protocol;
    cfg.seed = pin.seed;
    cfg.duration = seconds(10);
    cfg.faults.horizon = cfg.duration / 3;
    cfg.faults.equivocation = true;
    const core::SwarmCaseResult r = core::run_swarm_case(cfg);
    const std::string run = std::string(core::to_string(pin.protocol)) +
                            " seed " + std::to_string(pin.seed);
    EXPECT_TRUE(r.ok) << run << "\n" << r.report;
    EXPECT_EQ(to_hex(r.trace_digest).substr(0, 16), pin.trace) << run;
    EXPECT_EQ(r.trace_events, pin.events) << run;
    EXPECT_EQ(r.catch_up_batches, pin.catch_up_batches) << run;
    stalls[pin.protocol] += r.sync_stalls;
  }
  // Peer rotations happen only when retry timers fire unanswered: every
  // protocol's retry loops must have run, not just its first request.
  for (const auto& [protocol, count] : stalls) {
    EXPECT_GT(count, 0u) << core::to_string(protocol);
  }
}

}  // namespace
}  // namespace predis
