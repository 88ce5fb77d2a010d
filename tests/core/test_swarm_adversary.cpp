// Adversarial swarm campaign: every AttackKind against every swarm
// protocol, asserting graceful degradation — all safety invariants hold
// with the attacker inside the f-budget, and the honest majority keeps
// committing. This is the ctest-sized version of `predis-sim campaign
// --kind adversary` (which additionally quantifies the clean-relative
// degradation).
#include "core/swarm.hpp"

#include <gtest/gtest.h>

namespace predis::core {
namespace {

const Protocol kSwarmProtocols[] = {Protocol::kPredisPbft, Protocol::kPbft,
                                    Protocol::kHotStuff, Protocol::kNarwhal};

SwarmCaseConfig campaign(Protocol protocol, AttackKind attack) {
  SwarmCaseConfig cfg;
  cfg.protocol = protocol;
  cfg.attack = attack;
  cfg.seed = 77;
  cfg.duration = seconds(4);
  cfg.offered_load_tps = 1'000.0;
  cfg.faults.events = 2;
  cfg.faults.start = milliseconds(500);
  cfg.faults.horizon = seconds(2);
  return cfg;
}

TEST(SwarmAdversary, ThrottledLeaderDegradesButCommits) {
  for (Protocol protocol : kSwarmProtocols) {
    const auto r = run_swarm_case(campaign(protocol, AttackKind::kThrottle));
    EXPECT_TRUE(r.ok) << to_string(protocol) << "\n" << r.report;
    EXPECT_GT(r.faults_injected, 0u) << to_string(protocol);
    // A performance adversary slows the pipeline; it must not stop it.
    EXPECT_GT(r.committed_txs, 0u) << to_string(protocol);
  }
}

TEST(SwarmAdversary, WithholdingStaysSafeAndLive) {
  for (Protocol protocol : kSwarmProtocols) {
    const auto r = run_swarm_case(campaign(protocol, AttackKind::kWithhold));
    EXPECT_TRUE(r.ok) << to_string(protocol) << "\n" << r.report;
    EXPECT_GT(r.faults_injected, 0u) << to_string(protocol);
    EXPECT_GT(r.committed_txs, 0u) << to_string(protocol);
  }
}

TEST(SwarmAdversary, GarbageInjectionFiresAndStaysSafe) {
  for (Protocol protocol : kSwarmProtocols) {
    const auto r = run_swarm_case(campaign(protocol, AttackKind::kGarbage));
    EXPECT_TRUE(r.ok) << to_string(protocol) << "\n" << r.report;
    // The injector must actually have spoken this protocol's dialect.
    EXPECT_GT(r.hostile_msgs, 0u) << to_string(protocol);
    EXPECT_GT(r.committed_txs, 0u) << to_string(protocol);
  }
}

TEST(SwarmAdversary, ChurnStormStaysSafe) {
  for (Protocol protocol : kSwarmProtocols) {
    const auto r =
        run_swarm_case(campaign(protocol, AttackKind::kChurnStorm));
    EXPECT_TRUE(r.ok) << to_string(protocol) << "\n" << r.report;
    EXPECT_GT(r.faults_injected, 0u) << to_string(protocol);
    EXPECT_GT(r.committed_txs, 0u) << to_string(protocol);
  }
}

TEST(SwarmAdversary, EquivocationOnlyArmsForPredisFamily) {
  // The equivocation hook needs a bundle producer to corrupt; on
  // non-Predis protocols the harness demotes the campaign to a clean
  // plan instead of silently mislabeling some other fault.
  const auto predis =
      run_swarm_case(campaign(Protocol::kPredisPbft, AttackKind::kEquivocate));
  EXPECT_TRUE(predis.ok) << predis.report;
  EXPECT_GT(predis.faults_injected, 0u);

  const auto pbft =
      run_swarm_case(campaign(Protocol::kPbft, AttackKind::kEquivocate));
  EXPECT_TRUE(pbft.ok) << pbft.report;
  EXPECT_EQ(pbft.faults_injected, 0u);
}

TEST(SwarmAdversary, CleanRunPopulatesDegradationMetrics) {
  SwarmCaseConfig cfg = campaign(Protocol::kPredisPbft, AttackKind::kNone);
  // kNone leaves the baseline fault plan in place; zero events makes it
  // an actually-clean reference run.
  cfg.faults.events = 0;
  const auto r = run_swarm_case(cfg);
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_GT(r.committed_txs, 0u);
  EXPECT_GT(r.production_p99_ms, 0.0);
  EXPECT_EQ(r.hostile_msgs, 0u);
  EXPECT_EQ(r.faults_injected, 0u);
}

TEST(SwarmAdversary, AttackChangesTheTraceButNotTheWorkload) {
  // Same seed, garbage vs clean: the attack must be visible in the
  // trace digest (it really happened) while the offered workload stays
  // the seed's. Note the *metrics* digest may legitimately match — a
  // handler wall that rejects every hostile message without a single
  // commit slipping is the best possible outcome — so only the trace
  // inequality is asserted.
  SwarmCaseConfig clean = campaign(Protocol::kPbft, AttackKind::kNone);
  clean.faults.events = 0;
  SwarmCaseConfig attacked = campaign(Protocol::kPbft, AttackKind::kGarbage);
  const auto a = run_swarm_case(clean);
  const auto b = run_swarm_case(attacked);
  EXPECT_TRUE(a.ok) << a.report;
  EXPECT_TRUE(b.ok) << b.report;
  EXPECT_NE(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.hostile_msgs, 0u);
  EXPECT_GT(b.hostile_msgs, 0u);
  // The honest workload was unaffected: same committed volume.
  EXPECT_EQ(a.committed_txs, b.committed_txs);
}

}  // namespace
}  // namespace predis::core
