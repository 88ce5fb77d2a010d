// Unit tests for the shared crash-recovery primitives (core/recovery.hpp),
// the one catch-up/fetch retry loop built on them, and the CommitLedger
// payload dedupe that keeps restart re-proposals from double-counting
// committed transactions.
#include "core/recovery.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "consensus/common.hpp"
#include "runtime/sim_runtime.hpp"

namespace predis::core {
namespace {

TEST(BackoffPolicy, GrowsExponentiallyAndCaps) {
  BackoffPolicy policy;
  policy.base = milliseconds(25);
  policy.cap = milliseconds(400);
  policy.jitter = 0.0;  // deterministic: no randomization
  Rng rng(1);
  EXPECT_EQ(policy.delay(0, rng), milliseconds(25));
  EXPECT_EQ(policy.delay(1, rng), milliseconds(50));
  EXPECT_EQ(policy.delay(2, rng), milliseconds(100));
  EXPECT_EQ(policy.delay(4, rng), milliseconds(400));
  EXPECT_EQ(policy.delay(60, rng), milliseconds(400));  // capped, no UB
}

TEST(BackoffPolicy, JitterStaysWithinBoundsAndReplays) {
  BackoffPolicy jittered;
  jittered.base = milliseconds(100);
  jittered.cap = milliseconds(800);
  jittered.jitter = 0.5;
  BackoffPolicy fixed = jittered;
  fixed.jitter = 0.0;
  Rng a(7);
  Rng unused(7);
  for (std::size_t attempt = 0; attempt < 8; ++attempt) {
    const SimTime nominal = fixed.delay(attempt, unused);
    const SimTime d = jittered.delay(attempt, a);
    EXPECT_GE(d, nominal - nominal / 2);
    EXPECT_LE(d, nominal);
  }
  // Same seed -> byte-identical retry cadence (determinism contract).
  Rng c(7);
  Rng d(7);
  for (std::size_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(jittered.delay(attempt, c), jittered.delay(attempt, d));
  }
}

TEST(StallDetector, EscalatesAfterRepeatedTimeoutsSkippingSelf) {
  StallDetector det(4, /*self=*/1, /*stall_after=*/2);
  det.prefer(3);
  EXPECT_EQ(det.peer(), 3u);
  EXPECT_FALSE(det.on_timeout());  // first timeout: stay
  EXPECT_EQ(det.peer(), 3u);
  EXPECT_TRUE(det.on_timeout());  // second: escalate to 0 (wraps, skips 1)
  EXPECT_EQ(det.peer(), 0u);
  EXPECT_EQ(det.stalls(), 1u);
  // Progress resets the timeout streak.
  EXPECT_FALSE(det.on_timeout());
  det.on_progress();
  EXPECT_FALSE(det.on_timeout());
  EXPECT_TRUE(det.on_timeout());
  EXPECT_EQ(det.peer(), 2u);  // 0 -> skip self(1)? next_from(1) -> 2
  EXPECT_EQ(det.stalls(), 2u);
}

TEST(StallDetector, PreferIgnoresSelfAndOutOfRange) {
  StallDetector det(4, /*self=*/2);
  det.prefer(2);   // self: ignored
  det.prefer(9);   // out of range: ignored
  EXPECT_NE(det.peer(), 2u);
  EXPECT_LT(det.peer(), 4u);
}

// Node 0 of a four-node group on a bare SimRuntime owns the loop.
struct RetryLoopRig {
  runtime::SimRuntime rt{runtime::LatencyMatrix::uniform(1, 0)};
  consensus::NodeContext ctx{rt, 0, consensus::ConsensusConfig{{0, 1, 2, 3}}};
  Rng rng{7};
};

TEST(RetryLoop, BackoffScheduleDrawsFromTheOwnersRng) {
  RetryLoopRig rig;
  const BackoffPolicy policy;
  consensus::RetryLoop loop(rig.ctx, rig.rng, policy);
  std::vector<SimTime> fired;
  std::function<void()> on_retry = [&] {
    fired.push_back(rig.rt.now());
    loop.retry();
    if (fired.size() < 7) loop.arm(on_retry);
  };
  loop.arm(on_retry);
  rig.rt.run_until(seconds(10));
  // Replaying the owner's stream gives the same cadence: delay(k) after
  // the k-th retry, doubling to the cap, and no hidden draws.
  Rng replay(7);
  SimTime at = 0;
  ASSERT_EQ(fired.size(), 7u);
  for (std::size_t k = 0; k < fired.size(); ++k) {
    at += policy.delay(k, replay);
    EXPECT_EQ(fired[k], at) << "retry " << k;
  }
  EXPECT_EQ(rig.rng.next(), replay.next());
}

TEST(RetryLoop, RotatesAfterSilenceAndResetsOnProgress) {
  RetryLoopRig rig;
  consensus::RetryLoop loop(rig.ctx, rig.rng);
  loop.prefer(2);
  loop.retry();
  EXPECT_EQ(loop.peer(), 2u);  // one silent attempt: stay
  loop.retry();
  EXPECT_EQ(loop.peer(), 3u);  // stall_after = 2: rotate
  loop.progress();
  EXPECT_EQ(loop.attempt(), 0u);
  loop.retry();
  EXPECT_EQ(loop.peer(), 3u);  // the silence streak restarted
  loop.retry();
  EXPECT_EQ(loop.peer(), 1u);  // wraps past self (0)
  loop.progress(2);            // answered by 2: keep asking it
  EXPECT_EQ(loop.peer(), 2u);
  EXPECT_EQ(loop.stalls(), 2u);
}

TEST(RetryLoop, StandsDownAtTheCatchUpCapAndReArmsOnFreshEvidence) {
  RetryLoopRig rig;
  consensus::RetryLoop loop(rig.ctx, rig.rng, {},
                            consensus::kCatchUpAttempts);
  ASSERT_TRUE(loop.begin());
  EXPECT_FALSE(loop.begin());  // one episode at a time
  loop.arm([] {});
  for (std::size_t i = 0; i < 12; ++i) EXPECT_TRUE(loop.retry()) << i;
  EXPECT_FALSE(loop.retry());  // the 13th: stand down
  EXPECT_FALSE(loop.active());
  EXPECT_FALSE(loop.armed());
  EXPECT_TRUE(loop.begin());  // fresh evidence opens a new episode
  EXPECT_EQ(loop.attempt(), 0u);
}

TEST(RetryLoop, UncappedLoopNeverStandsDown) {
  RetryLoopRig rig;
  consensus::RetryLoop loop(rig.ctx, rig.rng);
  ASSERT_TRUE(loop.begin());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(loop.retry()) << i;
  EXPECT_TRUE(loop.active());
}

TEST(RetryLoop, StopCancelsASlowRetrySoTheNextIsFast) {
  RetryLoopRig rig;
  consensus::RetryLoop loop(rig.ctx, rig.rng);
  for (int i = 0; i < 6; ++i) loop.retry();  // backoff at its 400 ms cap
  bool slow = false;
  bool fast = false;
  loop.arm([&] { slow = true; });
  loop.stop();  // restart: the pre-outage cadence is stale
  EXPECT_FALSE(loop.armed());
  loop.arm([&] { fast = true; });
  rig.rt.run_until(milliseconds(25));
  EXPECT_TRUE(fast);
  rig.rt.run_until(seconds(1));
  EXPECT_FALSE(slow);
}

TEST(CheckpointRecord, DigestCoversAllFields) {
  CheckpointRecord a{10, kZeroHash, kZeroHash};
  CheckpointRecord b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.height = 11;
  EXPECT_NE(a.digest(), b.digest());
  b = a;
  b.ban_digest = CheckpointRecord::ban_list_digest({1, 2});
  EXPECT_NE(a.digest(), b.digest());
  // Ban-list digest is order-insensitive (std::set) and size-prefixed.
  EXPECT_EQ(CheckpointRecord::ban_list_digest({2, 1}),
            CheckpointRecord::ban_list_digest({1, 2}));
  EXPECT_NE(CheckpointRecord::ban_list_digest({}),
            CheckpointRecord::ban_list_digest({1}));
}

TEST(CheckpointQuorum, StabilizesAtQuorumOnceAndMonotonically) {
  CheckpointQuorum q(3);
  CheckpointRecord rec{5, kZeroHash, kZeroHash};
  EXPECT_FALSE(q.vote(0, rec));
  EXPECT_FALSE(q.vote(0, rec));  // duplicate voter does not advance
  EXPECT_FALSE(q.vote(1, rec));
  EXPECT_FALSE(q.has_stable());
  EXPECT_TRUE(q.vote(2, rec));  // third distinct voter: stable
  EXPECT_TRUE(q.has_stable());
  EXPECT_EQ(q.stable().height, 5u);
  // A late quorum at or below the stable height never regresses it.
  CheckpointRecord old{5, kZeroHash, kZeroHash};
  EXPECT_FALSE(q.vote(3, old));
  // Higher checkpoint supersedes.
  CheckpointRecord next{8, kZeroHash, kZeroHash};
  EXPECT_FALSE(q.vote(0, next));
  EXPECT_FALSE(q.vote(1, next));
  EXPECT_TRUE(q.vote(2, next));
  EXPECT_EQ(q.stable().height, 8u);
}

TEST(GcStats, AddAndMergeAccumulate) {
  GcStats a;
  a.add(100);
  a.add(50);
  EXPECT_EQ(a.bytes, 150u);
  EXPECT_EQ(a.items, 2u);
  GcStats b;
  b.add(7);
  a.merge(b);
  EXPECT_EQ(a.bytes, 157u);
  EXPECT_EQ(a.items, 3u);
}

// Regression for the PBFT churn-storm double count (committed_txs
// 22508 vs 20000 clean): the same payload digest committed at a second
// slot after a restart re-proposal must count its transactions once.
TEST(CommitLedger, DedupesRecommittedPayloadAcrossSlots) {
  Metrics metrics;
  consensus::CommitLedger ledger(metrics);
  const Hash32 payload = Sha256::hash(as_bytes(std::string("block-1")));
  ledger.on_commit(0, 1, payload, 100, milliseconds(10));
  EXPECT_EQ(metrics.committed_txs(), 100u);
  // Other replicas committing the same slot: no extra counting.
  ledger.on_commit(1, 1, payload, 100, milliseconds(11));
  EXPECT_EQ(metrics.committed_txs(), 100u);
  EXPECT_EQ(ledger.duplicate_payloads(), 0u);
  // Restarted leader re-proposes the same payload at a later slot.
  ledger.on_commit(0, 2, payload, 100, milliseconds(40));
  EXPECT_EQ(metrics.committed_txs(), 100u);  // not 200
  EXPECT_EQ(ledger.duplicate_payloads(), 1u);
  EXPECT_TRUE(ledger.consistent());
  // A genuinely new payload still counts.
  const Hash32 fresh = Sha256::hash(as_bytes(std::string("block-2")));
  ledger.on_commit(0, 3, fresh, 25, milliseconds(50));
  EXPECT_EQ(metrics.committed_txs(), 125u);
  EXPECT_EQ(ledger.committed_slots(), 3u);
}

}  // namespace
}  // namespace predis::core
