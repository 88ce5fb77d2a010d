// FaultScheduler: seed determinism, plan shape, and network effects.
#include "runtime/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "runtime/sim_runtime.hpp"

namespace predis::runtime {
namespace {

struct Fixture {
  SimRuntime net{LatencyMatrix::uniform(1, milliseconds(10))};
  std::vector<NodeId> targets;

  explicit Fixture(std::size_t n = 4) {
    for (std::size_t i = 0; i < n; ++i) {
      targets.push_back(net.add_node(NodeConfig{}));
    }
  }
};

TEST(FaultScheduler, SameSeedSamePlan) {
  FaultPlanConfig cfg;
  cfg.seed = 42;
  cfg.events = 8;
  cfg.equivocation = true;
  Fixture a, b;
  FaultScheduler fa(a.net, a.targets, cfg);
  FaultScheduler fb(b.net, b.targets, cfg);
  EXPECT_EQ(fa.describe(), fb.describe());
  EXPECT_EQ(fa.healed_by(), fb.healed_by());
  ASSERT_EQ(fa.plan().size(), fb.plan().size());
  for (std::size_t i = 0; i < fa.plan().size(); ++i) {
    EXPECT_EQ(fa.plan()[i].at, fb.plan()[i].at) << i;
    EXPECT_EQ(fa.plan()[i].kind, fb.plan()[i].kind) << i;
  }
}

TEST(FaultScheduler, DifferentSeedsDifferentPlans) {
  FaultPlanConfig cfg;
  cfg.events = 8;
  Fixture a, b;
  cfg.seed = 1;
  FaultScheduler fa(a.net, a.targets, cfg);
  cfg.seed = 2;
  FaultScheduler fb(b.net, b.targets, cfg);
  EXPECT_NE(fa.describe(), fb.describe());
}

TEST(FaultScheduler, PlanRespectsConfig) {
  FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.events = 12;
  cfg.equivocation = false;
  Fixture f;
  FaultScheduler fs(f.net, f.targets, cfg);

  EXPECT_EQ(fs.plan().size(), cfg.events);
  SimTime latest_heal = 0;
  for (const FaultEvent& e : fs.plan()) {
    EXPECT_GE(e.at, cfg.start);
    EXPECT_LT(e.at, cfg.horizon);
    EXPECT_NE(e.kind, FaultKind::kEquivocate);
    latest_heal = std::max(latest_heal, e.at + e.window);
  }
  EXPECT_GE(fs.healed_by(), latest_heal);
}

TEST(FaultScheduler, InjectsEveryEventAndHealsByDeadline) {
  FaultPlanConfig cfg;
  cfg.seed = 11;
  cfg.events = 6;
  Fixture f;
  FaultScheduler fs(f.net, f.targets, cfg);
  fs.arm();
  f.net.run_until(fs.healed_by() + seconds(1));

  EXPECT_EQ(fs.faults_injected(), cfg.events);
  // Every crash healed: no target still down.
  for (NodeId id : f.targets) {
    EXPECT_FALSE(f.net.is_down(id)) << id;
  }
}

TEST(FaultScheduler, EquivocatorPopulationStaysWithinCap) {
  FaultPlanConfig cfg;
  cfg.seed = 3;
  cfg.events = 10;
  cfg.equivocation = true;
  cfg.max_equivocators = 1;
  // Only equivocation enabled -> every drawn event targets the
  // Byzantine population, which must stay within max_equivocators
  // distinct nodes (excess draws are demoted to benign drops).
  cfg.crashes = cfg.pair_partitions = cfg.zone_partitions = false;
  cfg.jitter = cfg.drops = false;
  Fixture f;
  FaultScheduler fs(f.net, f.targets, cfg);
  std::vector<NodeId> hits;
  fs.on_equivocate = [&](NodeId id) { hits.push_back(id); };
  fs.arm();
  f.net.run_until(cfg.horizon + seconds(1));

  ASSERT_GE(hits.size(), 1u);
  const std::set<NodeId> distinct(hits.begin(), hits.end());
  EXPECT_LE(distinct.size(), cfg.max_equivocators);
  for (NodeId id : distinct) {
    EXPECT_EQ(std::count(f.targets.begin(), f.targets.end(), id), 1);
  }
}

TEST(FaultKindNames, ToStringCoversEveryKind) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const char* name = to_string(static_cast<FaultKind>(i));
    EXPECT_STRNE(name, "?") << "kind " << i << " has no printable name";
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate name for kind " << i;
  }
}

TEST(FaultScheduler, AdversarialKindsDefaultOff) {
  // New attack kinds must not change existing seed-derived plans.
  FaultPlanConfig cfg;
  cfg.seed = 9;
  cfg.events = 20;
  Fixture f;
  FaultScheduler fs(f.net, f.targets, cfg);
  for (const FaultEvent& e : fs.plan()) {
    EXPECT_NE(e.kind, FaultKind::kThrottle);
    EXPECT_NE(e.kind, FaultKind::kWithhold);
    EXPECT_NE(e.kind, FaultKind::kGarbage);
    EXPECT_NE(e.kind, FaultKind::kChurnStorm);
  }
}

FaultPlanConfig adversarial_only(FaultKind kind) {
  FaultPlanConfig cfg;
  cfg.crashes = cfg.pair_partitions = cfg.zone_partitions = false;
  cfg.jitter = cfg.drops = false;
  cfg.throttle = kind == FaultKind::kThrottle;
  cfg.withhold = kind == FaultKind::kWithhold;
  cfg.garbage = kind == FaultKind::kGarbage;
  cfg.churn_storms = kind == FaultKind::kChurnStorm;
  return cfg;
}

TEST(FaultScheduler, DescribeNamesAdversarialEvents) {
  for (FaultKind kind :
       {FaultKind::kThrottle, FaultKind::kWithhold, FaultKind::kGarbage,
        FaultKind::kChurnStorm}) {
    FaultPlanConfig cfg = adversarial_only(kind);
    cfg.seed = 5;
    cfg.events = 3;
    Fixture f;
    FaultScheduler fs(f.net, f.targets, cfg);
    ASSERT_FALSE(fs.plan().empty()) << to_string(kind);
    EXPECT_NE(fs.describe().find(to_string(kind)), std::string::npos)
        << fs.describe();
  }
}

TEST(FaultScheduler, PinNodeAimsAdversarialEventsAtOneTarget) {
  FaultPlanConfig cfg = adversarial_only(FaultKind::kThrottle);
  cfg.seed = 13;
  cfg.events = 6;
  cfg.pin_node = 2;
  Fixture f;
  FaultScheduler fs(f.net, f.targets, cfg);
  ASSERT_FALSE(fs.plan().empty());
  for (const FaultEvent& e : fs.plan()) {
    EXPECT_EQ(e.a, f.targets[2]);
  }
}

TEST(FaultScheduler, GarbageHookFiresOnPinnedNodeOnly) {
  FaultPlanConfig cfg = adversarial_only(FaultKind::kGarbage);
  cfg.seed = 17;
  cfg.events = 4;
  cfg.pin_node = 1;
  Fixture f;
  FaultScheduler fs(f.net, f.targets, cfg);
  std::vector<NodeId> hits;
  fs.on_garbage = [&](NodeId id, SimTime window) {
    EXPECT_GT(window, 0u);
    hits.push_back(id);
  };
  fs.arm();
  f.net.run_until(fs.healed_by() + seconds(1));
  ASSERT_GE(hits.size(), 1u);
  for (NodeId id : hits) EXPECT_EQ(id, f.targets[1]);
}

// Named test messages for the data-plane withholding filter.
struct BundleLikeMsg final : Message {
  std::size_t wire_size() const override { return 64; }
  const char* name() const override { return "Bundle"; }
};
struct VoteLikeMsg final : Message {
  std::size_t wire_size() const override { return 64; }
  const char* name() const override { return "Prepare"; }
};

struct CountingActor final : Actor {
  std::size_t bundles = 0;
  std::size_t votes = 0;
  void on_message(NodeId, const MsgPtr& msg) override {
    if (std::string(msg->name()) == "Bundle") ++bundles;
    if (std::string(msg->name()) == "Prepare") ++votes;
  }
};

TEST(FaultScheduler, WithholderSwallowsDataPlaneButNotVotes) {
  FaultPlanConfig cfg = adversarial_only(FaultKind::kWithhold);
  cfg.seed = 23;
  cfg.events = 1;
  cfg.pin_node = 0;
  Fixture f;
  CountingActor rx;
  f.net.attach(f.targets[1], &rx);
  FaultScheduler fs(f.net, f.targets, cfg);
  std::vector<NodeId> withholders;
  fs.on_withhold = [&](NodeId id) { withholders.push_back(id); };
  fs.arm();
  ASSERT_EQ(fs.plan().size(), 1u);
  const FaultEvent ev = fs.plan()[0];
  // Mid-window: data-plane names dropped, votes pass.
  f.net.schedule_at(ev.at + ev.window / 2, [&] {
    f.net.send(f.targets[0], f.targets[1],
               std::make_shared<BundleLikeMsg>());
    f.net.send(f.targets[0], f.targets[1], std::make_shared<VoteLikeMsg>());
  });
  // Post-heal: everything flows again.
  f.net.schedule_at(ev.at + ev.window + seconds(1), [&] {
    f.net.send(f.targets[0], f.targets[1],
               std::make_shared<BundleLikeMsg>());
  });
  f.net.start();
  f.net.run_until(ev.at + ev.window + seconds(2));
  EXPECT_EQ(rx.votes, 1u);
  EXPECT_EQ(rx.bundles, 1u);  // only the post-heal one
  ASSERT_EQ(withholders.size(), 1u);
  EXPECT_EQ(withholders[0], f.targets[0]);
}

struct StampActor final : Actor {
  const Runtime* net = nullptr;
  std::vector<SimTime> arrivals;
  void on_message(NodeId, const MsgPtr&) override {
    arrivals.push_back(net->now());
  }
};

TEST(FaultScheduler, ThrottleDelaysOutboundUnderTimeout) {
  FaultPlanConfig cfg = adversarial_only(FaultKind::kThrottle);
  cfg.seed = 29;
  cfg.events = 1;
  cfg.pin_node = 0;
  cfg.throttle_delay = milliseconds(400);
  Fixture f;
  StampActor rx;
  rx.net = &f.net;
  f.net.attach(f.targets[1], &rx);
  FaultScheduler fs(f.net, f.targets, cfg);
  fs.arm();
  ASSERT_EQ(fs.plan().size(), 1u);
  const FaultEvent ev = fs.plan()[0];
  const SimTime sent_at = ev.at + ev.window / 2;
  f.net.schedule_at(sent_at, [&] {
    f.net.send(f.targets[0], f.targets[1],
               std::make_shared<VoteLikeMsg>());
  });
  f.net.start();
  f.net.run_until(ev.at + ev.window + seconds(2));
  ASSERT_EQ(rx.arrivals.size(), 1u);
  // The base fixture latency is 10 ms; anything near throttle_delay
  // proves the slow-leader path engaged.
  EXPECT_GE(rx.arrivals[0] - sent_at, cfg.throttle_delay);
}

TEST(FaultScheduler, ChurnStormKeepsAtMostOneNodeDown) {
  FaultPlanConfig cfg = adversarial_only(FaultKind::kChurnStorm);
  cfg.seed = 31;
  cfg.events = 1;
  cfg.churn_cycles = 3;
  cfg.max_churn_nodes = 2;
  Fixture f;
  FaultScheduler fs(f.net, f.targets, cfg);
  fs.arm();
  std::size_t max_down = 0;
  bool saw_down = false;
  // Sample the down-set densely across the whole storm.
  for (SimTime t = cfg.start; t < fs.healed_by(); t += milliseconds(5)) {
    f.net.schedule_at(t, [&] {
      std::size_t down = 0;
      for (NodeId id : f.targets) {
        if (f.net.is_down(id)) ++down;
      }
      max_down = std::max(max_down, down);
      saw_down = saw_down || down > 0;
    });
  }
  f.net.run_until(fs.healed_by() + seconds(1));
  EXPECT_TRUE(saw_down);
  EXPECT_LE(max_down, 1u);
  for (NodeId id : f.targets) EXPECT_FALSE(f.net.is_down(id));
}

FaultPlanConfig partitions_only() {
  FaultPlanConfig cfg;
  cfg.crashes = cfg.pair_partitions = cfg.zone_partitions = false;
  cfg.jitter = cfg.drops = false;
  cfg.partitions = true;
  return cfg;
}

TEST(FaultScheduler, PartitionPlanCutsDeterministicMinority) {
  FaultPlanConfig cfg = partitions_only();
  cfg.seed = 37;
  cfg.events = 5;
  cfg.max_partition_nodes = 2;
  Fixture a, b;
  FaultScheduler fa(a.net, a.targets, cfg);
  FaultScheduler fb(b.net, b.targets, cfg);
  EXPECT_EQ(fa.describe(), fb.describe());
  ASSERT_EQ(fa.plan().size(), cfg.events);
  for (const FaultEvent& e : fa.plan()) {
    EXPECT_EQ(e.kind, FaultKind::kPartition);
    ASSERT_FALSE(e.side.empty());
    // Minority cut: never the whole group, capped by config.
    EXPECT_LE(e.side.size(), cfg.max_partition_nodes);
    EXPECT_LT(e.side.size(), a.targets.size());
    EXPECT_TRUE(std::is_sorted(e.side.begin(), e.side.end()));
  }
}

struct ReconnectActor final : Actor {
  std::size_t messages = 0;
  std::size_t restarts = 0;
  void on_message(NodeId, const MsgPtr&) override { ++messages; }
  void on_restart() override { ++restarts; }
};

TEST(FaultScheduler, PartitionCutsLinksBidirectionallyAndHeals) {
  FaultPlanConfig cfg = partitions_only();
  cfg.seed = 41;
  cfg.events = 1;
  cfg.max_partition_nodes = 1;
  Fixture f;
  FaultScheduler fs(f.net, f.targets, cfg);
  ASSERT_EQ(fs.plan().size(), 1u);
  const FaultEvent ev = fs.plan()[0];
  ASSERT_EQ(ev.side.size(), 1u);
  const NodeId cut = ev.side[0];
  const NodeId other =
      cut == f.targets[0] ? f.targets[1] : f.targets[0];
  ReconnectActor on_cut, on_other;
  f.net.attach(cut, &on_cut);
  f.net.attach(other, &on_other);
  fs.arm();
  // Mid-window: both directions across the cut are severed.
  f.net.schedule_at(ev.at + ev.window / 2, [&] {
    f.net.send(other, cut, std::make_shared<VoteLikeMsg>());
    f.net.send(cut, other, std::make_shared<VoteLikeMsg>());
  });
  // Post-heal: traffic flows again.
  f.net.schedule_at(ev.at + ev.window + seconds(1), [&] {
    f.net.send(other, cut, std::make_shared<VoteLikeMsg>());
    f.net.send(cut, other, std::make_shared<VoteLikeMsg>());
  });
  f.net.start();
  f.net.run_until(ev.at + ev.window + seconds(2));
  EXPECT_EQ(on_cut.messages, 1u);
  EXPECT_EQ(on_other.messages, 1u);
  // Heal pokes the cut side's recovery hook exactly once; the node
  // never crashed, so no other on_restart source exists.
  EXPECT_EQ(on_cut.restarts, 1u);
  EXPECT_EQ(on_other.restarts, 0u);
}

}  // namespace
}  // namespace predis::runtime
