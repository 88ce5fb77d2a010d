// ThreadRuntime behaviour: actors run on a real worker pool under
// wall-clock time. These tests are the TSAN surface for the backend —
// CI runs them under -fsanitize=thread.
#include "runtime/thread_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "runtime/faults.hpp"
#include "runtime/runtime.hpp"

namespace predis::runtime {
namespace {

struct PingMsg final : Message {
  std::size_t wire_size() const override { return 64; }
  const char* name() const override { return "Ping"; }
};

/// Replies to every ping until the shared budget is exhausted; counts
/// everything it sees. Exercises cross-mailbox sends from many workers.
struct Ponger final : Actor {
  Ponger(Runtime& net, NodeId self, std::vector<NodeId> peers,
         std::atomic<std::int64_t>& budget)
      : net_(net), self_(self), peers_(std::move(peers)), budget_(budget) {}

  void on_start() override {
    for (NodeId peer : peers_) {
      if (peer != self_) net_.send(self_, peer, std::make_shared<PingMsg>());
    }
  }

  void on_message(NodeId from, const MsgPtr& msg) override {
    received.fetch_add(1, std::memory_order_relaxed);
    (void)msg;
    if (budget_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      net_.send(self_, from, std::make_shared<PingMsg>());
    }
  }

  std::atomic<std::uint64_t> received{0};

 private:
  Runtime& net_;
  NodeId self_;
  std::vector<NodeId> peers_;
  std::atomic<std::int64_t>& budget_;
};

TEST(ThreadRuntimeWall, PingPongStormAcrossWorkersStaysConserved) {
  ThreadRuntimeConfig cfg;
  cfg.workers = 4;
  ThreadRuntime net(cfg);

  constexpr std::size_t kNodes = 8;
  std::atomic<std::int64_t> budget{20'000};
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < kNodes; ++i) ids.push_back(net.add_node({}));
  std::vector<std::unique_ptr<Ponger>> actors;
  for (NodeId id : ids) {
    actors.push_back(std::make_unique<Ponger>(net, id, ids, budget));
    net.attach(id, actors.back().get());
  }

  net.start();
  net.run_until(milliseconds(300));

  std::uint64_t received = 0;
  std::uint64_t delivered_stats = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    received += actors[i]->received.load();
    delivered_stats += net.stats(ids[i]).messages_received;
  }
  // Every delivery the backend recorded reached on_message exactly once.
  EXPECT_EQ(received, delivered_stats);
  // The storm actually ran hot: initial fan-out plus replies.
  EXPECT_GE(received, kNodes * (kNodes - 1));
  EXPECT_GT(net.total_bytes_sent(), 0u);
  EXPECT_EQ(net.worker_count(), 4u);
}

TEST(ThreadRuntimeWall, TimersFireOnOwnersAndCancelCleanly) {
  ThreadRuntimeConfig cfg;
  cfg.workers = 2;
  ThreadRuntime net(cfg);

  struct Silent final : Actor {
    void on_message(NodeId, const MsgPtr&) override {}
  } actor;
  const NodeId id = net.add_node({});
  net.attach(id, &actor);

  std::atomic<int> fired{0};
  net.schedule(id, milliseconds(10), [&] { ++fired; });
  net.schedule_after(milliseconds(10), [&] { ++fired; });
  TimerHandle cancelled =
      net.schedule(id, milliseconds(20), [&] { fired += 100; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.scheduled());

  net.start();
  net.run_until(milliseconds(120));
  EXPECT_EQ(fired.load(), 2);
}

TEST(ThreadRuntimeWall, DownNodesDropTrafficAndRestartOnRecovery) {
  ThreadRuntimeConfig cfg;
  cfg.workers = 2;
  ThreadRuntime net(cfg);

  struct Counter final : Actor {
    std::atomic<int> messages{0};
    std::atomic<int> restarts{0};
    void on_message(NodeId, const MsgPtr&) override { ++messages; }
    void on_restart() override { ++restarts; }
  } counter;
  struct Silent final : Actor {
    void on_message(NodeId, const MsgPtr&) override {}
  } sender;

  const NodeId a = net.add_node({});
  const NodeId b = net.add_node({});
  net.attach(a, &sender);
  net.attach(b, &counter);

  net.set_node_down(b, true);
  EXPECT_TRUE(net.is_down(b));
  net.start();
  net.send(a, b, std::make_shared<PingMsg>());
  net.run_until(milliseconds(30));
  EXPECT_EQ(counter.messages.load(), 0);

  net.set_node_down(b, false);
  net.send(a, b, std::make_shared<PingMsg>());
  net.run_until(milliseconds(80));
  EXPECT_EQ(counter.messages.load(), 1);
  EXPECT_EQ(counter.restarts.load(), 1);
  EXPECT_FALSE(net.is_down(b));
}

TEST(ThreadRuntimeWall, OutageKeepsQueuedTimerTasksAndDropsQueuedMessages) {
  // Regression: set_node_down(true) used to clear the node's whole
  // mailbox, destroying timer tasks that had already been moved off
  // the wheel. A node whose worker happened to be busy at outage time
  // lost its tick chain forever — fetch/packing timers never re-armed
  // after recovery. Only queued *messages* may be purged.
  ThreadRuntimeConfig cfg;
  cfg.workers = 2;
  ThreadRuntime net(cfg);

  struct Blocker final : Actor {
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    std::atomic<int> messages{0};
    std::atomic<int> restarts{0};
    void on_message(NodeId, const MsgPtr&) override {
      ++messages;
      entered = true;
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    void on_restart() override { ++restarts; }
  } blocker;
  struct Silent final : Actor {
    void on_message(NodeId, const MsgPtr&) override {}
  } sender;

  const NodeId a = net.add_node({});
  const NodeId b = net.add_node({});
  net.attach(a, &sender);
  net.attach(b, &blocker);
  net.start();

  // Occupy b's mailbox so everything below queues up behind the
  // blocked handler instead of being dispatched immediately.
  net.send(a, b, std::make_shared<PingMsg>());
  while (!blocker.entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::atomic<int> ticks{0};
  net.schedule(b, milliseconds(1), [&] { ++ticks; });
  net.send(a, b, std::make_shared<PingMsg>());
  // Give the wheel time to move the now-due timer task into b's queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  net.set_node_down(b, true);  // must purge the message, keep the task
  net.set_node_down(b, false);
  blocker.release = true;

  net.run_until(milliseconds(200));
  EXPECT_EQ(ticks.load(), 1);
  EXPECT_EQ(blocker.messages.load(), 1);
  EXPECT_EQ(blocker.restarts.load(), 1);
}

TEST(ThreadRuntimeWall, DropFilterAppliesUnderConcurrency) {
  ThreadRuntimeConfig cfg;
  cfg.workers = 2;
  ThreadRuntime net(cfg);

  struct Counter final : Actor {
    std::atomic<int> messages{0};
    void on_message(NodeId, const MsgPtr&) override { ++messages; }
  } counter;
  struct Silent final : Actor {
    void on_message(NodeId, const MsgPtr&) override {}
  } sender;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node({});
  net.attach(a, &sender);
  net.attach(b, &counter);
  net.set_drop_filter([](NodeId, NodeId, const Message&) { return true; });

  net.start();
  for (int i = 0; i < 32; ++i) net.send(a, b, std::make_shared<PingMsg>());
  net.run_until(milliseconds(30));
  EXPECT_EQ(counter.messages.load(), 0);

  net.set_drop_filter(nullptr);
  net.send(a, b, std::make_shared<PingMsg>());
  net.run_until(milliseconds(80));
  EXPECT_EQ(counter.messages.load(), 1);
}

TEST(ThreadRuntimeWall, RejectsInvalidNodesAndNegativeDelays) {
  ThreadRuntimeConfig cfg;
  cfg.workers = 1;
  cfg.latency = LatencyMatrix::uniform(2, 0);
  ThreadRuntime net(cfg);

  NodeConfig bad;
  bad.region = 2;  // outside the 2-region latency matrix
  EXPECT_THROW(net.add_node(bad), std::invalid_argument);
  bad.region = 1;
  bad.up_bw = 0;
  EXPECT_THROW(net.add_node(bad), std::invalid_argument);
  bad.up_bw = 1e6;
  bad.down_bw = -1;
  EXPECT_THROW(net.add_node(bad), std::invalid_argument);
  EXPECT_EQ(net.node_count(), 0u);

  bad.down_bw = 1e6;
  const NodeId id = net.add_node(bad);
  EXPECT_EQ(net.region_of(id), 1u);
  EXPECT_THROW(net.schedule(id, -1, [] {}), std::invalid_argument);
}

/// Pings every peer on a 1 ms owner timer and counts restarts, so a
/// fault plan has steady traffic to drop and a node to crash.
struct Ticker final : Actor {
  Ticker(Runtime& net, NodeId self, std::vector<NodeId> peers)
      : net_(net), self_(self), peers_(std::move(peers)) {}

  void on_start() override { tick(); }
  void on_message(NodeId, const MsgPtr&) override { ++received; }
  void on_restart() override { ++restarts; }

  void tick() {
    for (NodeId peer : peers_) {
      if (peer != self_) net_.send(self_, peer, std::make_shared<PingMsg>());
    }
    PREDIS_FIRE_AND_FORGET(
        net_.schedule(self_, milliseconds(1), [this] { tick(); }));
  }

  std::atomic<std::uint64_t> received{0};
  std::atomic<int> restarts{0};

 private:
  Runtime& net_;
  NodeId self_;
  std::vector<NodeId> peers_;
};

/// Crashes and drops only: none of the kinds that need a delay model.
/// Seed 4 draws two crashes and two drop windows; a crash past the
/// concurrency cap would degrade to jitter instead.
FaultPlanConfig crash_drop_plan() {
  FaultPlanConfig plan;
  plan.seed = 4;
  plan.events = 4;
  plan.start = milliseconds(20);
  plan.horizon = milliseconds(100);
  plan.min_window = milliseconds(20);
  plan.max_window = milliseconds(60);
  plan.max_crashed = 2;
  plan.pair_partitions = false;
  plan.zone_partitions = false;
  plan.jitter = false;
  return plan;
}

TEST(ThreadRuntimeWall, CrashAndDropPlanArmsAndRuns) {
  ThreadRuntimeConfig cfg;
  cfg.workers = 2;
  ThreadRuntime net(cfg);
  std::vector<NodeId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(net.add_node({}));
  std::vector<std::unique_ptr<Ticker>> actors;
  for (NodeId id : ids) {
    actors.push_back(std::make_unique<Ticker>(net, id, ids));
    net.attach(id, actors.back().get());
  }

  FaultScheduler faults(net, ids, crash_drop_plan());
  std::size_t crashes = 0;
  std::size_t drops = 0;
  for (const FaultEvent& ev : faults.plan()) {
    ASSERT_TRUE(ev.kind == FaultKind::kCrash || ev.kind == FaultKind::kDrops)
        << to_string(ev.kind);
    (ev.kind == FaultKind::kCrash ? crashes : drops) += 1;
  }
  ASSERT_GT(crashes, 0u);
  ASSERT_GT(drops, 0u);
  ASSERT_LT(faults.healed_by(), milliseconds(200));

  faults.arm();
  net.start();
  net.run_until(milliseconds(400));

  EXPECT_EQ(faults.faults_injected(), faults.plan().size());
  int restarts = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t dropped_while_down = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    restarts += actors[i]->restarts.load();
    sent += net.stats(ids[i]).messages_sent;
    received += actors[i]->received.load();
    dropped_while_down += net.stats(ids[i]).messages_dropped;
  }
  // Every crashed node came back up, and lost traffic while down.
  EXPECT_EQ(static_cast<std::size_t>(restarts), crashes);
  EXPECT_GT(dropped_while_down, 0u);
  EXPECT_GT(received, 0u);
  EXPECT_LT(received, sent);
}

TEST(ThreadRuntimeWall, DelayFaultsAreRejected) {
  ThreadRuntimeConfig cfg;
  cfg.workers = 1;
  ThreadRuntime net(cfg);
  std::vector<NodeId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(net.add_node({}));

  EXPECT_THROW(net.set_extra_delay([](NodeId, NodeId) { return SimTime{1}; }),
               std::logic_error);
  EXPECT_NO_THROW(net.set_extra_delay(nullptr));

  FaultPlanConfig plan = crash_drop_plan();
  plan.crashes = false;
  plan.drops = false;
  plan.jitter = true;
  FaultScheduler faults(net, ids, plan);
  ASSERT_FALSE(faults.plan().empty());
  EXPECT_THROW(faults.arm(), std::logic_error);
}

}  // namespace
}  // namespace predis::runtime
