// ThreadRuntime: the Runtime backend that runs actors on real cores.
//
// predis-lint: allow-file(D2): the wall-clock backend is the one place
// real time legitimately enters the tree — now() *is* steady_clock, and
// the timer wheel sleeps against real deadlines.
// Protocol code still sees only Runtime::now()/schedule().
//
// Architecture (modeled on the alarm/io-service + acceptor/receiver
// split of production node software):
//
//   * one inbound MPSC mailbox per node (mutex + deque). Any thread
//     may append; exactly one worker drains a mailbox at a time, so a
//     node's callbacks are serialized without per-actor locks.
//   * a worker pool pulling ready mailboxes from a shared run queue.
//   * a timer wheel thread: a deadline min-heap; fired timers owned by
//     a node are routed through that node's mailbox (same serialization
//     domain as its messages), ownerless harness timers run on the
//     wheel thread.
//
// The clock is wall-clock nanoseconds since construction. Messages
// deliver as fast as cores allow — no bandwidth/latency model,
// uplink_backlog() == 0, tracers ignored — so this backend produces
// hardware-limited throughput numbers. The deterministic model lives
// in SimRuntime alone (see docs/runtime.md).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "runtime/runtime.hpp"

namespace predis::runtime {

/// Only wall time remains; the enum and ThreadRuntimeConfig::clock are
/// kept so existing configurations still compile.
enum class ClockMode {
  kWall,  ///< Real time, worker pool + timer wheel.
};

struct ThreadRuntimeConfig {
  ClockMode clock = ClockMode::kWall;
  /// Worker threads draining mailboxes.
  std::size_t workers = 4;
  /// Region latency matrix. Only its region count is used: add_node()
  /// rejects regions outside it. Real queues are the delay.
  LatencyMatrix latency = LatencyMatrix::uniform(1, 0);
  /// How long run_until() waits for in-flight work to quiesce after
  /// the deadline before returning anyway.
  SimTime drain_grace = milliseconds(2000);
};

class ThreadRuntime final : public Runtime {
 public:
  explicit ThreadRuntime(ThreadRuntimeConfig config);
  ~ThreadRuntime() override;

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  NodeId add_node(const NodeConfig& config) override;
  void attach(NodeId id, Actor* actor) override;
  std::size_t node_count() const override;
  std::uint32_t region_of(NodeId id) const override;

  SimTime now() const override;
  TimerHandle schedule(NodeId owner, SimTime delay,
                       std::function<void()> fn) override;

  void send(NodeId from, NodeId to, MsgPtr msg) override;
  void multicast(NodeId from, const std::vector<NodeId>& to,
                 const MsgPtr& msg) override;

  void start() override;
  void run_until(SimTime limit) override;

  void set_node_down(NodeId id, bool down) override;
  void notify_reconnect(NodeId id) override;
  bool is_down(NodeId id) const override;

  void set_drop_filter(DropFilter filter) override;
  void set_extra_delay(DelayFn fn) override;
  void set_tracer(TraceHasher* tracer) override;

  TrafficStats stats(NodeId id) const override;
  SimTime uplink_backlog(NodeId id) const override;
  std::uint64_t total_bytes_sent() const override;

  std::size_t worker_count() const { return workers_.size(); }

 private:
  /// One mailbox entry: either a delivered message or a timer task
  /// routed to its owner node.
  struct Item {
    NodeId from = kNoNode;
    MsgPtr msg;            ///< Null for timer tasks.
    std::size_t size = 0;  ///< Wire size incl. overhead (messages).
    std::function<void()> task;
    std::shared_ptr<std::atomic<bool>> alive;  ///< Timer tasks only.
  };

  /// Per-node inbound MPSC queue plus the node state its callbacks may
  /// not race on. `active` means the mailbox is in the run queue or
  /// currently owned by a worker — the single-consumer guarantee.
  struct Mailbox {
    std::mutex m;
    std::deque<Item> q PREDIS_GUARDED_BY(m);
    bool active PREDIS_GUARDED_BY(m) = false;
    bool down PREDIS_GUARDED_BY(m) = false;
    Actor* actor PREDIS_GUARDED_BY(m) = nullptr;
    NodeConfig config;  ///< Frozen at add_node(), read-only afterwards.
    TrafficStats stats PREDIS_GUARDED_BY(m);
  };

  struct TimerEvent {
    SimTime deadline;  ///< Nanoseconds since epoch_.
    std::uint64_t seq;
    NodeId owner;
    std::function<void()> fn;
    std::shared_ptr<std::atomic<bool>> alive;
  };
  struct TimerLater {
    bool operator()(const TimerEvent& a, const TimerEvent& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  void worker_loop();
  void timer_loop();
  bool stopping_read();
  void drain_mailbox(NodeId id);
  void dispatch(Mailbox& mb, Item& item);
  void enqueue_item(NodeId to, Item item);
  bool quiescent();

  ThreadRuntimeConfig cfg_;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  mutable std::mutex ready_m_;
  std::condition_variable ready_cv_;
  std::deque<NodeId> ready_ PREDIS_GUARDED_BY(ready_m_);
  bool running_ PREDIS_GUARDED_BY(ready_m_) = false;
  bool stopping_ PREDIS_GUARDED_BY(ready_m_) = false;
  std::atomic<bool> draining_{false};

  std::mutex timer_m_;
  std::condition_variable timer_cv_;
  std::priority_queue<TimerEvent, std::vector<TimerEvent>, TimerLater>
      timer_q_ PREDIS_GUARDED_BY(timer_m_);
  std::uint64_t timer_seq_ PREDIS_GUARDED_BY(timer_m_) = 0;

  std::mutex hooks_m_;
  DropFilter drop_filter_ PREDIS_GUARDED_BY(hooks_m_);

  std::vector<std::thread> workers_;
  std::thread timer_thread_;
};

}  // namespace predis::runtime
