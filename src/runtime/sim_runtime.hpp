// SimRuntime: the deterministic discrete-event backend and the tree's
// only oracle. One (time, insertion-sequence) event queue drives the
// LinkModel fluid network (per-node uplink/downlink bandwidth with FIFO
// serialization, a region latency matrix, fault hooks, byte
// accounting), so a seed fixes every delivery timestamp and two runs
// with the same seed produce byte-identical traces.
// tests/runtime/test_golden_digests.cpp pins its delivery-trace and
// commit digests.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "runtime/link_model.hpp"
#include "runtime/runtime.hpp"

namespace predis::runtime {

class SimRuntime final : public Runtime {
 public:
  explicit SimRuntime(LatencyMatrix latency) : links_(std::move(latency)) {}
  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  /// The backend interface actors and harnesses talk to.
  Runtime& runtime() { return *this; }

  /// Kept for perfbench's `simulator().events_executed()` / `.now()`
  /// reads; goes with the next benchmark change.
  const SimRuntime& simulator() const { return *this; }

  NodeId add_node(const NodeConfig& config) override {
    return links_.add_node(config);
  }
  void attach(NodeId id, Actor* actor) override { links_.attach(id, actor); }

  std::size_t node_count() const override { return links_.node_count(); }
  std::uint32_t region_of(NodeId id) const override {
    return links_.region_of(id);
  }

  SimTime now() const override { return now_; }

  /// Schedule `fn` at absolute simulated time `t` (>= now).
  TimerHandle schedule_at(SimTime t, std::function<void()> fn);

  /// Owner is irrelevant on the single-threaded backend: every
  /// callback already serializes through the one event queue.
  TimerHandle schedule(NodeId owner, SimTime delay,
                       std::function<void()> fn) override;

  void send(NodeId from, NodeId to, MsgPtr msg) override;

  void multicast(NodeId from, const std::vector<NodeId>& to,
                 const MsgPtr& msg) override {
    for (NodeId dest : to) {
      if (dest != from) send(from, dest, msg);
    }
  }

  void start() override {
    for (NodeId id = 0; id < links_.node_count(); ++id) {
      Actor* actor = links_.actor(id);
      if (actor != nullptr && !links_.is_down(id)) actor->on_start();
    }
  }

  /// Execute every event due at or before `limit` in (time, seq)
  /// order, then advance the clock to `limit`.
  void run_until(SimTime limit) override;

  /// Total events executed so far (cancelled timers excluded).
  std::uint64_t events_executed() const { return executed_; }

  // --- Fault injection -----------------------------------------------

  void set_node_down(NodeId id, bool down) override {
    Actor* restarted = links_.set_node_down(id, down);
    if (restarted != nullptr) restarted->on_restart();
  }
  void notify_reconnect(NodeId id) override {
    Actor* actor = links_.reconnect_target(id);
    if (actor != nullptr) actor->on_restart();
  }
  bool is_down(NodeId id) const override { return links_.is_down(id); }

  void set_drop_filter(DropFilter filter) override {
    links_.set_drop_filter(std::move(filter));
  }
  void set_extra_delay(DelayFn fn) override {
    links_.set_extra_delay(std::move(fn));
  }
  void set_tracer(TraceHasher* tracer) override { links_.set_tracer(tracer); }

  // --- Accounting ------------------------------------------------------

  TrafficStats stats(NodeId id) const override { return links_.stats(id); }

  SimTime uplink_backlog(NodeId id) const override {
    return links_.uplink_backlog(id, now_);
  }
  std::uint64_t total_bytes_sent() const override {
    return links_.total_bytes_sent();
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<std::atomic<bool>> alive;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  LinkModel links_;
};

}  // namespace predis::runtime
