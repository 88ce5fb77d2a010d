// SimRuntime: the deterministic discrete-event backend and the tree's
// only oracle. A sim::Simulator event queue drives the LinkModel fluid
// network (per-node uplink/downlink bandwidth with FIFO serialization,
// a region latency matrix, fault hooks, byte accounting), so a seed
// fixes every delivery timestamp. tests/runtime/test_golden_digests.cpp
// pins its delivery-trace and commit digests.
#pragma once

#include <functional>
#include <vector>

#include "runtime/link_model.hpp"
#include "runtime/runtime.hpp"
#include "sim/simulator.hpp"

namespace predis::runtime {

class SimRuntime final : public Runtime {
 public:
  explicit SimRuntime(LatencyMatrix latency) : links_(std::move(latency)) {}

  /// The backend interface actors and harnesses talk to.
  Runtime& runtime() { return *this; }

  /// Escape hatch for sim-level instrumentation (event counts,
  /// drain-to-empty runs).
  sim::Simulator& simulator() { return sim_; }

  NodeId add_node(const NodeConfig& config) override {
    return links_.add_node(config);
  }
  void attach(NodeId id, Actor* actor) override { links_.attach(id, actor); }

  std::size_t node_count() const override { return links_.node_count(); }
  std::uint32_t region_of(NodeId id) const override {
    return links_.region_of(id);
  }

  SimTime now() const override { return sim_.now(); }

  /// Owner is irrelevant on the single-threaded backend: every
  /// callback already serializes through the one event queue.
  TimerHandle schedule(NodeId /*owner*/, SimTime delay,
                       std::function<void()> fn) override {
    return sim_.schedule_after(delay, std::move(fn));
  }

  void send(NodeId from, NodeId to, MsgPtr msg) override {
    const auto plan = links_.plan_send(from, to, *msg, sim_.now());
    if (!plan.deliver) return;
    sim_.schedule_at(
        plan.at, [this, from, to, msg = std::move(msg), size = plan.size]() {
          Actor* actor =
              links_.complete_delivery(from, to, size, sim_.now(), *msg);
          if (actor != nullptr) actor->on_message(from, msg);
        });
  }

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

  /// Drive the event queue up to `limit` (inclusive).
  void run_until(SimTime limit) override { sim_.run_until(limit); }

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
    return links_.uplink_backlog(id, sim_.now());
  }
  std::uint64_t total_bytes_sent() const override {
    return links_.total_bytes_sent();
  }

 private:
  sim::Simulator sim_;
  LinkModel links_;
};

}  // namespace predis::runtime
