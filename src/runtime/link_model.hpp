// The cut-through fluid transfer model behind SimRuntime, the
// deterministic backend: one copy of the paper's x_i/ls model.
//
// For a message of S bytes from A to B,
//   first byte leaves A at  t0 = max(now, A.uplink_busy)
//   last  byte leaves A at  t1 = t0 + S / A.up_bw
//   first byte reaches B at t0 + lat(A,B)
//   delivery completes at   max(t1 + lat, max(t0 + lat, B.downlink_busy)
//                                          + S / B.down_bw)
// With symmetric idle links this yields the intuitive
// S/bw + latency (no double serialization); concurrent inbound flows
// queue at the receiver's downlink; concurrent outbound flows queue at
// the sender's uplink — which is exactly the model in the paper's
// throughput analysis (§III-F: uploading bandwidth x_i, delay ls).
//
// The model also owns the per-node bookkeeping: actor attachment,
// regions, down flags, traffic counters, the fault hooks (drop filter /
// extra delay) and the delivery tracer. It is not thread-safe.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "runtime/runtime.hpp"

namespace predis::runtime {

class LinkModel {
 public:
  explicit LinkModel(LatencyMatrix latency) : latency_(std::move(latency)) {}

  NodeId add_node(const NodeConfig& config) {
    if (config.region >= latency_.regions()) {
      throw std::invalid_argument("LinkModel::add_node: unknown region");
    }
    if (config.up_bw <= 0 || config.down_bw <= 0) {
      throw std::invalid_argument("LinkModel::add_node: non-positive bandwidth");
    }
    nodes_.push_back(Node{config, nullptr, false, 0, 0, {}});
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  void attach(NodeId id, Actor* actor) { nodes_.at(id).actor = actor; }
  Actor* actor(NodeId id) const { return nodes_.at(id).actor; }

  std::size_t node_count() const { return nodes_.size(); }
  std::uint32_t region_of(NodeId id) const { return nodes_[id].config.region; }
  const NodeConfig& config_of(NodeId id) const { return nodes_[id].config; }

  /// Outcome of planning one send at time `now`.
  struct Planned {
    bool deliver = false;  ///< False: sender down / receiver down / dropped.
    SimTime at = 0;        ///< Delivery completion time.
    std::size_t size = 0;  ///< Wire size incl. transport overhead.
  };

  /// Run the sender-side half of a transfer: fault checks, uplink
  /// serialization and byte accounting. The order of the checks is
  /// part of the golden trace digests — keep it.
  Planned plan_send(NodeId from, NodeId to, const Message& msg, SimTime now) {
    if (from >= nodes_.size() || to >= nodes_.size()) {
      throw std::out_of_range("LinkModel::plan_send: unknown node");
    }
    Node& src = nodes_[from];
    Node& dst = nodes_[to];
    if (src.down) {
      ++src.stats.messages_dropped;
      return {};
    }

    const std::size_t size = msg.wire_size() + Runtime::kTransportOverhead;

    if (dst.down || (drop_filter_ && drop_filter_(from, to, msg))) {
      ++src.stats.messages_dropped;
      return {};
    }

    // Sender uplink serialization (FIFO).
    const SimTime t0 = std::max(now, src.uplink_busy);
    const auto tx_time = static_cast<SimTime>(
        std::llround(static_cast<double>(size) / src.config.up_bw * 1e9));
    const SimTime t1 = t0 + tx_time;
    src.uplink_busy = t1;
    src.stats.bytes_sent += size;
    ++src.stats.messages_sent;

    SimTime lat = latency_.at(src.config.region, dst.config.region);
    if (extra_delay_) lat += extra_delay_(from, to);

    // Receiver downlink: cut-through — cannot complete before the last
    // byte arrives, and queues behind other inbound flows.
    const auto rx_time = static_cast<SimTime>(
        std::llround(static_cast<double>(size) / dst.config.down_bw * 1e9));
    const SimTime first_byte_at = t0 + lat;
    const SimTime rx_start = std::max(first_byte_at, dst.downlink_busy);
    const SimTime deliver = std::max(t1 + lat, rx_start + rx_time);
    dst.downlink_busy = deliver;
    return {true, deliver, size};
  }

  /// Run the receiver-side half when the transfer completes: liveness
  /// check, byte accounting and the trace digest. Returns the actor to
  /// invoke, or nullptr if the receiver went down (or was never
  /// attached) in the meantime.
  Actor* complete_delivery(NodeId from, NodeId to, std::size_t size,
                           SimTime when, const Message& msg) {
    Node& dst = nodes_[to];
    if (dst.down || dst.actor == nullptr) return nullptr;
    dst.stats.bytes_received += size;
    ++dst.stats.messages_received;
    if (tracer_ != nullptr) {
      tracer_->record_delivery(when, from, to, size, msg.name());
    }
    return dst.actor;
  }

  // --- Node lifecycle ---------------------------------------------------

  /// Flip the down flag; returns the actor whose on_restart() hook the
  /// backend must fire (down -> up transition), else nullptr.
  Actor* set_node_down(NodeId id, bool down) {
    Node& node = nodes_.at(id);
    const bool restarting = node.down && !down;
    node.down = down;
    return restarting ? node.actor : nullptr;
  }

  /// Actor to fire on_restart() on for a healed-but-never-crashed node.
  Actor* reconnect_target(NodeId id) const {
    const Node& node = nodes_.at(id);
    return node.down ? nullptr : node.actor;
  }

  bool is_down(NodeId id) const { return nodes_[id].down; }

  // --- Fault hooks ------------------------------------------------------

  void set_drop_filter(Runtime::DropFilter filter) {
    drop_filter_ = std::move(filter);
  }
  void set_extra_delay(Runtime::DelayFn fn) { extra_delay_ = std::move(fn); }
  void set_tracer(TraceHasher* tracer) { tracer_ = tracer; }

  // --- Accounting -------------------------------------------------------

  const TrafficStats& stats(NodeId id) const { return nodes_[id].stats; }

  SimTime uplink_backlog(NodeId id, SimTime now) const {
    return nodes_[id].uplink_busy > now ? nodes_[id].uplink_busy - now : 0;
  }

  std::uint64_t total_bytes_sent() const {
    std::uint64_t total = 0;
    for (const auto& node : nodes_) total += node.stats.bytes_sent;
    return total;
  }

 private:
  struct Node {
    NodeConfig config;
    Actor* actor = nullptr;
    bool down = false;
    SimTime uplink_busy = 0;
    SimTime downlink_busy = 0;
    TrafficStats stats;
  };

  LatencyMatrix latency_;
  std::vector<Node> nodes_;
  Runtime::DropFilter drop_filter_;
  Runtime::DelayFn extra_delay_;
  TraceHasher* tracer_ = nullptr;
};

}  // namespace predis::runtime
