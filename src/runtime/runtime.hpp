// The Runtime seam: everything a node actor may ask of its execution
// environment, behind one abstract interface.
//
// Actors — consensus engines, Multi-Zone full nodes, gossip nodes,
// clients — use exactly four capabilities:
//
//   1. the clock:            now()
//   2. timers:               schedule(owner, delay, fn) / TimerHandle
//   3. messaging:            send() / multicast(), serialized per-node
//                            on the sender's uplink
//   4. lifecycle hooks:      node up/down/restart/reconnect
//
// Two backends implement the interface:
//
//   * SimRuntime — the deterministic discrete-event simulator and the
//     one oracle: a seed fixes every delivery, and golden digests in
//     tests/runtime pin the schedule (see docs/runtime.md).
//   * ThreadRuntime — per-node inbound MPSC queues, a timer wheel and
//     a worker pool on wall-clock time; gives hardware-limited numbers.
//
// Protocol and harness code talks only to this interface.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "runtime/message.hpp"
#include "runtime/timer.hpp"
#include "runtime/trace.hpp"

namespace predis::runtime {

/// Propagation latency between regions. Symmetric construction helper
/// provided, but the matrix itself may be asymmetric.
class LatencyMatrix {
 public:
  /// Uniform latency between all (distinct and equal) region pairs.
  static LatencyMatrix uniform(std::size_t regions, SimTime latency) {
    std::vector<std::vector<SimTime>> m(
        regions, std::vector<SimTime>(regions, latency));
    return LatencyMatrix(std::move(m));
  }

  /// Explicit matrix, row = from-region, column = to-region.
  explicit LatencyMatrix(std::vector<std::vector<SimTime>> m)
      : m_(std::move(m)) {}

  SimTime at(std::uint32_t from, std::uint32_t to) const {
    return m_[from][to];
  }
  std::size_t regions() const { return m_.size(); }

 private:
  std::vector<std::vector<SimTime>> m_;
};

struct NodeConfig {
  std::uint32_t region = 0;
  /// Uplink bandwidth, bytes per second.
  double up_bw = 12.5e6;  // 100 Mbps
  /// Downlink bandwidth, bytes per second.
  double down_bw = 12.5e6;
};

/// Interface implemented by every node (consensus node, full node,
/// relayer, client). A backend guarantees that one node's callbacks —
/// on_start, on_message, on_restart and owned timers — never run
/// concurrently with each other.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Called once when the run starts (after all wiring is done).
  virtual void on_start() {}

  /// Called when a message addressed to this node is fully delivered.
  virtual void on_message(NodeId from, const MsgPtr& msg) = 0;

  /// Called when the node comes back up after a crash window
  /// (set_node_down(id, false) on a node that was down). The node's
  /// in-memory state survived — what it missed is every message sent
  /// while it was down — so implementations trigger their catch-up
  /// path here: resync mempool tips, request a state snapshot,
  /// re-subscribe to relayers. Default: resume blind (pre-recovery
  /// behaviour).
  virtual void on_restart() {}
};

/// Per-node traffic counters.
struct TrafficStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t messages_dropped = 0;
};

class Runtime {
 public:
  /// Fixed transport overhead added to every message's wire size
  /// (headers, framing, signature envelope).
  static constexpr std::size_t kTransportOverhead = 64;

  virtual ~Runtime() = default;

  // --- Topology --------------------------------------------------------

  /// Register a node; returns its dense id.
  virtual NodeId add_node(const NodeConfig& config) = 0;

  /// Attach the actor that receives this node's messages. The actor
  /// must outlive the run.
  virtual void attach(NodeId id, Actor* actor) = 0;

  virtual std::size_t node_count() const = 0;
  virtual std::uint32_t region_of(NodeId id) const = 0;

  // --- Clock and timers ------------------------------------------------

  /// Current time in nanoseconds: virtual on deterministic backends,
  /// wall-clock-since-start on ThreadRuntime.
  virtual SimTime now() const = 0;

  /// Schedule `fn` after `delay` (>= 0) on behalf of node `owner`.
  /// The backend serializes the callback with the owner's message
  /// handling (same mailbox); pass kNoNode for harness callbacks with
  /// no owning actor.
  virtual TimerHandle schedule(NodeId owner, SimTime delay,
                               std::function<void()> fn) = 0;

  /// Harness convenience: an ownerless timer.
  TimerHandle schedule_after(SimTime delay, std::function<void()> fn) {
    return schedule(kNoNode, delay, std::move(fn));
  }

  // --- Messaging -------------------------------------------------------

  /// Queue a message for delivery. Serializes on the sender's uplink.
  virtual void send(NodeId from, NodeId to, MsgPtr msg) = 0;

  /// Unicast to each destination in turn (uplink serialized per copy —
  /// multicast of a large payload to k peers costs k transmissions,
  /// matching the paper's model).
  virtual void multicast(NodeId from, const std::vector<NodeId>& to,
                         const MsgPtr& msg) = 0;

  // --- Run control -----------------------------------------------------

  /// Start all attached actors (calls on_start in id order).
  virtual void start() = 0;

  /// Run (or let run) until `limit` nanoseconds of backend time, then
  /// drain in-flight work. After this returns, the caller may read
  /// shared experiment state without racing the backend.
  virtual void run_until(SimTime limit) = 0;

  // --- Node lifecycle / fault injection --------------------------------

  /// A crashed node sends and receives nothing. Bringing a down node
  /// back up fires its actor's on_restart() hook (after the flag
  /// flips, so the hook can send messages).
  virtual void set_node_down(NodeId id, bool down) = 0;

  /// Fire a node's on_restart() hook without a down/up cycle — used
  /// when a healed partition reconnects a node that never crashed but
  /// missed every message for the cut window.
  virtual void notify_reconnect(NodeId id) = 0;
  virtual bool is_down(NodeId id) const = 0;

  /// Optional filter consulted for every send; return true to drop.
  using DropFilter =
      std::function<bool(NodeId from, NodeId to, const Message&)>;
  virtual void set_drop_filter(DropFilter filter) = 0;

  /// Optional extra one-way delay injected per (from, to) pair.
  /// Backends without a delay model throw std::logic_error on a
  /// non-empty hook.
  using DelayFn = std::function<SimTime(NodeId from, NodeId to)>;
  virtual void set_extra_delay(DelayFn fn) = 0;

  /// Optional trace hasher folding every completed delivery into a
  /// running digest (deterministic backends only). Must outlive the
  /// run.
  virtual void set_tracer(TraceHasher* tracer) = 0;

  // --- Accounting ------------------------------------------------------

  virtual TrafficStats stats(NodeId id) const = 0;

  /// How far ahead of the clock this node's uplink queue extends — the
  /// simulated analogue of a full TCP send buffer. Protocol engines
  /// use it for backpressure (shed client load instead of queueing
  /// unboundedly). Backends without a bandwidth model return 0.
  virtual SimTime uplink_backlog(NodeId id) const = 0;

  /// Total bytes put on the wire by all nodes.
  virtual std::uint64_t total_bytes_sent() const = 0;
};

/// Mean uplink use of `nodes` in Mbps. Each node's bytes are divided by
/// the time its uplink needs to finish sending them — now() plus the
/// queued backlog — so the figure can never exceed link capacity.
inline double mean_uplink_mbps(const Runtime& net,
                               const std::vector<NodeId>& nodes) {
  double sum = 0.0;
  for (NodeId id : nodes) {
    const SimTime busy_until = net.now() + net.uplink_backlog(id);
    if (busy_until <= 0) continue;
    sum += static_cast<double>(net.stats(id).bytes_sent) * 8.0 / 1e6 /
           to_seconds(busy_until);
  }
  return nodes.empty() ? 0.0 : sum / static_cast<double>(nodes.size());
}

}  // namespace predis::runtime
