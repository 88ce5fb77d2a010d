// ProbeRuntime: the benchmark's pass-through runtime::Runtime. It is
// handed to the public runners through RunContext::backend and forwards
// every call to the real backend (SimRuntime or ThreadRuntime), timing
// the calls into each layer from outside:
//
//   * always — the run's phase boundaries (entering the runner, start(),
//     run_until() returning) and a client probe that stamps every
//     ClientRequest sent and every ClientReply delivered, giving
//     per-transaction commit latency for runners that report only a
//     mean;
//   * traced — every attached actor and every schedule() callback is
//     wrapped, so each handler or timer callback becomes one Span (name,
//     layer, start, end, and the callback that sent the message or armed
//     the timer as parent). send()/multicast() calls become spans nested
//     in the handler that made them. Messages travel in an Envelope that
//     carries the parent span and the send time; receivers see the
//     original message.
//
// The wrapper never reorders, delays or drops anything, so on the
// deterministic backend a traced run decides exactly what an untraced
// one does; the benchmark's correctness gate checks that.
//
// Thread safety: on ThreadRuntime, callbacks run on several workers.
// Trace data goes to per-thread shards merged after run_until() returns;
// client-probe state is per client and touched only from that client's
// serialized callbacks.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "runtime/runtime.hpp"
#include "stats.hpp"

namespace perfbench {

using predis::NodeId;
using predis::SimTime;

/// Layers are named after the repository's modules. kConsensus holds
/// timer callbacks of consensus nodes (predis + pbft state machines).
enum class Layer : std::uint8_t {
  kRuntime,
  kTxpool,
  kPredis,
  kPbft,
  kConsensus,
  kMultizone,
  kHarness,
};
inline constexpr std::size_t kLayerCount = 7;
const char* to_string(Layer layer);

enum class Role : std::uint8_t { kOther, kClient, kConsensus, kFull };

/// Interned span/message names: every Message::name() of the repository
/// plus the pseudo-names of non-message callbacks.
enum class Pseudo : std::uint16_t { kUnknown = 0, kTimer, kStart, kRestart,
                                    kSend, kMulticast };
std::uint16_t name_id(std::string_view name);
const char* name_of(std::uint16_t id);
std::size_t name_count();
/// Layer owning a message name (by Message::name()).
Layer layer_of_name(std::uint16_t id);

/// Message counters per interned name.
struct NameCounters {
  std::uint64_t sends = 0;        ///< send()/multicast() calls.
  std::uint64_t copies = 0;       ///< Destinations (multicast fan-out).
  std::uint64_t bytes = 0;        ///< Wire bytes over all copies.
  std::uint64_t full_node_bytes = 0;  ///< Wire bytes delivered to full nodes.
};

/// Everything the traced run recorded, merged over threads.
struct TraceData {
  std::vector<Span> spans;
  std::vector<NameCounters> names;
  std::vector<double> mailbox_wait_ns;   ///< Wall backend: send → handler.
  std::vector<double> timer_lag_ns;      ///< Every timer: fired − due.
  std::vector<double> client_lag_ns;     ///< The clients' batch timers only.
  std::vector<Role> roles;               ///< Indexed by NodeId.
};

/// Client-probe results, merged over clients.
struct ClientData {
  std::uint64_t submitted = 0;   ///< Transactions sent by clients.
  std::uint64_t replied = 0;     ///< Distinct transactions replied to.
  std::vector<double> latency_ms;  ///< Submitted at/after record_from.
};

/// Thrown from start() by a set-up probe run (see abort_at_start).
struct SetupOnly {};

class ProbeRuntime final : public predis::runtime::Runtime {
 public:
  ProbeRuntime(predis::runtime::Runtime& inner, bool traced, bool wall_clock);
  ~ProbeRuntime() override;

  ProbeRuntime(const ProbeRuntime&) = delete;
  ProbeRuntime& operator=(const ProbeRuntime&) = delete;

  // --- Benchmark controls ----------------------------------------------

  /// Latencies of transactions submitted before this time are dropped
  /// (the runner's warmup).
  void set_record_from(SimTime t) { record_from_ = t; }
  /// Mark the consensus nodes (all other non-client nodes count as full
  /// nodes); call from RunContext::on_network_ready.
  void set_consensus_nodes(const std::vector<NodeId>& ids);
  /// Make start() throw SetupOnly: the run stops after set-up.
  void abort_at_start() { abort_at_start_ = true; }
  /// Stamp "entering the runner"; call immediately before it.
  void mark_runner_entry();

  predis::runtime::Runtime& inner() { return inner_; }

  // --- Results (after run_until returns) --------------------------------

  double setup_s() const;     ///< Runner entry → start().
  double cpu_s() const;       ///< Process CPU, start() → run_until returns.
  double run_wall_s() const;  ///< Wall time, start() → run_until returns.
  std::int64_t run_end_ns() const { return run_end_ns_; }
  ClientData client_data() const;
  TraceData trace_data() const;

  // --- Runtime seam ----------------------------------------------------

  NodeId add_node(const predis::runtime::NodeConfig& config) override;
  void attach(NodeId id, predis::runtime::Actor* actor) override;
  std::size_t node_count() const override { return inner_.node_count(); }
  std::uint32_t region_of(NodeId id) const override {
    return inner_.region_of(id);
  }
  SimTime now() const override { return inner_.now(); }
  predis::runtime::TimerHandle schedule(NodeId owner, SimTime delay,
                                        std::function<void()> fn) override;
  void send(NodeId from, NodeId to, predis::runtime::MsgPtr msg) override;
  void multicast(NodeId from, const std::vector<NodeId>& to,
                 const predis::runtime::MsgPtr& msg) override;
  void start() override;
  void run_until(SimTime limit) override;
  void set_node_down(NodeId id, bool down) override {
    inner_.set_node_down(id, down);
  }
  void notify_reconnect(NodeId id) override { inner_.notify_reconnect(id); }
  bool is_down(NodeId id) const override { return inner_.is_down(id); }
  void set_drop_filter(DropFilter filter) override;
  void set_extra_delay(DelayFn fn) override {
    inner_.set_extra_delay(std::move(fn));
  }
  void set_tracer(predis::runtime::TraceHasher* tracer) override {
    inner_.set_tracer(tracer);
  }
  predis::runtime::TrafficStats stats(NodeId id) const override {
    return inner_.stats(id);
  }
  SimTime uplink_backlog(NodeId id) const override {
    return inner_.uplink_backlog(id);
  }
  std::uint64_t total_bytes_sent() const override {
    return inner_.total_bytes_sent();
  }

 private:
  class Proxy;
  struct ClientState;
  struct Shard;

  Shard& shard();
  Layer layer_of_role(NodeId node) const;
  void note_request(NodeId from, const predis::runtime::Message& msg);
  void note_reply(NodeId to, const predis::runtime::Message& msg);
  /// Run `fn` as one span; returns nothing, records on the thread shard.
  template <typename Fn>
  void timed(NodeId node, std::uint16_t name, Layer layer,
             std::uint64_t parent, bool nested, Fn&& fn);
  predis::runtime::MsgPtr wrap(const predis::runtime::MsgPtr& msg,
                               std::size_t copies);
  void deliver(NodeId self, predis::runtime::Actor* actor, NodeId from,
               const predis::runtime::MsgPtr& msg);

  predis::runtime::Runtime& inner_;
  const bool traced_;
  const bool wall_;
  const std::uint64_t instance_;
  bool abort_at_start_ = false;
  SimTime record_from_ = 0;

  std::vector<Role> roles_;  ///< Frozen once start() runs.
  std::vector<std::unique_ptr<ClientState>> clients_;  ///< By NodeId.
  std::vector<std::unique_ptr<Proxy>> proxies_;

  std::int64_t entry_ns_ = 0;
  std::int64_t start_ns_ = 0;
  std::int64_t run_end_ns_ = 0;
  double cpu_start_s_ = 0.0;
  double cpu_end_s_ = 0.0;

  mutable std::mutex shards_m_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Monotonic wall-clock nanoseconds (span timestamps).
std::int64_t mono_ns();
/// Process CPU seconds (all threads).
double process_cpu_s();

}  // namespace perfbench
