// Seed-driven fault schedules for swarm testing.
//
// A FaultScheduler derives, from a single RNG seed, a deterministic
// plan of timed fault events over a run — node crash/restart, pairwise
// and zone-level partitions that heal after a window, extra-delay
// jitter, probabilistic message drops, and Byzantine producer
// equivocation (delegated to the embedding harness via a hook) — and
// drives them through the Runtime's fault-injection surface
// (set_node_down, DropFilter, DelayFn). Every random choice comes from
// the scheduler's own Rng and every action is scheduled through the
// runtime's timer seam, so two runs with the same seed on a
// deterministic backend replay the exact same fault sequence. The
// active-fault state sits behind one mutex, so on ThreadRuntime the
// hooks may run on sending workers while events apply on the timer
// thread. Delay faults (jitter, throttle) need a backend with a delay
// model: ThreadRuntime rejects them.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "runtime/runtime.hpp"

namespace predis::runtime {

enum class FaultKind {
  kCrash,          ///< Node down, restarts after the window.
  kPairPartition,  ///< Both directions between two nodes cut.
  kZonePartition,  ///< One region (or random half) cut from the rest.
  kJitter,         ///< Random extra delay on every target link.
  kDrops,          ///< Each target-to-target message dropped with prob p.
  kEquivocate,     ///< Byzantine producer equivocation (via hook).
  kThrottle,       ///< Performance adversary: outbound delay < timeout.
  kWithhold,       ///< Data-plane messages swallowed outbound (by name).
  kGarbage,        ///< Hostile message injection (via hook).
  kChurnStorm,     ///< Repeated down/up cycles, staggered over a set.
  /// Recovery-testable partition: a *minority* group (size <= f) is cut
  /// bidirectionally from the rest, then heals on schedule. Unlike
  /// kZonePartition (which may cut half the cluster and stall quorum),
  /// the majority keeps committing, so the cut nodes fall measurably
  /// behind and must catch up after the heal.
  kPartition,
};

/// Number of FaultKind values; to_string() and the plan builder are
/// checked against this (see test_faults), so a new kind cannot ship
/// without a printable name.
inline constexpr std::size_t kFaultKindCount = 11;

const char* to_string(FaultKind kind);

struct FaultEvent {
  SimTime at = 0;      ///< Injection time.
  SimTime window = 0;  ///< Duration until heal/restart (0 = permanent).
  FaultKind kind = FaultKind::kCrash;
  NodeId a = kNoNode;  ///< Crashed node / pair member / equivocator.
  NodeId b = kNoNode;  ///< Second pair member.
  std::vector<NodeId> side;  ///< Zone partition: nodes cut from the rest.
  double p = 0.0;            ///< Drop probability.
  SimTime jitter = 0;        ///< Max extra one-way delay.
};

struct FaultPlanConfig {
  std::uint64_t seed = 1;
  /// Faults are injected inside [start, horizon); every windowed fault
  /// heals by horizon + max_window, leaving the tail of the run clean
  /// so liveness-after-heal is checkable.
  SimTime start = seconds(1);
  SimTime horizon = seconds(5);
  std::size_t events = 6;  ///< Fault events composed per run.
  /// Crash-concurrency cap: at most this many targets down at once
  /// (keep <= f so a quorum of correct nodes always exists).
  std::size_t max_crashed = 1;
  SimTime min_window = milliseconds(200);
  SimTime max_window = milliseconds(1200);
  double max_drop_prob = 0.25;
  SimTime max_jitter = milliseconds(100);
  /// Per-kind enables; disabled kinds are never drawn.
  bool crashes = true;
  bool pair_partitions = true;
  bool zone_partitions = true;
  bool jitter = true;
  bool drops = true;
  bool equivocation = false;
  /// At most this many distinct equivocators (keep <= f).
  std::size_t max_equivocators = 1;

  // --- Adversarial kinds (all default-off so existing seed-derived
  // --- plans are unchanged; enable per attack campaign). -------------
  bool throttle = false;
  bool withhold = false;
  bool garbage = false;
  bool churn_storms = false;
  /// Minority-group partitions with scheduled heal (kPartition).
  bool partitions = false;
  /// Nodes on the cut side of a kPartition (keep <= f so the majority
  /// retains quorum and keeps committing while the minority lags).
  std::size_t max_partition_nodes = 1;
  /// Extra one-way delay a throttled node adds to every outbound
  /// message. Must stay under the consensus view timeout: the node is a
  /// performance adversary, not a crashed one.
  SimTime throttle_delay = milliseconds(600);
  std::size_t max_throttled = 1;
  /// At most this many distinct withholders (keep <= f: a withholder
  /// contributes no data, like a silent producer).
  std::size_t max_withholders = 1;
  std::size_t max_garbage = 1;
  /// Down/up cycles each churned node goes through per storm event.
  std::size_t churn_cycles = 3;
  /// Nodes per storm. Cycles are staggered so at most one churned node
  /// is down at any instant (quorums of correct nodes survive).
  std::size_t max_churn_nodes = 1;
  /// Message names a withholder swallows (votes, acks and subscriptions
  /// still flow, so the attacker looks live while starving data).
  std::vector<std::string> withhold_names = {
      "Bundle", "BundleBatch", "BundlePush", "Stripe",
      "PredisBlock", "Microblock", "MbBatch", "FullBlock"};
  /// When < targets.size(), adversarial kinds (throttle / withhold /
  /// garbage / equivocate) always strike targets[pin_node] instead of a
  /// random target — campaigns use this to hit the initial leader.
  std::size_t pin_node = static_cast<std::size_t>(-1);
};

class FaultScheduler {
 public:
  /// `targets` are the nodes faults apply to (the consensus group);
  /// traffic to or from non-targets (clients) is never disturbed.
  FaultScheduler(Runtime& net, std::vector<NodeId> targets,
                 FaultPlanConfig config);

  /// Install the drop filter on the runtime, plus the delay hook when
  /// the plan holds a jitter or throttle event, and schedule every
  /// planned event. Call before Runtime::start().
  void arm();

  const std::vector<FaultEvent>& plan() const { return plan_; }

  /// Earliest time by which every windowed fault has healed.
  SimTime healed_by() const { return healed_by_; }

  /// Events whose injection time has passed (after a run: all of them).
  std::size_t faults_injected() const { return injected_.load(); }

  /// One line per planned event, for repro logs.
  std::string describe() const;

  /// Equivocation delegate: the harness flips the node's producer into
  /// emitting conflicting bundles. Unset = equivocation events no-op.
  std::function<void(NodeId)> on_equivocate;

  /// Garbage delegate: the harness injects hostile protocol messages as
  /// if sent by the node, spread over the window. Unset = no-op.
  std::function<void(NodeId, SimTime)> on_garbage;

  /// Withhold delegate: fired when a node starts withholding, so the
  /// harness can excuse it from data-availability invariants.
  std::function<void(NodeId)> on_withhold;

 private:
  void build_plan();
  void apply(const FaultEvent& event);
  bool should_drop(NodeId from, NodeId to, const Message& msg);
  SimTime extra_delay(NodeId from, NodeId to);
  bool is_target(NodeId id) const;

  Runtime& net_;
  std::vector<NodeId> targets_;
  FaultPlanConfig cfg_;
  Rng rng_;  ///< Plan construction (exhausted before the run).

  std::vector<FaultEvent> plan_;
  SimTime healed_by_ = 0;
  std::atomic<std::size_t> injected_{0};

  std::mutex m_;  ///< Guards what the drop/delay hooks consult.
  Rng drop_rng_ PREDIS_GUARDED_BY(m_);  ///< Per-message drop/jitter draws.

  // Active-fault state consulted by the installed hooks.
  struct ActiveCut {
    std::set<NodeId> side;
    SimTime until = 0;
  };
  struct ActivePair {
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    SimTime until = 0;
  };
  struct ActiveThrottle {
    NodeId node = kNoNode;
    SimTime delay = 0;
    SimTime until = 0;
  };
  struct ActiveWithhold {
    NodeId node = kNoNode;
    SimTime until = 0;
  };
  std::vector<ActiveCut> cuts_ PREDIS_GUARDED_BY(m_);
  std::vector<ActivePair> pairs_ PREDIS_GUARDED_BY(m_);
  std::vector<ActiveThrottle> throttles_ PREDIS_GUARDED_BY(m_);
  std::vector<ActiveWithhold> withholds_ PREDIS_GUARDED_BY(m_);
  std::set<std::string> withhold_names_;
  double drop_p_ PREDIS_GUARDED_BY(m_) = 0.0;
  SimTime drop_until_ PREDIS_GUARDED_BY(m_) = 0;
  SimTime jitter_max_ PREDIS_GUARDED_BY(m_) = 0;
  SimTime jitter_until_ PREDIS_GUARDED_BY(m_) = 0;
};

}  // namespace predis::runtime
