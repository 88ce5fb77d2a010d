// Byzantine adversary actors for the swarm campaign.
//
// Each AttackKind is one attacker archetype from the graceful-
// degradation study: equivocating producers, data withholders, slow
// (performance-adversarial) leaders that stay just under the view
// timeout, hostile garbage injectors and churn storms. configure_attack
// maps a kind onto the seed-deterministic fault scheduler
// (runtime/faults.hpp), so an attack campaign is exactly as reproducible
// as a crash/partition swarm run.
//
// The HostileInjector speaks every protocol's wire dialect and obeys
// the forgeability rule: it only sends messages a real network attacker
// could produce — values signed with the attacker's OWN key, absurd
// indices/heights/rounds, certificates whose (modeled) aggregate
// signature does not verify, impersonation attempts — never another
// node's valid signature. Handlers must survive all of it; the D4 lint
// rule and the regression tests in tests/core/test_adversary.cpp pin
// the boundary checks the injector exercises.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "runtime/runtime.hpp"
#include "runtime/faults.hpp"

namespace predis::core {

enum class AttackKind {
  kNone,        ///< Clean baseline run.
  kEquivocate,  ///< Conflicting bundles from one producer.
  kWithhold,    ///< Data-plane messages swallowed (votes still flow).
  kThrottle,    ///< Slow leader: outbound delay just under timeout.
  kGarbage,     ///< Hostile protocol messages (HostileInjector).
  kChurnStorm,  ///< Repeated down/up cycles on a node set.
};

/// Number of AttackKind values; to_string() is tested against it so a
/// new attack cannot ship without a printable name.
inline constexpr std::size_t kAttackKindCount = 6;

const char* to_string(AttackKind kind);

/// Parse a campaign flag ("throttle", "withhold", ...); nullopt on junk.
std::optional<AttackKind> attack_from_flag(const std::string& flag);

/// Shape `plan` into a single-attack campaign: disable every baseline
/// fault kind, enable exactly `attack`, and pin node-targeted attacks
/// onto targets[0] — the initial PBFT/HotStuff leader, which is the
/// adversarial placement Raptr-style analyses care about. kChurnStorm
/// keeps random membership (a storm is not leader-specific); kNone
/// yields an empty plan (clean baseline with identical scheduling).
void configure_attack(runtime::FaultPlanConfig& plan, AttackKind attack,
                      std::size_t events);

/// Protocol-aware hostile-message injector. One instance per run; every
/// burst() derives its junk values from a deterministic nonce so runs
/// replay byte-for-byte. `group` is the consensus group (network ids);
/// `attacker` must be a member — the injector sends with the attacker's
/// identity and signs with the attacker's own key where a signature is
/// part of the message.
class HostileInjector {
 public:
  HostileInjector(runtime::Runtime& net, Protocol protocol,
                  std::vector<NodeId> group);

  /// Emit one burst of hostile consensus-layer messages from `attacker`
  /// to the rest of the group. Returns messages sent this burst.
  std::size_t burst(NodeId attacker);

  std::size_t injected() const { return injected_; }

 private:
  std::size_t index_of(NodeId id) const;
  void shoot(NodeId from, NodeId to, runtime::MsgPtr msg);

  runtime::Runtime* net_;
  Protocol protocol_;
  std::vector<NodeId> group_;
  std::uint64_t nonce_ = 0;
  std::size_t injected_ = 0;
};

/// Multi-Zone gossip dialect: one burst of hostile distribution-layer
/// messages (tampered stripes with absurd indices, referral loops to
/// nonexistent children, unverifiable bundle pushes, lying digests,
/// junk subscriptions) from full-node `attacker` to `peers`.
/// `n_consensus` bounds the legitimate stripe-index space the garbage
/// deliberately leaves. Returns messages sent.
std::size_t hostile_gossip_burst(runtime::Runtime& net, NodeId attacker,
                                 const std::vector<NodeId>& peers,
                                 std::size_t n_consensus,
                                 std::uint64_t nonce);

}  // namespace predis::core
