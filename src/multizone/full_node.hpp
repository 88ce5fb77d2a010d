// Multi-Zone full node: the actor implementing §IV — Algorithm 1
// (subscribe / become a relayer on join), Algorithm 2 (relayerAlive
// processing and redundancy trimming), stripe reception/forwarding,
// bundle decoding, Predis-block forwarding and block reconstruction,
// relayer-count maintenance, heartbeats, graceful leave, and
// cross-zone digest backup (§IV-F).
#pragma once

#include <bitset>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/block_tracer.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "core/recovery.hpp"
#include "multizone/directory.hpp"
#include "multizone/messages.hpp"
#include "runtime/runtime.hpp"
#include "txpool/transaction.hpp"

namespace predis::multizone {

class MultiZoneFullNode : public runtime::Actor {
 public:
  MultiZoneFullNode(runtime::Runtime& net, NodeId self, MultiZoneConfig config,
                    ZoneDirectory& directory, std::uint64_t seed = 1);

  void on_start() override;
  /// Crash-recovery (§IV-E rejoin): refresh every stripe subscription —
  /// providers may have dropped us on heartbeat timeout during the
  /// outage — and probe for peers' digests so the bundle backlog pull
  /// starts immediately instead of at the next digest tick.
  void on_restart() override;
  void on_message(NodeId from, const runtime::MsgPtr& msg) override;

  /// Fired when this node can rebuild a freshly announced block (it has
  /// the Predis block and every referenced bundle).
  std::function<void(const PredisBlock&, SimTime)> on_block_complete;

  /// Fired when a bundle is first decoded/stored at this node.
  std::function<void(const BundleHeader&, SimTime)> on_bundle_decoded;

  /// Attach the shared lifecycle tracer (may be null): records bundle
  /// decode, block reconstruction and every repair pull at this node.
  void set_tracer(BlockTracer* tracer) { tracer_ = tracer; }

  /// Graceful departure per §IV-E; the caller marks the network node
  /// down afterwards.
  void leave();

  // --- Introspection (tests / experiments) -----------------------------

  bool is_relayer() const { return !direct_.empty(); }
  const std::set<StripeIndex>& direct_stripes() const { return direct_; }
  NodeId provider_of(StripeIndex s) const { return providers_[s]; }
  std::size_t subscriber_count() const;
  std::size_t decoded_bundles() const { return decoded_count_; }
  /// Bundles recovered by actually Reed-Solomon-decoding stripe bytes
  /// (real_stripe_payloads mode; always <= decoded_bundles()).
  std::size_t byte_decoded_bundles() const { return byte_decoded_count_; }
  std::size_t decode_failures() const { return decode_failures_; }
  std::size_t stripe_verify_failures() const {
    return stripe_verify_failures_;
  }
  /// BundlePush bundles rejected because they match no published record.
  std::size_t push_verify_failures() const { return push_verify_failures_; }
  BundleHeight contiguous_height(std::size_t chain) const {
    return contiguous_[chain];
  }
  /// Relayers this node currently believes are active in its zone.
  std::size_t known_active_relayers() const;
  /// Bundles with stripe state held: still decoding, or decoded with
  /// stripes still to arrive.
  std::size_t stripe_records() const { return stripes_.size(); }

 private:
  /// What decoding a bundle needs; dropped once it decodes.
  struct PartialBundle {
    BundleHeader header;  ///< The first one received.
    /// Real stripe bytes, indexed by stripe index (real_stripe_payloads
    /// mode only; empty otherwise).
    std::vector<std::shared_ptr<const erasure::Stripe>> bodies;
  };
  /// One bundle's stripes, from the first until the last of the n_c
  /// arrives (then the chain entry's `stripes_done` takes over).
  struct StripeState {
    std::bitset<256> have;  ///< n_c <= 256: the codec rejects more.
    std::unique_ptr<PartialBundle> partial;  ///< Null once decoded.
  };
  /// A bundle this node holds, by (producer, height).
  struct ChainEntry {
    Hash32 hash;
    /// All n_c stripes arrived and the stripe record is gone: any
    /// further stripe of this bundle is a duplicate.
    bool stripes_done = false;
  };
  struct RelayerState {
    std::set<StripeIndex> relayed;
    SimTime join_time = 0;
    SimTime last_seen = 0;
  };

  std::size_t k() const { return cfg_.n_consensus - cfg_.f; }
  SimTime now() const { return net_.now(); }

  // Join / subscription management.
  void bootstrap();
  void run_algorithm1(const std::vector<RelayerInfo>& relayers);
  void send_subscribe(NodeId target, std::vector<StripeIndex> stripes);
  void subscribe_to_consensus(const std::vector<StripeIndex>& stripes);
  void resubscribe(StripeIndex stripe);
  void announce_relayer();

  // Message handlers.
  void on_subscribe(NodeId from, const SubscribeMsg& msg);
  void on_accept(NodeId from, const AcceptSubscribeMsg& msg);
  void on_reject(NodeId from, const RejectSubscribeMsg& msg);
  void on_unsubscribe(NodeId from, const UnsubscribeMsg& msg);
  void on_relayer_alive(NodeId from, const RelayerAliveMsg& msg);
  void on_stripe(const runtime::MsgPtr& received, const StripeMsg& msg);
  void on_predis_block(NodeId from, const PredisBlockMsg& msg);
  void on_leave(NodeId from);
  void on_digest(NodeId from, const DigestMsg& msg);
  void forward_client_txs(const ClientRequestMsg& msg);
  void on_pull(NodeId from, const BundlePullMsg& msg);
  void on_push(NodeId from, const BundlePushMsg& msg);
  void on_pull_miss(NodeId from, const BundleMissMsg& msg);

  // Data plane.
  [[nodiscard]] bool try_byte_decode(const PartialBundle& partial);
  void store_bundle_record(const BundleHeader& header);
  /// The chain entry at the header's (producer, height), or null.
  ChainEntry* chain_entry(const BundleHeader& header);
  void try_reconstruct_blocks();
  /// Send one repair pull for the block's missing bundles at the
  /// current ladder rung (advances the rung).
  void send_pull(const Hash32& block_hash);
  /// Arm the recurring exponential pull schedule for a pending block.
  void schedule_pull(const Hash32& block_hash);

  // Periodic duties.
  void tick_relayer_alive();
  void tick_relayer_check();
  void tick_heartbeat();
  void tick_digest();

  void zone_multicast(const runtime::MsgPtr& msg);
  /// Relayer fan-out with jittered per-child pacing (see .cpp).
  void paced_fanout(const std::vector<NodeId>& children,
                    runtime::MsgPtr msg);
  std::vector<NodeId> subscriber_union() const;

  runtime::Runtime& net_;
  NodeId self_;
  MultiZoneConfig cfg_;
  ZoneDirectory& dir_;
  BlockTracer* tracer_ = nullptr;
  Rng rng_;
  // Jittered capped backoff for repair pulls (replaces the old fixed
  // power-of-two ladder): randomized delays desynchronize the pull
  // herd after a partition heals, which trims the distribution p99.
  core::BackoffPolicy pull_backoff_;
  /// Flat jittered quantum spacing successive fan-out sends.
  core::BackoffPolicy fanout_pacing_;
  std::uint32_t zone_ = 0;
  SimTime join_time_ = 0;
  bool left_ = false;

  // Subscription state.
  std::vector<NodeId> providers_;            ///< Per stripe index.
  std::vector<NodeId> pending_;              ///< Outstanding subscribe.
  std::vector<std::set<NodeId>> subscribers_;  ///< Per stripe index.
  std::set<StripeIndex> direct_;  ///< Stripes received from consensus.
  std::map<NodeId, RelayerState> known_relayers_ PREDIS_MSG_DERIVED;
  std::map<NodeId, SimTime> last_heard_;

  // Data plane state.
  std::vector<SimTime> last_stripe_at_;   ///< Per stripe index.
  std::vector<SimTime> provider_since_;   ///< When current provider set.
  SimTime last_any_stripe_ = 0;
  std::unordered_map<Hash32, StripeState, Hash32Hasher> stripes_
      PREDIS_MSG_DERIVED;
  std::vector<std::map<BundleHeight, ChainEntry>> chains_;
  std::vector<BundleHeight> contiguous_;
  std::size_t decoded_count_ = 0;
  std::size_t byte_decoded_count_ = 0;
  std::size_t decode_failures_ = 0;
  std::size_t push_verify_failures_ = 0;
  std::size_t stripe_verify_failures_ = 0;
  erasure::StripeCodec codec_;  ///< (k, n_c) codec for real payloads.

  struct PendingBlock {
    PredisBlock block;
    NodeId sender = kNoNode;
    std::size_t pull_attempts = 0;
  };
  // Iterated by try_reconstruct_blocks(), which emits completion
  // callbacks and trace records: keep the order key-sorted (D1).
  std::map<Hash32, PendingBlock> pending_blocks_ PREDIS_MSG_DERIVED;
  std::set<Hash32> seen_blocks_ PREDIS_MSG_DERIVED;

  NodeId backup_peer_ = kNoNode;  ///< Neighbour-zone digest partner.
};

}  // namespace predis::multizone
