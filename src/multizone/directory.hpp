// Experiment-wide Multi-Zone bookkeeping.
//
// SUBSTITUTION (documented in DESIGN.md): in the paper, a joining node
// registers through an on-chain transaction, and join order is derived
// from the position of registration transactions in the ledger
// (§IV-C). Inside one simulated process we keep that registry here:
// zone membership, join order, and the consensus-node list. Data still
// flows only through simulated messages.
//
// The directory also acts as the stripe "decode oracle": producers
// publish each bundle by header hash, and a node that has gathered
// n_c − f stripes of that bundle materializes it from here — the real
// Reed-Solomon algebra is implemented and tested in src/erasure; the
// network layer simulates stripe *bytes* (sizes) only.
//
// Registration and the member/consensus lists are fixed before the run
// starts; only the bundle store mutates while traffic flows, so it
// alone takes a lock (full nodes publish/decode from different workers
// on the threaded Runtime backend).
#pragma once

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bundle/bundle.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace predis::multizone {

class ZoneDirectory {
 public:
  explicit ZoneDirectory(std::size_t n_zones) : zones_(n_zones) {}

  std::size_t zone_count() const { return zones_.size(); }

  void set_consensus_nodes(std::vector<NodeId> ids) {
    consensus_ = std::move(ids);
  }
  const std::vector<NodeId>& consensus_nodes() const { return consensus_; }

  /// Register a full node; join order is registration order.
  void register_node(NodeId id, std::uint32_t zone, SimTime join_time) {
    zones_[zone].push_back(id);
    info_[id] = {zone, join_time};
  }

  const std::vector<NodeId>& members(std::uint32_t zone) const {
    return zones_[zone];
  }

  std::uint32_t zone_of(NodeId id) const { return info_.at(id).zone; }
  SimTime join_time(NodeId id) const { return info_.at(id).join_time; }

  /// Membership test for message-carried node ids (referral children,
  /// relayed relayer ids, ...). Anything off the wire must pass this
  /// before it is used as a send target — Network::send on an
  /// unregistered id is fatal.
  bool has_node(NodeId id) const { return info_.count(id) != 0; }

  /// Zone members registered strictly before `id` (its bootstrap peers).
  std::vector<NodeId> earlier_members(NodeId id) const {
    const auto& zone = zones_[zone_of(id)];
    std::vector<NodeId> out;
    for (NodeId member : zone) {
      if (member == id) break;
      out.push_back(member);
    }
    return out;
  }

  // --- Bundle decode oracle ---------------------------------------------

  /// Every full node publishes what it decodes: a bundle already stored
  /// is neither copied nor allocated again.
  void publish_bundle(const Bundle& bundle) {
    std::lock_guard<std::mutex> lock(store_m_);
    store_.try_emplace(bundle.header.hash(), bundle);
  }
  void publish_bundle(Bundle&& bundle) {
    std::lock_guard<std::mutex> lock(store_m_);
    store_.try_emplace(bundle.header.hash(), std::move(bundle));
  }

  /// Pointer into the store: unordered_map nodes are stable, so the
  /// pointer stays valid across later inserts; the brief lock only
  /// orders the lookup against concurrent publishes.
  const Bundle* bundle(const Hash32& header_hash) const {
    std::lock_guard<std::mutex> lock(store_m_);
    const auto it = store_.find(header_hash);
    return it == store_.end() ? nullptr : &it->second;
  }

 private:
  struct Info {
    std::uint32_t zone = 0;
    SimTime join_time = 0;
  };

  std::vector<std::vector<NodeId>> zones_;
  std::map<NodeId, Info> info_;
  std::vector<NodeId> consensus_;
  mutable std::mutex store_m_;
  std::unordered_map<Hash32, Bundle, Hash32Hasher> store_
      PREDIS_GUARDED_BY(store_m_);
};

struct MultiZoneConfig {
  std::size_t n_consensus = 4;  ///< n_c == number of stripes.
  std::size_t f = 1;            ///< Decode threshold k = n_c - f.
  std::size_t n_zones = 3;
  std::size_t max_subscribers = 24;  ///< Paper's Fig. 8 fairness cap.
  /// Cap on direct subscribers per consensus node. Multi-Zone's whole
  /// point is that consensus nodes serve roughly one relayer per zone;
  /// rejected subscribers are referred to existing relayers (Fig. 3).
  /// 0 = auto: n_zones + 2.
  std::size_t consensus_max_subscribers = 0;

  std::size_t effective_consensus_cap() const {
    if (consensus_max_subscribers != 0) return consensus_max_subscribers;
    // One relayer per zone is the design point (§IV-D); +1 slot of
    // headroom lets a replacement subscribe before its predecessor
    // unsubscribes. More than this saturates the consensus uplink with
    // stripe streams at high load.
    return n_zones + 1;
  }
  SimTime relayer_alive_interval = milliseconds(500);
  SimTime relayer_check_interval = milliseconds(1200);
  SimTime heartbeat_interval = milliseconds(500);
  SimTime heartbeat_timeout = milliseconds(1600);
  SimTime digest_interval = milliseconds(1000);
  /// Missing-bundle pull delay after a block announcement. Stripes of
  /// just-cut bundles are typically still in flight down the multicast
  /// tree (one 25 ms hop per level), so pulling too eagerly creates a
  /// bandwidth spiral of full-bundle pushes.
  SimTime pull_timeout = milliseconds(700);
  /// Ship real erasure-coded stripe bytes through StripeMsg::payload:
  /// consensus nodes StripeCodec-encode each bundle, full nodes verify
  /// stripes against header.stripe_root and Reed-Solomon-decode instead
  /// of using the directory's decode oracle. Off by default — wire
  /// sizes and event traces stay identical either way; this switches
  /// who does the byte-level work.
  bool real_stripe_payloads = false;
};

}  // namespace predis::multizone
