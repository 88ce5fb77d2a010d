#include "multizone/full_node.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/thread_annotations.hpp"

namespace predis::multizone {

namespace {

/// Most bundles a digest-gap pull walks per chain per digest message:
/// heights in a DigestMsg are peer-controlled, so the backlog walk is
/// clamped and the next digest round picks up the remainder.
constexpr BundleHeight kMaxDigestSpan = 16;

/// Most bundles a block announcement may confirm per chain. Announced
/// cut/prev heights are sender-controlled bytes: without this cap a
/// single forged PredisBlockMsg with cut_heights near 2^40 pins the
/// node in a multi-billion-step gap walk on every pull cycle. Honest
/// cuts advance by the handful of bundles produced per block interval,
/// so the bound is generous.
constexpr BundleHeight kMaxBlockSpan = 1024;

}  // namespace

MultiZoneFullNode::MultiZoneFullNode(runtime::Runtime& net, NodeId self,
                                     MultiZoneConfig config,
                                     ZoneDirectory& directory,
                                     std::uint64_t seed)
    : net_(net),
      self_(self),
      cfg_(config),
      dir_(directory),
      rng_(seed ^ (0xd1ce5bedULL * (self + 1))),
      providers_(config.n_consensus, kNoNode),
      pending_(config.n_consensus, kNoNode),
      subscribers_(config.n_consensus),
      last_stripe_at_(config.n_consensus, 0),
      provider_since_(config.n_consensus, 0),
      chains_(config.n_consensus),
      contiguous_(config.n_consensus, 0),
      codec_(config.n_consensus - config.f, config.n_consensus) {
  zone_ = dir_.zone_of(self_);
  join_time_ = dir_.join_time(self_);
  // Repair-pull pacing: same base grace as before (stripes of a fresh
  // cut are usually still in flight), but jittered and capped instead
  // of a lock-step power-of-two ladder.
  pull_backoff_.base = cfg_.pull_timeout;
  pull_backoff_.cap = cfg_.pull_timeout * 8;
  // Fan-out pacing quantum: flat (base == cap), jitter from the shared
  // BackoffPolicy — each successive child send is spaced by one
  // jittered quantum instead of the whole set landing on the uplink
  // queue in one deterministic burst.
  fanout_pacing_.base = milliseconds(1);
  fanout_pacing_.cap = milliseconds(1);
}

void MultiZoneFullNode::paced_fanout(const std::vector<NodeId>& children,
                                     runtime::MsgPtr msg) {
  // The first child keeps the zero-delay critical path; later children
  // are staggered with the same jittered-BackoffPolicy pacing the
  // digest pulls use, so set-iteration order no longer fixes which
  // child always drains the uplink queue last (the distribution-stage
  // p99 tail left over from the backoff-unification pass).
  SimTime at = 0;
  for (NodeId child : children) {
    if (at == 0) {
      net_.send(self_, child, msg);
    } else {
      PREDIS_FIRE_AND_FORGET(net_.schedule(self_, at, [this, child, msg] {
        if (left_) return;
        net_.send(self_, child, msg);
      }));
    }
    at += fanout_pacing_.delay(0, rng_);
  }
}

void MultiZoneFullNode::on_start() {
  // Join at the registered time: nodes enter the network one after
  // another (§IV-C derives join order from on-chain registration), so
  // Algorithm 1 sees the relayers that earlier members established.
  PREDIS_FIRE_AND_FORGET(net_.schedule(
      self_, std::max<SimTime>(0, join_time_ - now()),
      [this] { bootstrap(); }));

  // The tick chains below re-arm themselves and every callback starts
  // with an `if (left_) return;` liveness guard, so no handles are kept.
  PREDIS_FIRE_AND_FORGET(net_.schedule(self_, cfg_.relayer_alive_interval,
                                       [this] { tick_relayer_alive(); }));
  PREDIS_FIRE_AND_FORGET(net_.schedule(
      self_,
      cfg_.relayer_check_interval +
          static_cast<SimTime>(rng_.next_below(
              static_cast<std::uint64_t>(cfg_.relayer_check_interval))),
      [this] { tick_relayer_check(); }));
  PREDIS_FIRE_AND_FORGET(net_.schedule(self_, cfg_.heartbeat_interval,
                                       [this] { tick_heartbeat(); }));
  PREDIS_FIRE_AND_FORGET(net_.schedule(self_, cfg_.digest_interval,
                                       [this] { tick_digest(); }));
}

void MultiZoneFullNode::on_restart() {
  if (left_) return;
  // Refresh every stripe subscription: a provider that timed out our
  // heartbeats during the outage has silently dropped us from its
  // streams. Re-sending Subscribe to the current provider is idempotent
  // (it just re-registers us); stripes with no provider walk the
  // resubscribe ladder again.
  for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) {
    if (providers_[s] != kNoNode) {
      send_subscribe(providers_[s], {s});
    } else if (pending_[s] == kNoNode) {
      resubscribe(s);
    }
  }
  // Pull the bundle backlog now: ask the cross-zone backup partner and
  // a couple of zone neighbours for their digests instead of waiting up
  // to a full digest_interval for the next periodic one.
  auto probe = std::make_shared<DigestRequestMsg>();
  if (backup_peer_ != kNoNode) net_.send(self_, backup_peer_, probe);
  const auto& members = dir_.members(zone_);
  std::size_t sent = 0;
  for (std::size_t i = 0; i < members.size() && sent < 2; ++i) {
    const NodeId peer = members[(self_ + 1 + i) % members.size()];
    if (peer == self_) continue;
    net_.send(self_, peer, probe);
    ++sent;
  }
}

void MultiZoneFullNode::bootstrap() {
  const std::vector<NodeId> earlier = dir_.earlier_members(self_);
  if (earlier.empty()) {
    // First node of the zone: subscribe every stripe directly to the
    // consensus nodes (node A in Fig. 3(a)).
    std::vector<StripeIndex> all;
    for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) all.push_back(s);
    subscribe_to_consensus(all);
    return;
  }
  // Ask the most recently joined member for the current relayer set.
  net_.send(self_, earlier.back(), std::make_shared<GetRelayersMsg>());
}

void MultiZoneFullNode::run_algorithm1(
    const std::vector<RelayerInfo>& relayers) {
  // S_p starts as every stripe with no provider yet.
  std::set<StripeIndex> sp;
  for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) {
    if (providers_[s] == kNoNode && pending_[s] == kNoNode) sp.insert(s);
  }

  for (const auto& relayer : relayers) {
    if (sp.empty()) break;
    if (relayer.id == self_) continue;
    known_relayers_[relayer.id] =
        RelayerState{{relayer.relayed.begin(), relayer.relayed.end()},
                     relayer.join_time, now()};
    // Subscribe for at most half of each relayer's stripes (line 5),
    // but always at least one so single-stripe relayers are usable.
    const std::size_t cap = std::max<std::size_t>(1, relayer.relayed.size() / 2);
    std::vector<StripeIndex> take;
    for (StripeIndex s : relayer.relayed) {
      if (take.size() >= cap) break;
      if (sp.count(s) != 0) {
        take.push_back(s);
        sp.erase(s);
      }
    }
    if (!take.empty()) send_subscribe(relayer.id, take);
  }

  // Leftover stripes go straight to the consensus nodes; acceptance
  // makes this node a relayer (lines 9-17).
  if (!sp.empty()) {
    subscribe_to_consensus({sp.begin(), sp.end()});
  }
}

void MultiZoneFullNode::send_subscribe(NodeId target,
                                       std::vector<StripeIndex> stripes) {
  for (StripeIndex s : stripes) pending_[s] = target;
  auto msg = std::make_shared<SubscribeMsg>();
  msg->stripes = std::move(stripes);
  net_.send(self_, target, std::move(msg));
}

void MultiZoneFullNode::subscribe_to_consensus(
    const std::vector<StripeIndex>& stripes) {
  const auto& consensus = dir_.consensus_nodes();
  // Stripe i is served by consensus node i (§IV-D).
  for (StripeIndex s : stripes) {
    if (s >= consensus.size()) continue;
    send_subscribe(consensus[s], {s});
  }
}

void MultiZoneFullNode::resubscribe(StripeIndex stripe) {
  providers_[stripe] = kNoNode;
  pending_[stripe] = kNoNode;
  // Provider ladder: (1) a relayer advertising this stripe; (2) any
  // known zone relayer — relayers receive every stripe stream, so they
  // can serve even streams they are not consensus-direct for; (3) a
  // random zone member (its reject will refer us onward); (4) the
  // consensus node that originates the stripe.
  for (const auto& [id, state] : known_relayers_) {
    if (id != self_ && state.relayed.count(stripe) != 0) {
      send_subscribe(id, {stripe});
      return;
    }
  }
  if (!known_relayers_.empty()) {
    auto it = known_relayers_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng_.next_below(known_relayers_.size())));
    if (it->first != self_) {
      send_subscribe(it->first, {stripe});
      return;
    }
  }
  const auto& members = dir_.members(zone_);
  if (members.size() > 1 && rng_.chance(0.5)) {
    NodeId peer = self_;
    while (peer == self_) {
      peer = members[rng_.next_below(members.size())];
    }
    send_subscribe(peer, {stripe});
    return;
  }
  subscribe_to_consensus({stripe});
}

void MultiZoneFullNode::announce_relayer() {
  auto msg = std::make_shared<RelayerAliveMsg>();
  msg->relayer = self_;
  msg->relayed.assign(direct_.begin(), direct_.end());
  msg->join_time = join_time_;
  zone_multicast(msg);
}

void MultiZoneFullNode::zone_multicast(const runtime::MsgPtr& msg) {
  for (NodeId member : dir_.members(zone_)) {
    if (member != self_) net_.send(self_, member, msg);
  }
}

std::size_t MultiZoneFullNode::subscriber_count() const {
  std::set<NodeId> unique;
  for (const auto& set : subscribers_) {
    unique.insert(set.begin(), set.end());
  }
  return unique.size();
}

std::size_t MultiZoneFullNode::known_active_relayers() const {
  std::size_t count = is_relayer() ? 1 : 0;
  const SimTime horizon = 3 * cfg_.relayer_alive_interval;
  for (const auto& [id, state] : known_relayers_) {
    if (!state.relayed.empty() &&
        (state.last_seen == 0 || now() - state.last_seen <= horizon)) {
      ++count;
    }
  }
  return count;
}

void MultiZoneFullNode::on_message(NodeId from, const runtime::MsgPtr& msg) {
  if (left_) return;
  last_heard_[from] = now();

  if (const auto* m = dynamic_cast<const ClientRequestMsg*>(msg.get())) {
    forward_client_txs(*m);
    return;
  }
  if (const auto* m = dynamic_cast<const StripeMsg*>(msg.get())) {
    on_stripe(msg, *m);
  } else if (const auto* m = dynamic_cast<const PredisBlockMsg*>(msg.get())) {
    on_predis_block(from, *m);
  } else if (const auto* m = dynamic_cast<const SubscribeMsg*>(msg.get())) {
    on_subscribe(from, *m);
  } else if (const auto* m =
                 dynamic_cast<const AcceptSubscribeMsg*>(msg.get())) {
    on_accept(from, *m);
  } else if (const auto* m =
                 dynamic_cast<const RejectSubscribeMsg*>(msg.get())) {
    on_reject(from, *m);
  } else if (const auto* m = dynamic_cast<const UnsubscribeMsg*>(msg.get())) {
    on_unsubscribe(from, *m);
  } else if (const auto* m =
                 dynamic_cast<const RelayerAliveMsg*>(msg.get())) {
    on_relayer_alive(from, *m);
  } else if (dynamic_cast<const GetRelayersMsg*>(msg.get()) != nullptr) {
    auto reply = std::make_shared<RelayersMsg>();
    if (is_relayer()) {
      reply->relayers.push_back(
          RelayerInfo{self_, {direct_.begin(), direct_.end()}, join_time_});
    }
    for (const auto& [id, state] : known_relayers_) {
      if (state.relayed.empty()) continue;
      reply->relayers.push_back(RelayerInfo{
          id, {state.relayed.begin(), state.relayed.end()}, state.join_time});
    }
    net_.send(self_, from, std::move(reply));
  } else if (const auto* m = dynamic_cast<const RelayersMsg*>(msg.get())) {
    run_algorithm1(m->relayers);
  } else if (dynamic_cast<const LeaveMsg*>(msg.get()) != nullptr) {
    on_leave(from);
  } else if (dynamic_cast<const DigestRequestMsg*>(msg.get()) != nullptr) {
    // Rejoin probe: answer with our digest immediately so the restarted
    // peer's backlog pull starts without waiting for the digest tick.
    auto digest = std::make_shared<DigestMsg>();
    digest->heights = contiguous_;
    net_.send(self_, from, std::move(digest));
  } else if (const auto* m = dynamic_cast<const DigestMsg*>(msg.get())) {
    on_digest(from, *m);
  } else if (const auto* m = dynamic_cast<const BundlePullMsg*>(msg.get())) {
    on_pull(from, *m);
  } else if (const auto* m = dynamic_cast<const BundlePushMsg*>(msg.get())) {
    on_push(from, *m);
  } else if (const auto* m = dynamic_cast<const BundleMissMsg*>(msg.get())) {
    on_pull_miss(from, *m);
  } else if (const auto* m = dynamic_cast<const HeartbeatMsg*>(msg.get())) {
    // Echo pings (only pings! echoing echoes would loop forever) so the
    // pinging subscriber's liveness view of us refreshes even when no
    // data is flowing.
    if (!m->reply) {
      auto echo = std::make_shared<HeartbeatMsg>();
      echo->reply = true;
      net_.send(self_, from, std::move(echo));
    }
  }
}

void MultiZoneFullNode::on_subscribe(NodeId from, const SubscribeMsg& msg) {
  std::vector<StripeIndex> accepted;
  std::vector<StripeIndex> rejected;
  const bool full = subscriber_count() >= cfg_.max_subscribers;
  for (StripeIndex s : msg.stripes) {
    if (s >= cfg_.n_consensus) continue;
    const bool can_serve = providers_[s] != kNoNode || pending_[s] != kNoNode;
    if (!full && can_serve) {
      accepted.push_back(s);
      subscribers_[s].insert(from);
    } else {
      rejected.push_back(s);
    }
  }
  if (!accepted.empty()) {
    auto ok = std::make_shared<AcceptSubscribeMsg>();
    ok->stripes = std::move(accepted);
    ok->from_consensus = false;
    net_.send(self_, from, std::move(ok));
  }
  if (!rejected.empty()) {
    auto no = std::make_shared<RejectSubscribeMsg>();
    no->stripes = std::move(rejected);
    no->children = subscriber_union();
    net_.send(self_, from, std::move(no));
  }
}

void MultiZoneFullNode::on_accept(NodeId from,
                                  const AcceptSubscribeMsg& msg) {
  const bool was_relayer = is_relayer();
  for (StripeIndex s : msg.stripes) {
    if (s >= cfg_.n_consensus) continue;
    if (pending_[s] == from) pending_[s] = kNoNode;
    if (providers_[s] != kNoNode && providers_[s] != from) {
      // Replacing an existing provider: tell the old one.
      auto un = std::make_shared<UnsubscribeMsg>();
      un->stripes = {s};
      net_.send(self_, providers_[s], std::move(un));
      direct_.erase(s);
    }
    providers_[s] = from;
    provider_since_[s] = now();
    if (msg.from_consensus) direct_.insert(s);
  }
  if (!was_relayer && is_relayer()) {
    announce_relayer();  // lines 16-18 of Algorithm 1
  }
}

void MultiZoneFullNode::on_reject(NodeId from,
                                  const RejectSubscribeMsg& msg) {
  for (StripeIndex s : msg.stripes) {
    if (s >= cfg_.n_consensus) continue;
    if (providers_[s] == from) {
      // Late reject = eviction by an overloaded provider.
      direct_.erase(s);
      resubscribe(s);
      continue;
    }
    if (pending_[s] != from) continue;
    pending_[s] = kNoNode;
    // Retry with a referred child, another relayer, or consensus. The
    // referral ids arrive off the wire; only follow ones the directory
    // knows (a hostile reject could name arbitrary node ids).
    for (NodeId child : msg.children) {
      if (child != self_ && dir_.has_node(child)) {
        send_subscribe(child, {s});
        break;
      }
    }
    if (pending_[s] == kNoNode && providers_[s] == kNoNode) {
      resubscribe(s);
    }
  }
}

void MultiZoneFullNode::on_unsubscribe(NodeId from,
                                       const UnsubscribeMsg& msg) {
  for (StripeIndex s : msg.stripes) {
    if (s < cfg_.n_consensus) subscribers_[s].erase(from);
  }
}

void MultiZoneFullNode::on_relayer_alive(NodeId /*from*/,
                                         const RelayerAliveMsg& msg) {
  if (msg.relayer == self_) return;
  // The relayer id arrives off the wire and later becomes a subscribe
  // target; ignore announcements about nodes the directory never
  // registered.
  if (!dir_.has_node(msg.relayer)) return;
  // The stripe list arrives off the wire: drop out-of-range indices
  // before they reach providers_ / direct_ (or get cached in
  // known_relayers_ and replayed later by on_leave).
  std::set<StripeIndex> relayed;
  for (StripeIndex s : msg.relayed) {
    if (s < cfg_.n_consensus) relayed.insert(s);
  }
  auto& state = known_relayers_[msg.relayer];
  state.relayed = relayed;
  state.join_time = msg.join_time;
  state.last_seen = now();

  if (relayed.empty()) {
    // The sender demoted itself (lines 4-5 of Algorithm 2); replace it
    // wherever it was our provider.
    for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) {
      if (providers_[s] == msg.relayer) resubscribe(s);
    }
    known_relayers_.erase(msg.relayer);
    return;
  }

  if (is_relayer()) {
    // Redundancy trimming (lines 7-13): when two relayers both receive
    // a stripe straight from consensus, the earlier-joined one hands
    // the overlap to the later one — and anyone defers to a relayer
    // that serves exactly one stripe (the |P_m| = 1 clause). Keep at
    // least one consensus-direct stripe, preferring self % n_c so the
    // surviving direct stripes spread across consensus nodes instead of
    // piling onto one.
    std::vector<StripeIndex> overlap;
    for (StripeIndex s : relayed) {
      if (direct_.count(s) != 0) overlap.push_back(s);
    }
    if (!overlap.empty() &&
        (join_time_ <= msg.join_time || relayed.size() == 1)) {
      const auto preferred =
          static_cast<StripeIndex>(self_ % cfg_.n_consensus);
      // Give up the preferred stripe last.
      std::stable_partition(overlap.begin(), overlap.end(),
                            [preferred](StripeIndex s) {
                              return s != preferred;
                            });
      bool changed = false;
      for (StripeIndex s : overlap) {
        if (direct_.size() <= 1) break;
        // Move stripe s: unsubscribe its consensus origin, take it
        // from the later relayer instead.
        auto un = std::make_shared<UnsubscribeMsg>();
        un->stripes = {s};
        net_.send(self_, providers_[s], std::move(un));
        direct_.erase(s);
        providers_[s] = kNoNode;
        send_subscribe(msg.relayer, {s});
        changed = true;
      }
      if (changed) announce_relayer();
    }
  }

  // Lines 14-18: if our provider of a stripe stopped relaying it, move
  // the subscription to this relayer.
  for (StripeIndex s : relayed) {
    const NodeId provider = providers_[s];
    if (provider == kNoNode || provider == msg.relayer) continue;
    const auto it = known_relayers_.find(provider);
    if (it != known_relayers_.end() && it->second.relayed.count(s) == 0 &&
        direct_.count(s) == 0) {
      auto un = std::make_shared<UnsubscribeMsg>();
      un->stripes = {s};
      net_.send(self_, provider, std::move(un));
      providers_[s] = kNoNode;
      send_subscribe(msg.relayer, {s});
    }
  }
}

void MultiZoneFullNode::on_stripe(const runtime::MsgPtr& received,
                                  const StripeMsg& msg) {
  if (msg.index >= cfg_.n_consensus) return;

  // Real-bytes mode: reject stripes that fail Merkle verification
  // against the committed stripe root before counting or forwarding
  // them (§IV-D: verify, then spend memory). Headers whose producer
  // never committed a root (stripe_root == 0) skip the Merkle check —
  // the index consistency check still applies.
  if (msg.payload) {
    const bool index_ok = msg.payload->index == msg.index;
    const bool merkle_ok =
        msg.header.stripe_root == kZeroHash ||
        erasure::StripeCodec::verify(*msg.payload, msg.header.stripe_root);
    if (!index_ok || !merkle_ok) {
      ++stripe_verify_failures_;
      return;
    }
  }

  last_stripe_at_[msg.index] = now();
  last_any_stripe_ = now();
  const Hash32 hash = msg.header.hash();
  auto it = stripes_.find(hash);
  if (it == stripes_.end()) {
    // No record: either the first stripe of this bundle, or a late copy
    // of one whose n_c stripes all arrived already.
    const ChainEntry* entry = chain_entry(msg.header);
    if (entry != nullptr && entry->stripes_done && entry->hash == hash) {
      return;  // duplicate
    }
    it = stripes_.emplace(hash, StripeState{}).first;
    it->second.partial =
        std::make_unique<PartialBundle>(PartialBundle{msg.header, {}});
  }
  StripeState& state = it->second;
  if (state.have.test(msg.index)) return;  // duplicate
  state.have.set(msg.index);
  if (msg.payload && state.partial) {
    auto& bodies = state.partial->bodies;
    if (bodies.empty()) bodies.resize(cfg_.n_consensus);
    bodies[msg.index] = msg.payload;
  }

  // Store-and-forward along the per-stripe multicast tree: the received
  // message itself goes on, so no hop copies the header or the bytes.
  if (!subscribers_[msg.index].empty()) {
    paced_fanout({subscribers_[msg.index].begin(),
                  subscribers_[msg.index].end()},
                 received);
  }

  if (state.partial && state.have.count() >= k()) {
    if (!state.partial->bodies.empty() && !try_byte_decode(*state.partial)) {
      return;  // wait for more stripes
    }
    const std::unique_ptr<PartialBundle> partial = std::move(state.partial);
    store_bundle_record(partial->header);
  }

  // Decoded and complete: the chain entry answers later duplicates, so
  // the record goes. A bundle stored under another hash at this height
  // keeps its record, and duplicates are still dropped here.
  if (!state.partial && state.have.count() == cfg_.n_consensus) {
    ChainEntry* entry = chain_entry(msg.header);
    if (entry != nullptr && entry->hash == hash) {
      entry->stripes_done = true;
      stripes_.erase(it);
    }
  }
}

bool MultiZoneFullNode::try_byte_decode(const PartialBundle& partial) {
  // Decode from the verified stripe bytes we hold. Views only — the
  // shard buffers stay inside the shared stripes.
  std::vector<std::optional<BytesView>> shards(cfg_.n_consensus);
  std::size_t present = 0;
  for (std::size_t i = 0; i < partial.bodies.size(); ++i) {
    if (!partial.bodies[i]) continue;
    shards[i] = BytesView(partial.bodies[i]->data);
    ++present;
  }
  if (present < k()) return false;
  erasure::Expected<Bundle> decoded = codec_.try_decode(shards);
  if (!decoded.ok()) {
    ++decode_failures_;
    return false;
  }
  ++byte_decoded_count_;
  // Publish so block reconstruction (and pulls served by zone peers)
  // can materialize the bundle exactly as in oracle mode.
  dir_.publish_bundle(std::move(decoded).value());
  return true;
}

MultiZoneFullNode::ChainEntry* MultiZoneFullNode::chain_entry(
    const BundleHeader& header) {
  if (header.producer >= chains_.size()) return nullptr;
  auto& chain = chains_[header.producer];
  const auto it = chain.find(header.height);
  return it == chain.end() ? nullptr : &it->second;
}

void MultiZoneFullNode::store_bundle_record(const BundleHeader& header) {
  if (header.producer >= chains_.size()) return;
  auto& chain = chains_[header.producer];
  if (!chain.emplace(header.height, ChainEntry{header.hash()}).second) return;
  ++decoded_count_;
  while (chain.count(contiguous_[header.producer] + 1) != 0) {
    ++contiguous_[header.producer];
  }
  if (tracer_ != nullptr) {
    tracer_->record(TraceStage::kBundleDecoded, header.hash(), now(), self_);
  }
  if (on_bundle_decoded) on_bundle_decoded(header, now());
  try_reconstruct_blocks();
}

void MultiZoneFullNode::on_predis_block(NodeId from,
                                        const PredisBlockMsg& msg) {
  const Hash32 hash = msg.block.hash();
  if (!seen_blocks_.insert(hash).second) return;

  // Admission check: drop structurally-hostile announcements before
  // they are forwarded or enter pending_blocks_. Everything the block
  // claims about chain spans is unauthenticated at this point (the
  // signature is only checked consensus-side), so mismatched vectors,
  // regressing cuts, unknown chains and absurd per-chain spans are all
  // rejected here rather than laundered into the repair walks below.
  const PredisBlock& blk = msg.block;
  if (blk.cut_heights.size() != blk.prev_heights.size() ||
      blk.cut_heights.size() > chains_.size()) {
    return;
  }
  for (std::size_t i = 0; i < blk.cut_heights.size(); ++i) {
    if (blk.cut_heights[i] < blk.prev_heights[i]) return;
    if (blk.cut_heights[i] - blk.prev_heights[i] > kMaxBlockSpan) return;
  }

  // Forward to our subscribers (relayer -> ordinary flow, §IV-D).
  const std::vector<NodeId> children = subscriber_union();
  if (!children.empty()) {
    paced_fanout(children, std::make_shared<PredisBlockMsg>(msg));
  }

  pending_blocks_.emplace(hash, PendingBlock{msg.block, from, 0});
  try_reconstruct_blocks();
  schedule_pull(hash);
}

void MultiZoneFullNode::send_pull(const Hash32& block_hash) {
  const auto it = pending_blocks_.find(block_hash);
  if (it == pending_blocks_.end()) return;  // completed meanwhile
  std::vector<MissingBundleRef> refs;
  const PredisBlock& b = it->second.block;
  for (std::size_t i = 0; i < b.cut_heights.size(); ++i) {
    // Admission (on_predis_block) already bounded the span; the clamp
    // repeats the invariant locally so the walk is safe on its own.
    for (BundleHeight h = b.prev_heights[i] + 1;
         h <= std::min(b.cut_heights[i], b.prev_heights[i] + kMaxBlockSpan);
         ++h) {
      if (chains_[i].count(h) == 0) {
        refs.push_back({static_cast<NodeId>(i), h});
      }
    }
  }
  if (refs.empty()) {
    try_reconstruct_blocks();
    return;
  }
  // Pull-target ladder: keep the consensus layer out of the repair
  // path (its uplink is the system bottleneck) — random zone members
  // first, then the cross-zone backup partner (§IV-F), and only then
  // the block sender itself.
  NodeId target = it->second.sender;
  const std::size_t attempt = it->second.pull_attempts;
  const auto& members = dir_.members(zone_);
  if (attempt % 3 == 0 && members.size() > 1) {
    do {
      target = members[rng_.next_below(members.size())];
    } while (target == self_);
  } else if (attempt % 3 == 1 && backup_peer_ != kNoNode) {
    target = backup_peer_;
  }
  ++it->second.pull_attempts;
  if (tracer_ != nullptr) tracer_->record_pull(block_hash, self_, now());
  auto pull = std::make_shared<BundlePullMsg>();
  pull->block = block_hash;
  pull->refs = std::move(refs);
  net_.send(self_, target, std::move(pull));
}

void MultiZoneFullNode::schedule_pull(const Hash32& block_hash) {
  // Keep pulling the gaps until the block reconstructs. The backoff
  // exponent grows per ladder *cycle* (every target tried once), not
  // per attempt: doubling the wait is meant to stop us hammering one
  // peer, and rotating to a fresh target deserves a fresh timeout.
  // Pre-fix the exponent grew per attempt, so a node that needed the
  // whole ladder slept 0.7 + 1.4 + 2.8 s of dead air — the ~4.4 s
  // distribution stragglers the tracer attributed to 3-pull blocks.
  const auto it0 = pending_blocks_.find(block_hash);
  if (it0 == pending_blocks_.end()) return;
  const std::size_t cycle = it0->second.pull_attempts / 3;
  // First probe goes out after a quarter timeout (same pacing as the
  // miss-retry path): a node still short of bundles a few RTTs after
  // the block announcement is overwhelmingly missing them for good
  // (dropped stripe, pruned relayer), and waiting out a full timeout
  // before the first pull put the entire repair tail beyond 500 ms.
  // Later cycles keep the full exponential schedule.
  const SimTime quarter = std::max<SimTime>(milliseconds(25),
                                            cfg_.pull_timeout / 4);
  const SimTime delay =
      cycle == 0 && it0->second.pull_attempts == 0
          ? quarter - static_cast<SimTime>(rng_.next_below(
                          static_cast<std::uint64_t>(quarter) / 2 + 1))
          : pull_backoff_.delay(cycle, rng_);
  PREDIS_FIRE_AND_FORGET(net_.schedule(self_, delay, [this, block_hash] {
    if (left_) return;
    if (pending_blocks_.find(block_hash) == pending_blocks_.end()) return;
    send_pull(block_hash);
    schedule_pull(block_hash);
  }));
}

void MultiZoneFullNode::on_pull_miss(NodeId /*from*/,
                                     const BundleMissMsg& msg) {
  const auto it = pending_blocks_.find(msg.block);
  if (it == pending_blocks_.end()) return;
  // The target had nothing for us. Rotate to the next ladder target
  // after one short flat delay — the exponential schedule stays armed
  // as the lost-message fallback, but a definitive "don't have it" is
  // not congestion and must not cost a full backoff rung.
  const SimTime base = std::max<SimTime>(milliseconds(25),
                                         cfg_.pull_timeout / 4);
  const SimTime retry =
      base - static_cast<SimTime>(rng_.next_below(
                 static_cast<std::uint64_t>(base) / 2 + 1));
  const Hash32 block_hash = msg.block;
  PREDIS_FIRE_AND_FORGET(net_.schedule(self_, retry, [this, block_hash] {
    if (left_) return;
    send_pull(block_hash);
  }));
}

void MultiZoneFullNode::try_reconstruct_blocks() {
  for (auto it = pending_blocks_.begin(); it != pending_blocks_.end();) {
    const PredisBlock& block = it->second.block;
    bool complete = true;
    for (std::size_t i = 0; complete && i < block.cut_heights.size(); ++i) {
      for (BundleHeight h = block.prev_heights[i] + 1;
           h <= std::min(block.cut_heights[i],
                         block.prev_heights[i] + kMaxBlockSpan);
           ++h) {
        if (chains_[i].count(h) == 0) {
          complete = false;
          break;
        }
      }
    }
    if (!complete) {
      ++it;
      continue;
    }
    if (tracer_ != nullptr) {
      tracer_->record(TraceStage::kBlockReconstructed, block.hash(), now(),
                      self_);
    }
    if (on_block_complete) on_block_complete(block, now());
    it = pending_blocks_.erase(it);
  }
}

void MultiZoneFullNode::on_leave(NodeId from) {
  // §IV-E: a relayer's leave tells the receiver to become a relayer in
  // its stead; an ordinary node's leave just triggers resubscription.
  const auto it = known_relayers_.find(from);
  const bool was_relayer = it != known_relayers_.end() &&
                           !it->second.relayed.empty();
  std::vector<StripeIndex> lost;
  for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) {
    if (providers_[s] == from) {
      providers_[s] = kNoNode;
      lost.push_back(s);
    }
  }
  if (was_relayer) {
    const auto stripes = it->second.relayed;
    known_relayers_.erase(it);
    subscribe_to_consensus({stripes.begin(), stripes.end()});
    for (StripeIndex s : lost) {
      if (stripes.count(s) == 0) resubscribe(s);
    }
  } else {
    for (StripeIndex s : lost) resubscribe(s);
  }
}

void MultiZoneFullNode::leave() {
  left_ = true;
  if (is_relayer()) {
    // Send leave to the earliest-joined subscriber.
    NodeId heir = kNoNode;
    SimTime best = kSimTimeNever;
    for (NodeId child : subscriber_union()) {
      SimTime t = kSimTimeNever;
      try {
        t = dir_.join_time(child);
      } catch (...) {
        continue;  // consensus nodes are not in the zone registry
      }
      if (t < best) {
        best = t;
        heir = child;
      }
    }
    if (heir != kNoNode) {
      net_.send(self_, heir, std::make_shared<LeaveMsg>());
    }
  } else {
    for (NodeId child : subscriber_union()) {
      net_.send(self_, child, std::make_shared<LeaveMsg>());
    }
  }
}

void MultiZoneFullNode::on_digest(NodeId from, const DigestMsg& msg) {
  // Pull whatever the sender has that we lack (§IV-F backup sync).
  std::vector<MissingBundleRef> refs;
  for (std::size_t i = 0; i < msg.heights.size() && i < chains_.size();
       ++i) {
    const BundleHeight upto =
        std::min(msg.heights[i], contiguous_[i] + kMaxDigestSpan);
    for (BundleHeight h = contiguous_[i] + 1; h <= upto; ++h) {
      if (chains_[i].count(h) == 0) {
        refs.push_back({static_cast<NodeId>(i), h});
      }
    }
  }
  if (!refs.empty()) {
    auto pull = std::make_shared<BundlePullMsg>();
    pull->refs = std::move(refs);
    net_.send(self_, from, std::move(pull));
  }
}

void MultiZoneFullNode::on_pull(NodeId from, const BundlePullMsg& msg) {
  auto push = std::make_shared<BundlePushMsg>();
  std::uint32_t missing = 0;
  for (const auto& ref : msg.refs) {
    if (ref.chain >= chains_.size()) {
      ++missing;
      continue;
    }
    const auto it = chains_[ref.chain].find(ref.height);
    const Bundle* bundle =
        it == chains_[ref.chain].end() ? nullptr
                                       : dir_.bundle(it->second.hash);
    if (bundle != nullptr) {
      push->bundles.push_back(*bundle);
    } else {
      ++missing;
    }
  }
  if (!push->bundles.empty()) net_.send(self_, from, std::move(push));
  // Tell a block-repair puller what we could not serve so it rotates
  // targets now instead of waiting out its backoff.
  if (missing > 0 && msg.block != kZeroHash) {
    auto miss = std::make_shared<BundleMissMsg>();
    miss->block = msg.block;
    miss->missing = missing;
    net_.send(self_, from, std::move(miss));
  }
}

void MultiZoneFullNode::on_push(NodeId /*from*/, const BundlePushMsg& msg) {
  for (const auto& bundle : msg.bundles) {
    // Accept a pushed bundle only when it matches the published record
    // for its header hash (models verifying the producer signature +
    // body root). A fabricated push must not poison chains_ — a bogus
    // (producer, height) entry would freeze contiguous_ and block
    // reconstruction forever.
    const Hash32 hash = bundle.header.hash();
    if (dir_.bundle(hash) == nullptr) {
      ++push_verify_failures_;
      continue;
    }
    store_bundle_record(bundle.header);
    // The pushed body replaces decoding: drop the stripe bytes, keep the
    // dedup bits so later stripes are still forwarded once.
    const auto it = stripes_.find(hash);
    if (it != stripes_.end()) it->second.partial.reset();
  }
}

void MultiZoneFullNode::tick_relayer_alive() {
  if (left_) return;
  if (is_relayer()) announce_relayer();
  PREDIS_FIRE_AND_FORGET(net_.schedule(self_, cfg_.relayer_alive_interval,
                                       [this] { tick_relayer_alive(); }));
}

void MultiZoneFullNode::tick_relayer_check() {
  if (left_) return;
  // Convergence aid for Algorithm 2: a relayer whose single direct
  // stripe duplicates an earlier relayer's moves to a stripe no zone
  // relayer covers, so each consensus node ends up with exactly one
  // direct subscriber per zone.
  if (is_relayer() && direct_.size() == 1) {
    const StripeIndex mine = *direct_.begin();
    bool duplicated = false;
    std::set<StripeIndex> covered = direct_;
    for (const auto& [id, state] : known_relayers_) {
      covered.insert(state.relayed.begin(), state.relayed.end());
      if (state.relayed.count(mine) != 0 &&
          (state.join_time < join_time_ ||
           (state.join_time == join_time_ && id < self_))) {
        duplicated = true;
      }
    }
    if (duplicated && covered.size() < cfg_.n_consensus) {
      StripeIndex uncovered = 0;
      for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) {
        if (covered.count(s) == 0) {
          uncovered = s;
          break;
        }
      }
      auto un = std::make_shared<UnsubscribeMsg>();
      un->stripes = {mine};
      net_.send(self_, providers_[mine], std::move(un));
      direct_.erase(mine);
      providers_[mine] = kNoNode;
      subscribe_to_consensus({uncovered});
      resubscribe(mine);
      announce_relayer();
    }
  }
  // Redundant-relayer demotion (§IV-E / Algorithm 2 lines 21-23): when
  // the zone already has more than n_c relayers and every stripe we
  // serve direct is also served direct by an earlier relayer, step down
  // to an ordinary node, re-subscribing through those relayers.
  if (is_relayer() && known_active_relayers() > cfg_.n_consensus) {
    // Only the latest-joined active relayer may step down in any check
    // period — serialized demotion avoids the cascade where a whole
    // zone demotes at once and stripes lose their providers.
    bool latest = true;
    bool redundant = true;
    for (const auto& [id, state] : known_relayers_) {
      if (state.relayed.empty()) continue;
      if (state.join_time > join_time_ ||
          (state.join_time == join_time_ && id > self_)) {
        latest = false;
        break;
      }
    }
    for (StripeIndex s : direct_) {
      bool covered_elsewhere = false;
      for (const auto& [id, state] : known_relayers_) {
        if (state.relayed.empty() || state.relayed.count(s) == 0) continue;
        if (state.join_time < join_time_ ||
            (state.join_time == join_time_ && id < self_)) {
          covered_elsewhere = true;
          break;
        }
      }
      if (!covered_elsewhere) {
        redundant = false;
        break;
      }
    }
    if (latest && redundant) {
      const std::set<StripeIndex> giving_up = direct_;
      for (StripeIndex s : giving_up) {
        auto un = std::make_shared<UnsubscribeMsg>();
        un->stripes = {s};
        net_.send(self_, providers_[s], std::move(un));
        direct_.erase(s);
        providers_[s] = kNoNode;
        resubscribe(s);
      }
      // Announce the demotion (empty stripe set, lines 22-23).
      announce_relayer();
    }
  }
  // §IV-E: if the zone has fewer than n_c live relayers, volunteer.
  if (!is_relayer() && known_active_relayers() < cfg_.n_consensus) {
    std::set<StripeIndex> covered;
    for (const auto& [id, state] : known_relayers_) {
      covered.insert(state.relayed.begin(), state.relayed.end());
    }
    std::vector<StripeIndex> want;
    for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) {
      if (covered.count(s) == 0) want.push_back(s);
    }
    if (want.empty()) {
      // All stripes covered; take over the one with the fewest backers.
      want.push_back(static_cast<StripeIndex>(
          rng_.next_below(cfg_.n_consensus)));
    }
    subscribe_to_consensus(want);
  }
  PREDIS_FIRE_AND_FORGET(net_.schedule(self_, cfg_.relayer_check_interval,
                                       [this] { tick_relayer_check(); }));
}

void MultiZoneFullNode::tick_heartbeat() {
  if (left_) return;
  std::set<NodeId> peers;
  for (NodeId provider : providers_) {
    if (provider != kNoNode) peers.insert(provider);
  }
  auto hb = std::make_shared<HeartbeatMsg>();
  for (NodeId peer : peers) net_.send(self_, peer, hb);

  // Detect dead providers.
  const SimTime deadline = now() - cfg_.heartbeat_timeout;
  for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) {
    const NodeId provider = providers_[s];
    if (provider == kNoNode) continue;
    const auto it = last_heard_.find(provider);
    if (it != last_heard_.end() && it->second < deadline) {
      direct_.erase(s);
      resubscribe(s);
    }
  }
  // Re-request stripes whose subscription never completed.
  for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) {
    if (providers_[s] == kNoNode && pending_[s] == kNoNode) {
      resubscribe(s);
    }
  }
  // Stream-stall detection: subscription chains can form cycles in
  // which every provider is alive but no stripe data flows. If other
  // streams are active while one has been silent since well after we
  // attached to its provider, re-attach elsewhere (the resubscribe
  // ladder randomizes, eventually breaking the cycle).
  const SimTime stall = 3 * cfg_.heartbeat_interval;
  if (last_any_stripe_ != 0 && now() - last_any_stripe_ < stall) {
    for (StripeIndex s = 0; s < cfg_.n_consensus; ++s) {
      if (providers_[s] == kNoNode || direct_.count(s) != 0) continue;
      const SimTime fresh =
          std::max(last_stripe_at_[s], provider_since_[s]);
      if (now() - fresh > stall) {
        resubscribe(s);
      }
    }
  }
  PREDIS_FIRE_AND_FORGET(net_.schedule(self_, cfg_.heartbeat_interval,
                                       [this] { tick_heartbeat(); }));
}

void MultiZoneFullNode::tick_digest() {
  if (left_) return;
  // Backup connection (§IV-F): a stable partner in the neighbouring
  // zone. Re-evaluated each tick so nodes that join later still get a
  // partner.
  if (dir_.zone_count() > 1) {
    const std::uint32_t next_zone =
        (zone_ + 1) % static_cast<std::uint32_t>(dir_.zone_count());
    const auto& members = dir_.members(next_zone);
    if (!members.empty()) {
      backup_peer_ = members[self_ % members.size()];
    }
  }
  if (backup_peer_ != kNoNode) {
    auto digest = std::make_shared<DigestMsg>();
    digest->heights = contiguous_;
    net_.send(self_, backup_peer_, std::move(digest));
  }
  PREDIS_FIRE_AND_FORGET(net_.schedule(self_, cfg_.digest_interval,
                                       [this] { tick_digest(); }));
}

void MultiZoneFullNode::forward_client_txs(const ClientRequestMsg& msg) {
  // §IV-D second dissemination strategy: a client hands its transaction
  // to any full node; the transaction names its target consensus node
  // and the full node forwards it there (default: hash of the client).
  const auto& consensus = dir_.consensus_nodes();
  if (consensus.empty()) return;
  std::map<NodeId, std::vector<Transaction>> per_target;
  for (const Transaction& tx : msg.txs) {
    const std::size_t idx = tx.target_consensus != kNoNode
                                ? tx.target_consensus % consensus.size()
                                : tx.client % consensus.size();
    per_target[consensus[idx]].push_back(tx);
  }
  for (auto& [target, txs] : per_target) {
    auto fwd = std::make_shared<ClientRequestMsg>();
    fwd->txs = std::move(txs);
    net_.send(self_, target, std::move(fwd));
  }
}

std::vector<NodeId> MultiZoneFullNode::subscriber_union() const {
  std::set<NodeId> unique;
  for (const auto& set : subscribers_) unique.insert(set.begin(), set.end());
  return {unique.begin(), unique.end()};
}

}  // namespace predis::multizone
