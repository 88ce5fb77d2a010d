#include "consensus/narwhal/shared_mempool.hpp"

#include <algorithm>

#include "common/block_tracer.hpp"
#include "common/thread_annotations.hpp"

namespace predis::consensus::narwhal {

SharedMempoolNode::SharedMempoolNode(NodeContext ctx,
                                     SharedMempoolConfig config,
                                     CommitLedger& ledger)
    : ctx_(std::move(ctx)),
      cfg_(config),
      ledger_(ledger),
      replies_(ctx_),
      core_(ctx_, *this),
      rng_(config.seed ^ (0x51f15eedULL * (ctx_.index() + 1))),
      // Fetch pacing starts near the base RTT and doubles toward the old
      // fixed interval's neighborhood; jitter spreads simultaneous
      // retriers (the post-heal pull storm) across the window.
      fetch_(ctx_, rng_,
             {milliseconds(25),
              std::max<SimTime>(config.fetch_retry, milliseconds(400))}) {
  admission_.set_metrics(&ledger_.metrics());
}

void SharedMempoolNode::on_start() {
  schedule_packing();
  core_.start();
}

void SharedMempoolNode::on_restart() {
  // Consensus-side catch-up (missed blocks) …
  core_.on_restart();
  // … and mempool-side resync: re-offer own microblocks whose original
  // broadcast (or its acks) may have been lost while down, and kick the
  // fetch loop for any bodies still outstanding.
  reoffer_uncertified(own_index_);
  // A pre-outage retry still armed at the old backoff cadence would
  // delay the fast first retry the reset is meant to buy; drop it and
  // retry at once.
  fetch_.stop();
  if (!fetching_.empty()) retry_fetches();
}

void SharedMempoolNode::schedule_packing() {
  // Self-rearming tick: each firing schedules the next, so there is no
  // handle to keep — the chain dies with the node.
  PREDIS_FIRE_AND_FORGET(ctx_.after(cfg_.pack_interval, [this] {
    pack_microblock();
    reoffer_stale();
    schedule_packing();
  }));
}

void SharedMempoolNode::reoffer_stale() {
  // At the cap nothing is admitted until own microblocks commit, and an
  // own microblock whose broadcast or acks were lost (a partition, a
  // drop window) is never certified, so never proposed: without a
  // re-offer the cap would stay full for good.
  if (!admission_.at_cap(tx_queue_.size() + own_uncommitted_txs_)) return;
  if (ctx_.now() < next_reoffer_) return;
  reoffer_uncertified(reoffer_below_);
  reoffer_below_ = own_index_;
  next_reoffer_ = ctx_.now() + kReofferInterval;
}

void SharedMempoolNode::reoffer_uncertified(std::uint64_t below_index) {
  const NodeId self = static_cast<NodeId>(ctx_.index());
  for (auto it = pool_.lower_bound(Key{self, 0});
       it != pool_.end() && it->first < Key{self, below_index}; ++it) {
    if (certified_.count(it->first) != 0) continue;
    auto msg = std::make_shared<MicroblockMsg>();
    msg->mb = it->second;
    ctx_.broadcast(msg);
  }
}

void SharedMempoolNode::enqueue(const std::vector<Transaction>& txs) {
  // Backpressure: shed client load the node cannot send or confirm.
  if (!admission_.admit(ctx_, tx_queue_.size() + own_uncommitted_txs_,
                        txs.size())) {
    return;
  }
  tx_queue_.insert(tx_queue_.end(), txs.begin(), txs.end());
  while (tx_queue_.size() >= cfg_.microblock_size) pack_microblock();
}

void SharedMempoolNode::pack_microblock() {
  if (tx_queue_.empty()) return;  // no empty microblocks
  const std::size_t take =
      std::min(tx_queue_.size(), cfg_.microblock_size);

  Microblock mb;
  mb.producer = static_cast<NodeId>(ctx_.index());
  mb.index = own_index_++;
  mb.txs.assign(tx_queue_.begin(),
                tx_queue_.begin() + static_cast<std::ptrdiff_t>(take));
  tx_queue_.erase(tx_queue_.begin(),
                  tx_queue_.begin() + static_cast<std::ptrdiff_t>(take));

  const Key key{mb.producer, mb.index};
  const Hash32 id = mb.id();
  pool_.emplace(key, mb);
  own_uncommitted_txs_ += take;
  own_.emplace(key, OwnMicroblock{id, {ctx_.index()}});  // self-ack
  if (tracer_ != nullptr) {
    tracer_->record(TraceStage::kBundleProduced, id, ctx_.now());
  }

  auto msg = std::make_shared<MicroblockMsg>();
  msg->mb = std::move(mb);
  ctx_.broadcast(msg);
}

void SharedMempoolNode::on_message(NodeId from, const runtime::MsgPtr& msg) {
  if (const auto* req = dynamic_cast<const ClientRequestMsg*>(msg.get())) {
    enqueue(req->txs);
    return;
  }
  if (handle_mempool(from, msg)) return;
  core_.handle(from, msg);
}

bool SharedMempoolNode::handle_mempool(NodeId from, const runtime::MsgPtr& msg) {
  if (const auto* m = dynamic_cast<const MicroblockMsg*>(msg.get())) {
    // A microblock broadcast is only acceptable from its own producer
    // (it models a producer-signed message): anything else is an
    // impersonation attempt that could park a substituted body under
    // the victim's (producer, index) key.
    if (m->mb.producer >= ctx_.n() ||
        m->mb.producer != ctx_.index_of(from)) {
      return true;
    }
    const Key key{m->mb.producer, m->mb.index};
    const auto [it, fresh] = pool_.try_emplace(key, m->mb);
    if (fresh) fetching_.erase(key);
    // Availability ack back to the producer (RBC / PAB reply) for the
    // body we hold. A producer offers a body again only while it lacks
    // a certificate for it, so the first ack may have been lost: ack a
    // duplicate too.
    auto ack = std::make_shared<MbAckMsg>();
    ack->ref = {key.first, key.second, it->second.id()};
    ctx_.send_to(key.first, std::move(ack));
    if (fresh) core_.revalidate();
    return true;
  }
  if (const auto* m = dynamic_cast<const MbAckMsg*>(msg.get())) {
    const std::size_t idx = ctx_.index_of(from);
    if (idx >= ctx_.n()) return true;
    if (m->ref.producer != ctx_.index()) return true;
    // Only count acks for microblocks we actually produced, and only
    // when the acked id matches our content — a fabricated ack for a
    // never-produced index must not grow the ack table.
    const auto own = own_.find(m->ref.key());
    if (own == own_.end() || own->second.id != m->ref.id) return true;
    auto& set = own->second.acks;
    set.insert(idx);
    if (set.size() == cfg_.ack_quorum &&
        certified_.count(m->ref.key()) == 0) {
      certify(m->ref, set.size());
      auto cert = std::make_shared<MbCertMsg>();
      cert->ref = m->ref;
      cert->signers = set.size();
      ctx_.broadcast(cert);
    }
    return true;
  }
  if (const auto* m = dynamic_cast<const MbCertMsg*>(msg.get())) {
    // Modeled aggregate-signature verification: a genuine certificate
    // carries at least ack_quorum signers over a producer inside the
    // group; anything else is a forgery and certifies nothing.
    if (m->ref.producer >= ctx_.n() || m->signers < cfg_.ack_quorum) {
      return true;
    }
    if (certified_.count(m->ref.key()) == 0) {
      certify(m->ref, m->signers);
    }
    return true;
  }
  if (const auto* m = dynamic_cast<const MbFetchMsg*>(msg.get())) {
    auto reply = std::make_shared<MbBatchMsg>();
    for (const auto& ref : m->refs) {
      const auto it = pool_.find(ref.key());
      if (it != pool_.end()) reply->mbs.push_back(it->second);
    }
    if (!reply->mbs.empty()) ctx_.send_node(from, std::move(reply));
    return true;
  }
  if (const auto* m = dynamic_cast<const MbBatchMsg*>(msg.get())) {
    bool progressed = false;
    for (const auto& mb : m->mbs) {
      const Key key{mb.producer, mb.index};
      // Fetched bodies come from arbitrary peers, so accept one only
      // if we asked for it AND its content hashes to the certified id
      // we asked for — otherwise a hostile responder could substitute
      // transactions under a certified reference.
      const auto want = fetching_.find(key);
      if (want == fetching_.end() || mb.id() != want->second.id) continue;
      if (pool_.count(key) == 0) {
        pool_.emplace(key, mb);
        fetching_.erase(key);
        progressed = true;
      }
    }
    if (progressed) {
      // The responder is serving us: keep asking it, reset the backoff.
      fetch_.progress(ctx_.index_of(from));
    }
    core_.revalidate();
    return true;
  }
  return false;
}

void SharedMempoolNode::certify(const MicroblockRef& ref,
                                std::size_t /*signers*/) {
  if (tracer_ != nullptr && certified_.count(ref.key()) == 0) {
    tracer_->record(TraceStage::kBundleStoredQuorum, ref.id, ctx_.now());
  }
  certified_.insert(ref.key());
  if (committed_.count(ref.key()) == 0) {
    proposable_.push_back(ref);
    core_.payload_ready();
  }
}

PayloadPtr SharedMempoolNode::make_payload(
    hotstuff::Round /*round*/, const std::vector<PayloadPtr>& ancestors) {
  if (proposable_.empty()) return nullptr;

  std::set<Key> in_flight;
  for (const auto& payload : ancestors) {
    const auto* ids = dynamic_cast<const IdListPayload*>(payload.get());
    if (ids == nullptr) continue;
    for (const auto& ref : ids->refs()) in_flight.insert(ref.key());
  }

  std::vector<MicroblockRef> picked;
  std::deque<MicroblockRef> keep;
  while (!proposable_.empty() && picked.size() < cfg_.id_cap) {
    MicroblockRef ref = proposable_.front();
    proposable_.pop_front();
    if (committed_.count(ref.key()) != 0) continue;
    if (in_flight.count(ref.key()) != 0) {
      keep.push_back(ref);
      continue;
    }
    picked.push_back(ref);
  }
  // Anything skipped (in flight) or not picked stays queued.
  for (auto it = keep.rbegin(); it != keep.rend(); ++it) {
    proposable_.push_front(*it);
  }
  if (picked.empty()) return nullptr;
  return std::make_shared<IdListPayload>(std::move(picked), cfg_.ack_quorum);
}

Validity SharedMempoolNode::validate(
    hotstuff::Round /*round*/, const PayloadPtr& payload,
    const std::vector<PayloadPtr>& /*ancestors*/) {
  const auto* ids = dynamic_cast<const IdListPayload*>(payload.get());
  if (ids == nullptr) return Validity::kInvalid;

  // The certificate proves availability; we only fetch the bodies we
  // lack before voting (Narwhal workers sync the same way).
  std::vector<MicroblockRef> missing;
  for (const auto& ref : ids->refs()) {
    if (pool_.count(ref.key()) == 0 && fetching_.count(ref.key()) == 0) {
      missing.push_back(ref);
    }
  }
  bool pending = false;
  for (const auto& ref : ids->refs()) {
    if (pool_.count(ref.key()) == 0) pending = true;
  }
  if (!missing.empty()) {
    for (const auto& ref : missing) fetching_.emplace(ref.key(), ref);
    std::map<NodeId, std::vector<MicroblockRef>> by_producer;
    for (const auto& ref : missing) by_producer[ref.producer].push_back(ref);
    for (auto& [producer, refs] : by_producer) {
      auto fetch = std::make_shared<MbFetchMsg>();
      fetch->refs = std::move(refs);
      if (producer < ctx_.n()) ctx_.send_to(producer, std::move(fetch));
    }
    if (!fetch_.armed()) fetch_.arm([this] { retry_fetches(); });
  }
  return pending ? Validity::kPending : Validity::kValid;
}

void SharedMempoolNode::retry_fetches() {
  // The producer may have crashed; a certified microblock is held by at
  // least ack_quorum nodes, so re-request outstanding bodies — rotating
  // away from a peer that keeps timing out — until they arrive. Pacing
  // is capped jittered exponential backoff, not a fixed interval.
  std::vector<MicroblockRef> still_missing;
  for (const auto& [key, ref] : fetching_) {
    if (pool_.count(key) == 0) still_missing.push_back(ref);
  }
  fetching_.clear();
  if (still_missing.empty()) {
    fetch_.stop();
    return;
  }
  for (const auto& ref : still_missing) fetching_.emplace(ref.key(), ref);

  fetch_.retry();
  auto fetch = std::make_shared<MbFetchMsg>();
  fetch->refs = std::move(still_missing);
  ctx_.send_to(fetch_.peer(), std::move(fetch));
  fetch_.arm([this] { retry_fetches(); });
}

void SharedMempoolNode::on_commit(hotstuff::Round round,
                                  const PayloadPtr& payload) {
  const auto& ids = dynamic_cast<const IdListPayload&>(*payload);
  std::vector<Transaction> txs;
  for (const auto& ref : ids.refs()) {
    const bool first = committed_.insert(ref.key()).second;
    if (first) committed_order_.push_back(ref.key());
    const auto it = pool_.find(ref.key());
    if (it == pool_.end()) continue;  // certified elsewhere; body lagging
    if (first && ref.producer == ctx_.index()) {
      own_uncommitted_txs_ -= it->second.txs.size();
    }
    txs.insert(txs.end(), it->second.txs.begin(), it->second.txs.end());
  }
  // Pool GC: committed bodies stay briefly to serve catch-up fetches
  // from lagging replicas, then are reclaimed (byte-accounted).
  while (committed_order_.size() > cfg_.pool_retention) {
    const Key old = committed_order_.front();
    committed_order_.pop_front();
    const auto it = pool_.find(old);
    if (it != pool_.end()) {
      gc_.add(it->second.wire_size());
      pool_.erase(it);
    }
    own_.erase(old);
  }
  ledger_.on_commit(ctx_.index(), round, payload->digest(), txs.size(),
                    ctx_.now());
  if (on_committed_block) {
    // The id-list payload carries no transaction root: compute it.
    on_committed_block(payload->digest(), tx_merkle_root(txs), txs.size(),
                       ctx_.now());
  }
  replies_.reply_committed(txs);
}

}  // namespace predis::consensus::narwhal
