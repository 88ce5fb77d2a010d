#include "consensus/predis/predis_engine.hpp"

#include <algorithm>
#include <memory>

#include "common/block_tracer.hpp"
#include "common/log.hpp"
#include "common/thread_annotations.hpp"
#include "common/rng.hpp"

namespace predis::consensus::predis {

PredisEngine::PredisEngine(NodeContext& ctx, PredisConfig config,
                           std::vector<PublicKey> keys, KeyPair own_key)
    : ctx_(ctx),
      cfg_(config),
      mempool_(ctx.n(), std::move(keys)),
      own_key_(std::move(own_key)),
      rng_(config.seed ^ (0x9e3779b9ULL * (ctx.index() + 1))),
      // A Fig. 6 faulty node runs with its consensus core paused, so it
      // never sees its own bundles confirmed; only the uplink rule binds
      // it, and it keeps producing at the honest rate as the paper's
      // fault cases assume.
      admission_(config.backpressure, config.fault == FaultMode::kNone
                                          ? kUnconfirmedTxCap
                                          : static_cast<std::size_t>(-1)),
      last_cut_(ctx.n(), 0),
      // Backoff starts well under the old fixed interval (fast first
      // retry) and caps at or above it, so a single drop recovers sooner
      // while a persistent withholder is probed at a bounded, jittered
      // cadence.
      fetch_(ctx, rng_,
             {milliseconds(25),
              std::max<SimTime>(config.fetch_retry, milliseconds(400))}) {
  mempool_.set_gc_retention(cfg_.gc_retention);
  // Every conflict the mempool detects — including those found while
  // re-validating buffered out-of-order bundles, where add_bundle's
  // evidence out-param is not on the stack — must arm the rejoin timer
  // and spread the signed evidence to every honest node.
  mempool_.on_conflict = [this](NodeId producer,
                                const ConflictEvidence& ev) {
    apply_ban(producer);
    auto msg = std::make_shared<ConflictMsg>();
    msg->evidence = ev;
    ctx_.broadcast(msg);
  };
}

void PredisEngine::start() {
  if (cfg_.fault == FaultMode::kSilent) return;
  schedule_production();
}

void PredisEngine::on_restart() {
  if (cfg_.fault == FaultMode::kSilent) return;
  // Reset the fetch ladder: whatever cadence we were on before the
  // outage is stale, and the first post-heal retry should be fast. A
  // pre-outage retry may still be armed at the old (slow) backoff
  // delay; left alone it would block the fresh fast retry below, so the
  // first post-heal fetch would wait out the pre-crash cadence.
  fetch_.stop();
  fetch_.progress();

  // Resync mempool tips before producing (§III-D rejoin): ask every
  // peer where its chains stand so the bundle backlog we slept through
  // is pulled proactively instead of waiting for the next proposal's
  // missing-bundle refs.
  ctx_.broadcast(std::make_shared<TipsProbeMsg>());

  // Re-announce our own chain tip. Bundles we produced right before
  // (or during) the outage never reached anyone; re-sending the newest
  // one makes peers notice the gap and fetch the suffix, which unblocks
  // the cutting rule for our chain.
  const Bundle* own = mempool_.chain(ctx_.index()).latest();
  if (own != nullptr && !mempool_.is_banned(static_cast<NodeId>(ctx_.index()))) {
    disseminate(*own);
  }

  // Kick the retry loop if fetches were in flight when we went down.
  arm_fetch_retry();
}

void PredisEngine::schedule_production() {
  // Self-rearming tick: each firing schedules the next; no handle kept.
  PREDIS_FIRE_AND_FORGET(ctx_.after(cfg_.bundle_interval, [this] {
    produce_bundle();
    schedule_production();
  }));
}

void PredisEngine::enqueue(const std::vector<Transaction>& txs) {
  if (cfg_.fault == FaultMode::kSilent) return;
  // Backpressure: shed client load the node cannot send or confirm, so
  // it saturates gracefully instead of queueing unboundedly.
  if (!admission_.admit(ctx_, tx_queue_.size() + unconfirmed_txs(),
                        txs.size())) {
    return;
  }
  tx_queue_.insert(tx_queue_.end(), txs.begin(), txs.end());
  tx_enqueue_times_.insert(tx_enqueue_times_.end(), txs.size(), ctx_.now());
  // Pack eagerly once a full bundle's worth is waiting.
  while (tx_queue_.size() >= cfg_.bundle_size) produce_bundle();
}

void PredisEngine::produce_bundle() {
  const std::size_t take = std::min(tx_queue_.size(), cfg_.bundle_size);
  std::vector<Transaction> txs(tx_queue_.begin(),
                               tx_queue_.begin() +
                                   static_cast<std::ptrdiff_t>(take));
  tx_queue_.erase(tx_queue_.begin(),
                  tx_queue_.begin() + static_cast<std::ptrdiff_t>(take));
  const SimTime oldest_enqueue =
      take > 0 ? tx_enqueue_times_.front() : kSimTimeNever;
  tx_enqueue_times_.erase(
      tx_enqueue_times_.begin(),
      tx_enqueue_times_.begin() + static_cast<std::ptrdiff_t>(take));

  // Continuous production: empty bundles still carry fresh tip lists,
  // which is what keeps the cutting rule advancing (§III-D liveness).
  std::vector<BundleHeight> tips = mempool_.tip_list();
  tips[ctx_.index()] = own_height_ + 1;

  Bundle bundle = make_bundle(static_cast<NodeId>(ctx_.index()),
                              own_height_ + 1, own_parent_hash_,
                              std::move(tips), std::move(txs), own_key_);
  own_height_ += 1;
  own_parent_hash_ = bundle.header.hash();

  // make_bundle just computed the root over these transactions; the
  // signature is still checked against the registered key.
  const AddBundleResult result =
      mempool_.add(bundle, nullptr, {.tx_root = true});
  if (result != AddBundleResult::kAdded) {
    log_warn("own bundle rejected: ", to_string(result));
    return;
  }
  if (tracer_ != nullptr) {
    const Hash32 bh = bundle.header.hash();
    if (take > 0) tracer_->record(TraceStage::kTxEnqueued, bh, oldest_enqueue);
    tracer_->record(TraceStage::kBundleProduced, bh, ctx_.now());
    tracer_->record_store(bh, ctx_.now(),
                          static_cast<NodeId>(ctx_.index()));
  }
  disseminate(bundle);
  if (on_bundle_produced) on_bundle_produced(bundle);
  if (on_bundle_stored) on_bundle_stored(bundle);
  if (on_mempool_grew) on_mempool_grew();
}

void PredisEngine::inject_equivocation() {
  if (mempool_.is_banned(static_cast<NodeId>(ctx_.index()))) return;

  std::vector<BundleHeight> tips = mempool_.tip_list();
  tips[ctx_.index()] = own_height_ + 1;

  // Two bundles at the same height with the same parent but different
  // contents: an empty one and one carrying a synthetic marker
  // transaction, so the transaction roots (and hence headers) differ.
  Transaction marker;
  marker.client = kNoNode;
  marker.seq = rng_.next();
  marker.size = 8;
  marker.payload_seed = rng_.next();

  const Bundle first = make_bundle(static_cast<NodeId>(ctx_.index()),
                                   own_height_ + 1, own_parent_hash_, tips,
                                   {}, own_key_);
  const Bundle second = make_bundle(static_cast<NodeId>(ctx_.index()),
                                    own_height_ + 1, own_parent_hash_,
                                    std::move(tips), {marker}, own_key_);
  own_height_ += 1;
  own_parent_hash_ = first.header.hash();
  mempool_.add(first);

  std::vector<NodeId> peers;
  for (std::size_t i = 0; i < ctx_.n(); ++i) {
    if (i != ctx_.index()) peers.push_back(ctx_.node(i));
  }
  rng_.shuffle(peers);
  auto msg_a = std::make_shared<BundleMsg>();
  msg_a->bundle = first;
  auto msg_b = std::make_shared<BundleMsg>();
  msg_b->bundle = second;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    ctx_.send_node(peers[i], i < peers.size() / 2 ? msg_a : msg_b);
  }
  if (on_mempool_grew) on_mempool_grew();
}

void PredisEngine::disseminate(const Bundle& bundle) {
  auto msg = std::make_shared<BundleMsg>();
  msg->bundle = bundle;

  if (cfg_.fault == FaultMode::kPartialDissemination) {
    // Case 2 of Fig. 6: send to a random subset of n_c - f - 1 peers.
    std::vector<NodeId> peers;
    for (std::size_t i = 0; i < ctx_.n(); ++i) {
      if (i != ctx_.index()) peers.push_back(ctx_.node(i));
    }
    rng_.shuffle(peers);
    const std::size_t keep = ctx_.n() - ctx_.f() - 1;
    peers.resize(std::min(peers.size(), keep));
    for (NodeId peer : peers) ctx_.send_node(peer, msg);
    return;
  }
  ctx_.broadcast(msg);
}

bool PredisEngine::handle(NodeId from, const runtime::MsgPtr& msg) {
  if (const auto* m = dynamic_cast<const BundleMsg*>(msg.get())) {
    add_bundle(from, m->bundle);
    return true;
  }
  if (const auto* m = dynamic_cast<const BundleFetchMsg*>(msg.get())) {
    auto reply = std::make_shared<BundleBatchMsg>();
    for (const auto& ref : m->refs) {
      if (ref.chain >= mempool_.chain_count()) continue;
      const Bundle* b = mempool_.chain(ref.chain).get(ref.height);
      if (b != nullptr) reply->bundles.push_back(*b);
    }
    if (!reply->bundles.empty()) ctx_.send_node(from, std::move(reply));
    return true;
  }
  if (const auto* m = dynamic_cast<const BundleBatchMsg*>(msg.get())) {
    // Quorum-boundary batch: verify every signature in the reply with
    // one registry lock, then insert the survivors with the per-bundle
    // signature check already discharged (their roots are still
    // checked). Out-of-range producers are dropped here (the mempool
    // would reject them as kInvalid anyway).
    std::vector<HeaderSigCheck> checks;
    std::vector<std::size_t> index;
    checks.reserve(m->bundles.size());
    index.reserve(m->bundles.size());
    for (std::size_t i = 0; i < m->bundles.size(); ++i) {
      const NodeId producer = m->bundles[i].header.producer;
      if (producer >= mempool_.chain_count()) continue;
      checks.push_back(
          {&m->bundles[i].header, &mempool_.producer_key(producer)});
      index.push_back(i);
    }
    const std::unique_ptr<bool[]> ok(new bool[checks.size() + 1]);
    verify_bundle_signatures(checks, ok.get());
    for (std::size_t j = 0; j < checks.size(); ++j) {
      if (ok[j]) {
        add_bundle(from, m->bundles[index[j]], {.signature = true});
      }
    }
    return true;
  }
  if (dynamic_cast<const TipsProbeMsg*>(msg.get()) != nullptr) {
    auto reply = std::make_shared<TipsReplyMsg>();
    reply->tips = mempool_.tip_list();
    ctx_.send_node(from, std::move(reply));
    return true;
  }
  if (const auto* m = dynamic_cast<const TipsReplyMsg*>(msg.get())) {
    // Backlog pull: fetch the span between our contiguous height and the
    // responder's tip on every chain, capped per chain so a forged reply
    // claiming absurd heights costs O(kMaxFetchSpan), not O(claim).
    std::vector<MissingBundleRef> refs;
    for (std::size_t i = 0;
         i < m->tips.size() && i < mempool_.chain_count(); ++i) {
      if (i == ctx_.index()) continue;  // only we extend our own chain
      const BundleHeight from_h = mempool_.chain(i).contiguous_height() + 1;
      const BundleHeight to_h =
          std::min(m->tips[i], from_h + kMaxFetchSpan - 1);
      for (BundleHeight h = from_h; h <= to_h; ++h) {
        refs.push_back({static_cast<NodeId>(i), h});
      }
    }
    if (!refs.empty()) request_missing(refs);
    return true;
  }
  if (const auto* m = dynamic_cast<const ConflictMsg*>(msg.get())) {
    const auto& ev = m->evidence;
    // Believe the evidence only if both headers are properly signed by
    // the same producer and genuinely conflict — forged evidence must
    // not let an attacker ban honest producers. Mirroring the mempool's
    // two detection shapes, a fork is proven by two different headers
    // at the same height, or by a child whose parent hash contradicts
    // the signed bundle one height below it (the producer must have
    // signed a different parent at that height).
    const bool same_height_fork = ev.first.height == ev.second.height &&
                                  !(ev.first == ev.second);
    const bool parent_fork = ev.second.height == ev.first.height + 1 &&
                             ev.second.parent_hash != ev.first.hash();
    if (ev.first.producer == ev.second.producer &&
        ev.first.producer < ctx_.n() && (same_height_fork || parent_fork)) {
      // Both headers share a producer, so both MACs resolve through
      // one registry lock.
      const PublicKey& key = mempool_.producer_key(ev.first.producer);
      const std::vector<HeaderSigCheck> checks = {{&ev.first, &key},
                                                  {&ev.second, &key}};
      bool ok[2] = {false, false};
      if (verify_bundle_signatures(checks, ok) == 2) {
        apply_ban(ev.first.producer);
      }
    }
    return true;
  }
  return false;
}

void PredisEngine::apply_ban(NodeId producer) {
  mempool_.ban(producer);
  if (tracer_ != nullptr) {
    tracer_->record_ban(static_cast<NodeId>(ctx_.index()), producer,
                        ctx_.now());
  }
  if (cfg_.ban_duration <= 0) return;
  // One rejoin grant per ban. Duplicate ConflictMsgs for the same
  // offence (every honest node broadcasts one) must not arm extra
  // timers: a stale timer firing after the producer already rejoined
  // would call allow_rejoin again, wiping the fresh post-rejoin chain
  // suffix and — when the producer is this node — resetting
  // own_height_/own_parent_hash_ so the next bundle equivocates against
  // our own earlier production.
  if (!pending_rejoins_.insert(producer).second) return;
  // The pending_rejoins_ guard above is the cancellation discipline:
  // exactly one grant timer per ban, erased when it fires.
  PREDIS_FIRE_AND_FORGET(ctx_.after(cfg_.ban_duration, [this, producer] {
    pending_rejoins_.erase(producer);
    mempool_.allow_rejoin(producer);
    if (tracer_ != nullptr) {
      tracer_->record_unban(static_cast<NodeId>(ctx_.index()), producer,
                            ctx_.now());
    }
    if (producer == ctx_.index()) {
      // We served our sentence: restart our chain with a new genesis
      // bundle at the confirmed height.
      own_height_ = mempool_.confirmed()[producer];
      own_parent_hash_ = kZeroHash;
    }
  }));
}

void PredisEngine::add_bundle(NodeId from, const Bundle& bundle,
                              VerifiedChecks verified) {
  const AddBundleResult result = mempool_.add(bundle, nullptr, verified);
  switch (result) {
    case AddBundleResult::kAdded: {
      if (outstanding_fetches_.erase({bundle.header.producer,
                                      bundle.header.height}) > 0) {
        // A fetch was answered: current peer is serving us, restart the
        // backoff ladder from the fast end.
        fetch_.progress();
      }
      if (tracer_ != nullptr) {
        tracer_->record_store(bundle.header.hash(), ctx_.now(),
                              static_cast<NodeId>(ctx_.index()));
      }
      if (on_bundle_stored) on_bundle_stored(bundle);
      if (on_mempool_grew) on_mempool_grew();
      flush_deferred();
      break;
    }
    case AddBundleResult::kMissingParent: {
      // Rule 1: ask the producer for the gap (contiguous+1 .. height-1).
      // The gap size comes from a message-carried height a Byzantine
      // producer can sign at any absurd value, so the span is capped:
      // a window above the contiguous height is fetched now and the
      // rest follows incrementally as the chain actually extends.
      std::vector<MissingBundleRef> refs;
      const BundleHeight from_h =
          mempool_.chain(bundle.header.producer).contiguous_height() + 1;
      const BundleHeight to_h =
          std::min(bundle.header.height,
                   from_h + kMaxFetchSpan);
      for (BundleHeight h = from_h; h < to_h; ++h) {
        refs.push_back({bundle.header.producer, h});
      }
      if (!refs.empty()) request_missing(refs);
      break;
    }
    case AddBundleResult::kConflict:
      // The mempool's on_conflict hook (wired in the constructor)
      // already armed the rejoin timer and broadcast the signed
      // evidence — doing it here too would double-broadcast.
      break;
    default:
      break;
  }
  (void)from;
}

PayloadPtr PredisEngine::build_payload(
    BlockHeight height, View view, const Hash32& parent_hash,
    const std::vector<BundleHeight>& prev_heights) {
  const std::size_t cut_f =
      cfg_.cut_f_override == static_cast<std::size_t>(-1)
          ? ctx_.f()
          : std::min(cfg_.cut_f_override, ctx_.n() - 1);
  PredisBlock block = build_predis_block(
      mempool_, static_cast<NodeId>(ctx_.index()), cut_f, height, view,
      parent_hash, prev_heights, own_key_);
  if (block.header_hashes.empty()) return nullptr;  // nothing new to confirm
  if (tracer_ != nullptr) {
    tracer_->record(TraceStage::kCutProposed, block.hash(), ctx_.now());
  }
  if (on_block_proposal) on_block_proposal(block);
  return std::make_shared<PredisPayload>(std::move(block));
}

Validity PredisEngine::validate_payload(
    const PayloadPtr& payload,
    const std::vector<BundleHeight>& expected_prev) {
  const auto* pp = dynamic_cast<const PredisPayload*>(payload.get());
  if (pp == nullptr) return Validity::kInvalid;
  const PredisBlock& block = pp->block();
  if (tracer_ != nullptr) {
    tracer_->record(TraceStage::kCutProposed, block.hash(), ctx_.now());
  }
  if (on_block_proposal) on_block_proposal(block);
  if (block.prev_heights != expected_prev) return Validity::kInvalid;
  if (block.leader >= ctx_.n()) return Validity::kInvalid;

  // The leader's key is its chain's producer key (same derivation), so
  // no KeyPair is rebuilt — and no key-registry write taken — per block.
  std::vector<MissingBundleRef> missing;
  const BlockVerifyResult result = verify_predis_block(
      mempool_, block, mempool_.producer_key(block.leader), &missing);
  switch (result) {
    case BlockVerifyResult::kOk:
      return Validity::kValid;
    case BlockVerifyResult::kMissingBundles:
      request_missing(missing);
      return Validity::kPending;
    default:
      log_debug("predis block rejected: ", to_string(result));
      return Validity::kInvalid;
  }
}

void PredisEngine::request_missing(const std::vector<MissingBundleRef>& refs) {
  std::map<NodeId, std::vector<MissingBundleRef>> by_producer;
  for (const auto& ref : refs) {
    if (outstanding_fetches_.count({ref.chain, ref.height}) != 0) continue;
    outstanding_fetches_.insert({ref.chain, ref.height});
    by_producer[ref.chain].push_back(ref);
  }
  // First attempt goes to the bundle producer itself (§III-D).
  for (auto& [chain, chain_refs] : by_producer) {
    auto msg = std::make_shared<BundleFetchMsg>();
    msg->refs = std::move(chain_refs);
    ctx_.send_node(ctx_.node(chain), std::move(msg));
  }
  arm_fetch_retry();
}

void PredisEngine::arm_fetch_retry() {
  if (!outstanding_fetches_.empty() && !fetch_.armed()) {
    fetch_.arm([this] { retry_fetches(); });
  }
}

void PredisEngine::retry_fetches() {
  // Drop satisfied refs, re-request the rest from *other available
  // nodes* (§III-D) — the producer may be withholding. The stall
  // detector walks a deterministic peer ladder instead of rolling a
  // random target, and the jittered backoff spreads re-requests from
  // nodes that healed at the same instant.
  std::vector<MissingBundleRef> still_missing;
  for (const auto& [chain, height] : outstanding_fetches_) {
    if (!mempool_.chain(chain).has(height)) {
      still_missing.push_back({chain, height});
    }
  }
  outstanding_fetches_.clear();
  if (still_missing.empty()) {
    fetch_.progress();
    return;
  }

  for (const auto& ref : still_missing) {
    outstanding_fetches_.insert({ref.chain, ref.height});
  }
  fetch_.retry();
  auto msg = std::make_shared<BundleFetchMsg>();
  msg->refs = std::move(still_missing);
  ctx_.send_to(fetch_.peer(), std::move(msg));
  fetch_.arm([this] { retry_fetches(); });
}

void PredisEngine::commit_block(std::uint64_t slot,
                                const PayloadPtr& payload) {
  deferred_commits_.emplace(slot, payload);
  flush_deferred();
}

void PredisEngine::fast_forward(const std::vector<BundleHeight>& cut,
                                std::uint64_t upto_slot) {
  mempool_.confirm(cut);
  for (std::size_t i = 0; i < last_cut_.size() && i < cut.size(); ++i) {
    last_cut_[i] = std::max(last_cut_[i], cut[i]);
  }
  deferred_commits_.erase(deferred_commits_.begin(),
                          deferred_commits_.upper_bound(upto_slot));
  flush_deferred();
}

std::size_t PredisEngine::unconfirmed_txs() const {
  // A walk over at most kUnconfirmedTxCap / bundle_size own bundles;
  // heights whose bundle the mempool rejected or a rejoin erased hold
  // nothing.
  const BundleChain& own = mempool_.chain(ctx_.index());
  std::size_t txs = 0;
  for (BundleHeight h = mempool_.confirmed()[ctx_.index()] + 1;
       h <= own_height_; ++h) {
    if (const Bundle* b = own.get(h)) txs += b->txs.size();
  }
  return txs;
}

void PredisEngine::flush_deferred() {
  while (!deferred_commits_.empty()) {
    const auto it = deferred_commits_.begin();
    // Hold the payload past the erase below: once the consensus core
    // GC's its slot log, this map entry may be the last owner, and
    // `block` must outlive the execution callbacks.
    const PayloadPtr payload = it->second;
    const auto* pp = dynamic_cast<const PredisPayload*>(payload.get());
    if (pp == nullptr) {
      deferred_commits_.erase(it);
      continue;
    }
    const PredisBlock& block = pp->block();

    // All referenced bundles must be present to execute.
    std::vector<MissingBundleRef> missing;
    for (std::size_t i = 0; i < block.cut_heights.size(); ++i) {
      for (BundleHeight h = block.prev_heights[i] + 1;
           h <= block.cut_heights[i]; ++h) {
        if (!mempool_.chain(i).has(h)) missing.push_back({(NodeId)i, h});
      }
    }
    if (!missing.empty()) {
      request_missing(missing);
      return;  // retry when bundles arrive
    }

    const std::vector<Transaction> txs =
        extract_transactions(mempool_, block);
    const Hash32 tx_root = executed_tx_root(mempool_, block, txs);
    mempool_.confirm(block.cut_heights);
    for (std::size_t i = 0; i < last_cut_.size(); ++i) {
      last_cut_[i] = std::max(last_cut_[i], block.cut_heights[i]);
    }
    const std::uint64_t slot = it->first;
    deferred_commits_.erase(it);
    if (tracer_ != nullptr) {
      tracer_->record(TraceStage::kBlockCommitted, block.hash(), ctx_.now());
    }
    if (on_execute) on_execute(slot, block, txs, tx_root);
    if (on_block_executed) on_block_executed(block, txs);
  }
}

}  // namespace predis::consensus::predis
