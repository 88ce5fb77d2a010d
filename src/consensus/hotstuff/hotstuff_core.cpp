#include "consensus/hotstuff/hotstuff_core.hpp"

#include "common/block_tracer.hpp"
#include "common/codec.hpp"
#include "consensus/payloads.hpp"

namespace predis::consensus::hotstuff {

Hash32 block_hash(Round round, const Hash32& parent, const Hash32& justify,
                  const Hash32& payload_digest) {
  Writer w;
  w.u64(round);
  w.hash(parent);
  w.hash(justify);
  w.hash(payload_digest);
  return Sha256::hash(w.data());
}

BlockPtr make_block(Round round, const Hash32& parent, QuorumCert justify,
                    PayloadPtr payload) {
  auto b = std::make_shared<HsBlock>();
  b->round = round;
  b->parent = parent;
  b->justify = justify;
  b->payload = std::move(payload);
  b->hash = block_hash(round, parent, justify.block_hash,
                       b->payload->digest());
  return b;
}

namespace {
bool is_empty_payload(const PayloadPtr& p) {
  return dynamic_cast<const EmptyPayload*>(p.get()) != nullptr;
}
}  // namespace

HotStuffCore::HotStuffCore(NodeContext ctx, HotStuffApp& app)
    : ctx_(std::move(ctx)),
      app_(app),
      // Default recovery jitter stream: deterministic per node id, so a
      // run replays byte-identically; campaigns reseed per run via
      // set_recovery_seed().
      rng_(0x243f6a8885a308d3ULL ^
           (static_cast<std::uint64_t>(ctx_.self()) + 1)),
      catch_up_(ctx_, rng_, {}, kCatchUpAttempts) {
  // Genesis block at round 0, certified by a built-in QC.
  auto genesis = make_block(0, kZeroHash, QuorumCert{},
                            std::make_shared<EmptyPayload>());
  genesis_hash_ = genesis->hash;
  committed_hash_ = genesis_hash_;
  locked_hash_ = genesis_hash_;
  blocks_.emplace(genesis_hash_, std::move(genesis));
  high_qc_ = QuorumCert{0, genesis_hash_, ctx_.quorum()};
}

void HotStuffCore::start() { try_propose(); }

const HsBlock* HotStuffCore::get_block(const Hash32& hash) const {
  const auto it = blocks_.find(hash);
  return it == blocks_.end() ? nullptr : it->second.get();
}

bool HotStuffCore::handle(NodeId from, const runtime::MsgPtr& msg) {
  const std::size_t idx = ctx_.index_of(from);
  if (const auto* m = dynamic_cast<const ProposalMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_proposal(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const VoteMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_vote(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const NewViewMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_new_view(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const HsCatchUpRequestMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_catch_up_request(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const HsBlockBatchMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_block_batch(idx, *m);
    return true;
  }
  return false;
}

void HotStuffCore::payload_ready() {
  if (paused_) return;
  want_progress_ = true;
  arm_round_timer();
  try_propose();
}

void HotStuffCore::on_proposal(std::size_t from, const ProposalMsg& msg) {
  const BlockPtr& block = msg.block;
  if (block == nullptr || block->payload == nullptr) return;
  if (from != leader_index(block->round, ctx_.n())) return;
  // Modeled QC verification: a genuine certificate aggregates at least
  // quorum() signatures; a forged justify would otherwise both poison
  // high_qc and trick the voting rule (justify.round > locked_round)
  // into voting for an unreachable round, killing liveness.
  if (block->justify.signers < ctx_.quorum()) return;
  if (blocks_.count(block->hash) != 0) return;

  if (blocks_.count(block->parent) == 0) {
    orphans_.emplace(block->parent, block);
    // An orphan far above our commit frontier means we missed the
    // chain in between (downtime / partition): fetch it from the
    // proposer instead of hoarding orphans forever. The slack skips
    // the normal uncommitted suffix (three-chain depth) plus a little
    // out-of-order delivery.
    if (block->round > committed_round_ + 4) {
      note_lag(block->round, from);
    }
    return;
  }
  store_block(block);
  process_block(block);
  try_flush_orphans();
}

void HotStuffCore::store_block(BlockPtr block) {
  const Hash32 hash = block->hash;
  const Round round = block->round;
  blocks_.emplace(hash, std::move(block));
  blocks_by_round_.emplace(round, hash);

  // Votes may have arrived before the block: try to form the QC now.
  const auto vit = votes_.find(round);
  if (vit != votes_.end()) {
    const auto dit = vit->second.find(hash);
    if (dit != vit->second.end() && dit->second.size() >= ctx_.quorum()) {
      update_high_qc(QuorumCert{round, hash, dit->second.size()});
      advance_round(round + 1);
      try_propose();
    }
  }
}

void HotStuffCore::try_flush_orphans() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (blocks_.count(it->first) == 0) {
        ++it;
        continue;
      }
      BlockPtr block = it->second;
      it = orphans_.erase(it);
      if (blocks_.count(block->hash) == 0) {
        store_block(block);
        process_block(block);
        progressed = true;
      }
    }
  }
}

void HotStuffCore::process_block(const BlockPtr& block) {
  update_high_qc(block->justify);

  // Chain rules (chained HotStuff): b'' = justify target, b' its justify
  // target, b the one below. Lock on the 2-chain, commit on a 3-chain of
  // consecutive rounds.
  const HsBlock* b2 = get_block(block->justify.block_hash);
  if (b2 != nullptr) {
    const HsBlock* b1 = get_block(b2->justify.block_hash);
    if (b1 != nullptr) {
      if (b1->round > locked_round_) {
        locked_round_ = b1->round;
        locked_hash_ = b1->hash;
      }
      const HsBlock* b0 = get_block(b1->justify.block_hash);
      if (b0 != nullptr && b2->round == b1->round + 1 &&
          b1->round == b0->round + 1 && b0->round > committed_round_) {
        commit_chain(*b0);
      }
    }
  }

  try_vote(block);
  advance_round(block->round + 1);
}

void HotStuffCore::try_vote(const BlockPtr& block) {
  if (paused_) return;
  if (block->round <= last_voted_round_) return;
  // Safety rule: extend the locked block, or see a newer QC.
  if (!(block->justify.round > locked_round_ ||
        extends(block->hash, locked_hash_))) {
    return;
  }

  Validity validity;
  if (is_empty_payload(block->payload)) {
    validity = Validity::kValid;
  } else {
    validity = app_.validate(block->round, block->payload,
                             ancestors_of(block->parent));
  }
  if (validity == Validity::kInvalid) return;
  if (validity == Validity::kPending) {
    pending_validation_[block->round] = block;
    return;
  }

  last_voted_round_ = block->round;
  send_vote(block->round, block->hash);
}

void HotStuffCore::send_vote(Round round, const Hash32& hash) {
  // Votes go to the next leader — and to the one after it. With a
  // strict round-robin pacemaker, a single crashed node would otherwise
  // swallow exactly the QC that completes every three-chain (votes for
  // the round before its turn are addressed to it), stalling commits
  // forever at n = 4. Double-targeting is the standard hardening and
  // keeps the vote pattern O(n).
  auto vote = std::make_shared<VoteMsg>();
  vote->round = round;
  vote->block_hash = hash;
  const std::size_t first = leader_index(round + 1, ctx_.n());
  const std::size_t second = leader_index(round + 2, ctx_.n());
  for (const std::size_t target : {first, second}) {
    if (target == second && second == first) break;  // n == 1 edge case
    if (target == ctx_.index()) {
      on_vote(ctx_.index(), *vote);
    } else {
      ctx_.send_to(target, vote);
    }
  }
}

void HotStuffCore::revalidate() {
  if (paused_) return;
  while (!pending_validation_.empty()) {
    const auto it = pending_validation_.begin();
    BlockPtr block = it->second;
    if (block->round <= last_voted_round_) {
      // We already voted past this round; the chance is gone.
      pending_validation_.erase(it);
      continue;
    }
    const Validity validity = app_.validate(block->round, block->payload,
                                            ancestors_of(block->parent));
    if (validity == Validity::kPending) return;  // still waiting
    pending_validation_.erase(it);
    if (validity == Validity::kInvalid) continue;
    last_voted_round_ = block->round;
    send_vote(block->round, block->hash);
  }
}

void HotStuffCore::on_vote(std::size_t from, const VoteMsg& msg) {
  auto& voters = votes_[msg.round][msg.block_hash];
  voters.insert(from);
  if (voters.size() != ctx_.quorum()) return;
  if (blocks_.count(msg.block_hash) == 0) return;  // QC formed on arrival

  update_high_qc(QuorumCert{msg.round, msg.block_hash, voters.size()});
  advance_round(msg.round + 1);
  // advance_round may have been a no-op (we already entered this round
  // when the proposal arrived); with the QC in hand we can propose now.
  try_propose();
}

void HotStuffCore::on_new_view(std::size_t from, const NewViewMsg& msg) {
  // Only adopt a QC whose (modeled) aggregate signature verifies — one
  // forged NewView would otherwise pin high_qc at an absurd round for
  // the rest of the run.
  if (msg.high_qc.signers >= ctx_.quorum()) update_high_qc(msg.high_qc);
  auto& senders = new_views_[msg.round];
  senders.insert(from);
  if (leader_index(msg.round, ctx_.n()) == ctx_.index() &&
      senders.size() >= ctx_.quorum()) {
    advance_round(msg.round);
    try_propose();
  }
}

void HotStuffCore::update_high_qc(const QuorumCert& qc) {
  if (qc.round > high_qc_.round) {
    high_qc_ = qc;
  }
}

void HotStuffCore::advance_round(Round round) {
  if (round <= cur_round_) return;
  cur_round_ = round;
  round_timer_.cancel();
  if (want_progress_) arm_round_timer();
  try_propose();
}

void HotStuffCore::try_propose() {
  if (paused_) return;
  if (leader_index(cur_round_, ctx_.n()) != ctx_.index()) return;
  if (proposed_round_ >= cur_round_) return;

  // A leader may propose when it holds the QC of the previous round, or
  // when a quorum of NewView messages lets it re-anchor on high_qc.
  const bool fresh_qc = high_qc_.round + 1 == cur_round_;
  const auto nv = new_views_.find(cur_round_);
  const bool timeout_quorum =
      nv != new_views_.end() && nv->second.size() >= ctx_.quorum();
  if (!fresh_qc && !timeout_quorum) return;

  // Past the load-stop point cut no new payload, but keep the rounds
  // turning with empty blocks below: an in-flight payload needs two
  // more chained rounds to reach its three-chain commit, and stopping
  // cold would strand it as a cut-proposed trace entry with no commit.
  PayloadPtr payload =
      ctx_.now() < ctx_.config().propose_until
          ? app_.make_payload(cur_round_, ancestors_of(high_qc_.block_hash))
          : nullptr;
  if (payload == nullptr) {
    // Keep the pipeline moving only if an uncommitted real payload
    // needs the extra rounds to reach its three-chain commit.
    if (!has_uncommitted_payload()) return;
    payload = std::make_shared<EmptyPayload>();
  }

  proposed_round_ = cur_round_;
  if (tracer_ != nullptr && !is_empty_payload(payload)) {
    tracer_->record(TraceStage::kCutProposed, payload->digest(), ctx_.now());
  }
  BlockPtr block =
      make_block(cur_round_, high_qc_.block_hash, high_qc_, std::move(payload));
  store_block(block);

  auto msg = std::make_shared<ProposalMsg>();
  msg->block = block;
  ctx_.broadcast(msg);
  want_progress_ = true;
  arm_round_timer();
  process_block(block);
}

void HotStuffCore::commit_chain(const HsBlock& anchor) {
  // Collect the uncommitted chain anchor .. committed (exclusive).
  std::vector<const HsBlock*> chain;
  const HsBlock* cursor = &anchor;
  while (cursor != nullptr && cursor->hash != committed_hash_ &&
         cursor->round > 0) {
    chain.push_back(cursor);
    cursor = get_block(cursor->parent);
  }
  committed_round_ = anchor.round;
  committed_hash_ = anchor.hash;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!is_empty_payload((*it)->payload)) {
      if (tracer_ != nullptr) {
        tracer_->record(TraceStage::kBlockCommitted,
                        (*it)->payload->digest(), ctx_.now());
      }
      app_.on_commit((*it)->round, (*it)->payload);
    }
  }
  if (!has_uncommitted_payload() && pending_validation_.empty()) {
    want_progress_ = false;
    round_timer_.cancel();
  }
  prune_blocks();
}

// --- Catch-up protocol -------------------------------------------------

void HotStuffCore::on_restart() {
  if (paused_) return;
  // The node was down or cut off: it may have missed arbitrarily many
  // rounds. Probe every peer once — the first useful answer fixes the
  // preferred sync peer — instead of resuming blind into a timeout.
  catch_up_.stop();
  begin_catch_up(ctx_.n());
}

void HotStuffCore::note_lag(Round round, std::size_t from) {
  if (round > lag_round_) lag_round_ = round;
  begin_catch_up(from);
}

void HotStuffCore::begin_catch_up(std::size_t prefer) {
  catch_up_.prefer(prefer);
  if (!catch_up_.begin()) return;
  request_catch_up(prefer >= ctx_.n());
}

void HotStuffCore::request_catch_up(bool broadcast) {
  auto msg = std::make_shared<HsCatchUpRequestMsg>();
  msg->have_round = committed_round_;
  if (broadcast) {
    ctx_.broadcast(msg);
  } else {
    ctx_.send_to(catch_up_.peer(), std::move(msg));
  }
  catch_up_.arm([this] { catch_up_tick(); });
}

void HotStuffCore::catch_up_tick() {
  if (paused_) catch_up_.stop();
  if (!catch_up_.active()) return;
  if (cur_round_ >= lag_round_ && catch_up_.attempt() > 0) {
    catch_up_.stop();
    return;
  }
  if (!catch_up_.retry()) {
    // Nobody can serve this gap: stale or forged lag evidence. Stand
    // down; fresh evidence re-arms.
    lag_round_ = cur_round_;
    return;
  }
  request_catch_up(false);
}

void HotStuffCore::on_catch_up_request(std::size_t from,
                                       const HsCatchUpRequestMsg& msg) {
  if (committed_round_ <= msg.have_round) return;  // not ahead
  // Committed chain segment, newest kMaxBlockSpan blocks above the
  // requester's frontier (bounds-checked: have_round is attacker-
  // controlled, so the reply never exceeds kMaxBlockSpan blocks). If
  // the gap is deeper than our retained chain, the requester
  // jump-adopts the newest certified span — snapshot semantics.
  std::vector<HsBlockBatchMsg::Entry> committed;
  const HsBlock* cursor = get_block(committed_hash_);
  while (cursor != nullptr && cursor->round > msg.have_round &&
         cursor->round > 0 && committed.size() < kMaxBlockSpan) {
    // Every committed block is backed by the three-chain a quorum
    // certified; model the commit certificate as quorum signers.
    committed.push_back({blocks_.at(cursor->hash), ctx_.quorum()});
    cursor = get_block(cursor->parent);
  }
  // Uncommitted suffix up to high_qc: lets the requester rejoin voting
  // without waiting for the next three-chain. No commit certificate —
  // the receiver runs these through the normal chain rules.
  std::vector<HsBlockBatchMsg::Entry> suffix;
  cursor = get_block(high_qc_.block_hash);
  while (cursor != nullptr && cursor->hash != committed_hash_ &&
         cursor->round > 0) {
    suffix.push_back({blocks_.at(cursor->hash), 0});
    cursor = get_block(cursor->parent);
  }
  auto reply = std::make_shared<HsBlockBatchMsg>();
  for (auto it = committed.rbegin(); it != committed.rend(); ++it) {
    reply->entries.push_back(std::move(*it));
  }
  for (auto it = suffix.rbegin(); it != suffix.rend(); ++it) {
    if (reply->entries.size() >= kMaxBlockSpan) break;
    reply->entries.push_back(std::move(*it));
  }
  if (!reply->entries.empty()) ctx_.send_to(from, std::move(reply));
}

void HotStuffCore::on_block_batch(std::size_t from,
                                  const HsBlockBatchMsg& msg) {
  bool progressed = false;
  for (const auto& e : msg.entries) {
    if (e.block == nullptr || e.block->payload == nullptr) continue;
    if (e.commit_proof >= ctx_.quorum()) {
      if (e.block->round > committed_round_) {
        adopt_committed(e.block, e.commit_proof);
        progressed = true;
      }
    } else {
      // Uncommitted suffix: same admission rules as a proposal — the
      // justify QC must verify; the chain rules derive locks/commits.
      if (e.block->justify.signers < ctx_.quorum()) continue;
      if (blocks_.count(e.block->hash) != 0) continue;
      if (blocks_.count(e.block->parent) == 0) {
        orphans_.emplace(e.block->parent, e.block);
        continue;
      }
      store_block(e.block);
      process_block(e.block);
      progressed = true;
    }
  }
  if (!progressed) return;
  ++catch_up_batches_;
  try_flush_orphans();
  catch_up_.progress(from);
  if (catch_up_.active()) {
    if (cur_round_ >= lag_round_) {
      catch_up_.stop();
    } else {
      request_catch_up(false);
    }
  }
  prune_blocks();
}

void HotStuffCore::adopt_committed(const BlockPtr& block,
                                   std::size_t commit_proof) {
  if (blocks_.count(block->hash) == 0) {
    blocks_.emplace(block->hash, block);
    blocks_by_round_.emplace(block->round, block->hash);
  }
  committed_round_ = block->round;
  committed_hash_ = block->hash;
  if (block->round > locked_round_) {
    locked_round_ = block->round;
    locked_hash_ = block->hash;
  }
  if (last_voted_round_ < block->round) last_voted_round_ = block->round;
  // The commit certificate doubles as a QC on the block itself, so a
  // leader can extend the adopted frontier immediately.
  update_high_qc(QuorumCert{block->round, block->hash, commit_proof});
  if (!is_empty_payload(block->payload)) {
    if (tracer_ != nullptr) {
      tracer_->record(TraceStage::kBlockCommitted, block->payload->digest(),
                      ctx_.now());
    }
    app_.on_commit(block->round, block->payload);
  }
  advance_round(block->round + 1);
}

void HotStuffCore::prune_blocks() {
  if (committed_round_ <= kBlockRetention) return;
  const Round floor = committed_round_ - kBlockRetention;
  // Walk the round-ordered index, not blocks_ itself: GC order must be
  // deterministic, and blocks_ is an unordered map.
  for (auto it = blocks_by_round_.begin();
       it != blocks_by_round_.end() && it->first < floor;) {
    // Keep genesis (chain-rule walks bottom out there) and the commit
    // frontier itself; everything committed below the retention window
    // only existed to serve catch-up and can go.
    if (it->first == 0 || it->second == committed_hash_) {
      ++it;
      continue;
    }
    const auto bit = blocks_.find(it->second);
    if (bit != blocks_.end()) {
      const HsBlock& b = *bit->second;
      gc_.add(48 + b.justify.wire_size() +
              (b.payload != nullptr ? b.payload->wire_size() : 0));
      blocks_.erase(bit);
    }
    it = blocks_by_round_.erase(it);
  }
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    if (it->second->round <= committed_round_) {
      gc_.add(48 + (it->second->payload != nullptr
                        ? it->second->payload->wire_size()
                        : 0));
      it = orphans_.erase(it);
    } else {
      ++it;
    }
  }
  votes_.erase(votes_.begin(), votes_.lower_bound(floor));
  new_views_.erase(new_views_.begin(), new_views_.lower_bound(floor));
}

std::vector<PayloadPtr> HotStuffCore::ancestors_of(
    const Hash32& parent_hash) const {
  std::vector<PayloadPtr> out;
  const HsBlock* cursor = get_block(parent_hash);
  while (cursor != nullptr && cursor->hash != committed_hash_ &&
         cursor->round > 0) {
    out.push_back(cursor->payload);
    cursor = get_block(cursor->parent);
  }
  return out;
}

bool HotStuffCore::extends(const Hash32& descendant,
                           const Hash32& ancestor) const {
  const HsBlock* cursor = get_block(descendant);
  const HsBlock* target = get_block(ancestor);
  if (target == nullptr) return false;
  while (cursor != nullptr) {
    if (cursor->hash == ancestor) return true;
    if (cursor->round <= target->round) return false;
    cursor = get_block(cursor->parent);
  }
  return false;
}

bool HotStuffCore::has_uncommitted_payload() const {
  const HsBlock* cursor = get_block(high_qc_.block_hash);
  while (cursor != nullptr && cursor->hash != committed_hash_ &&
         cursor->round > 0) {
    if (!is_empty_payload(cursor->payload)) return true;
    cursor = get_block(cursor->parent);
  }
  return false;
}

void HotStuffCore::arm_round_timer() {
  if (round_timer_.scheduled()) return;
  round_timer_ = ctx_.after(ctx_.config().view_timeout,
                            [this] { on_round_timeout(); });
}

void HotStuffCore::on_round_timeout() {
  if (paused_ || !want_progress_) return;
  ++timeouts_;
  cur_round_ += 1;
  auto msg = std::make_shared<NewViewMsg>();
  msg->round = cur_round_;
  msg->high_qc = high_qc_;
  const std::size_t leader = leader_index(cur_round_, ctx_.n());
  if (leader == ctx_.index()) {
    on_new_view(ctx_.index(), *msg);
  } else {
    ctx_.send_to(leader, std::move(msg));
    // Count ourselves toward the quorum as well.
    new_views_[cur_round_].insert(ctx_.index());
  }
  round_timer_ = ctx_.after(ctx_.config().view_timeout,
                            [this] { on_round_timeout(); });
}

}  // namespace predis::consensus::hotstuff
