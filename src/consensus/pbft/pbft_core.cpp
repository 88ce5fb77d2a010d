#include "consensus/pbft/pbft_core.hpp"

#include <algorithm>

#include "common/block_tracer.hpp"
#include "common/log.hpp"
#include "consensus/payloads.hpp"

namespace predis::consensus::pbft {

PbftCore::PbftCore(NodeContext ctx, PbftApp& app)
    : ctx_(std::move(ctx)),
      app_(app),
      // Default recovery jitter stream: deterministic per node id, so a
      // run replays byte-identically; campaigns reseed per run via
      // set_recovery_seed().
      rng_(0x9e3779b97f4a7c15ULL ^
           (static_cast<std::uint64_t>(ctx_.self()) + 1)),
      catch_up_(ctx_, rng_, {}, kCatchUpAttempts) {}

void PbftCore::start() {
  if (is_leader()) try_propose();
}

PbftCore::Slot& PbftCore::slot(SeqNum seq) { return slots_[seq]; }

void PbftCore::payload_ready() {
  if (paused_) return;
  want_progress_ = true;
  if (is_leader()) {
    try_propose();
  } else {
    // A replica with work outstanding expects the leader to make
    // progress within the view timeout.
    arm_view_timer();
  }
}

void PbftCore::try_propose() {
  if (paused_ || !is_leader()) return;
  // Past the load-stop point only in-flight slots drain; cutting a new
  // payload here would strand it mid-protocol when the harness stops.
  if (ctx_.now() >= ctx_.config().propose_until) return;
  if (next_propose_ <= last_exec_) next_propose_ = last_exec_ + 1;
  // Propose every slot the pipelining window allows (window_ == 1
  // reproduces the strictly serialized round model).
  while (next_propose_ <= last_exec_ + window_) {
    const SeqNum seq = next_propose_;
    PayloadPtr payload = app_.make_payload(seq);
    if (payload == nullptr) return;

    ++next_propose_;
    want_progress_ = true;
    if (tracer_ != nullptr) {
      tracer_->record(TraceStage::kCutProposed, payload->digest(),
                      ctx_.now());
    }
    Slot& s = slot(seq);
    s.view = view_;
    s.payload = payload;
    s.digest = payload->digest();
    s.preprepared = true;
    s.validity = Validity::kValid;  // leaders trust their own payload

    auto msg = std::make_shared<PrePrepareMsg>();
    msg->view = view_;
    msg->seq = seq;
    msg->payload = payload;
    ctx_.broadcast(msg);
    arm_view_timer();
    maybe_send_prepare(seq);
  }
}

bool PbftCore::handle(NodeId from, const runtime::MsgPtr& msg) {
  const std::size_t idx = ctx_.index_of(from);
  if (const auto* m = dynamic_cast<const PrePrepareMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_preprepare(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const PrepareMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_prepare(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const CommitMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_commit_msg(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const ViewChangeMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_view_change(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const NewViewMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_new_view(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const CheckpointMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_checkpoint(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const StateSnapshotMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_state_snapshot(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const CatchUpRequestMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_catch_up_request(idx, *m);
    return true;
  }
  if (const auto* m = dynamic_cast<const CatchUpBatchMsg*>(msg.get())) {
    if (!paused_ && idx < ctx_.n()) on_catch_up_batch(idx, *m);
    return true;
  }
  return false;
}

void PbftCore::on_preprepare(std::size_t from, const PrePrepareMsg& msg) {
  if (msg.view != view_) return;
  if (from != leader_index(view_, ctx_.n())) return;
  if (msg.seq <= last_exec_) return;
  if (msg.seq > last_exec_ + kSeqWindow) {
    // The leader is proposing far beyond our log window: we slept
    // through whole slots. Start catching up from the leader.
    note_lag(msg.seq, from);
    return;
  }
  if (msg.payload == nullptr) return;

  Slot& s = slot(msg.seq);
  if (s.preprepared && s.view == msg.view) return;  // duplicate
  s.view = msg.view;
  s.payload = msg.payload;
  s.digest = msg.payload->digest();
  s.preprepared = true;
  s.validity = app_.validate(msg.seq, msg.payload);
  want_progress_ = true;
  arm_view_timer();
  maybe_send_prepare(msg.seq);
}

void PbftCore::maybe_send_prepare(SeqNum seq) {
  Slot& s = slot(seq);
  if (!s.preprepared || s.sent_prepare) return;
  if (s.validity == Validity::kPending) return;
  if (s.validity == Validity::kInvalid) return;  // refuse to vote

  s.sent_prepare = true;
  auto msg = std::make_shared<PrepareMsg>();
  msg->view = s.view;
  msg->seq = seq;
  msg->digest = s.digest;
  ctx_.broadcast(msg);
  // Count own vote.
  s.prepares[s.digest].insert(ctx_.index());
  maybe_send_commit(seq);
}

void PbftCore::revalidate(SeqNum seq) {
  if (paused_) return;
  auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& s = it->second;
  if (!s.preprepared || s.validity != Validity::kPending) return;
  s.validity = app_.validate(seq, s.payload);
  maybe_send_prepare(seq);
}

void PbftCore::on_prepare(std::size_t from, const PrepareMsg& msg) {
  if (msg.view != view_ || msg.seq <= last_exec_) return;
  if (msg.seq > last_exec_ + kSeqWindow) {
    note_lag(msg.seq, from);
    return;
  }
  Slot& s = slot(msg.seq);
  s.prepares[msg.digest].insert(from);
  maybe_send_commit(msg.seq);
}

void PbftCore::maybe_send_commit(SeqNum seq) {
  Slot& s = slot(seq);
  if (!s.preprepared || !s.sent_prepare || s.sent_commit) return;
  // Prepared: 2f matching prepares besides the pre-prepare — with our
  // self-counted vote this is quorum() votes for the digest.
  if (s.prepares[s.digest].size() < ctx_.quorum()) return;

  s.sent_commit = true;
  // Prepared: record the certificate. It outlives view changes and
  // execution so later ViewChangeMsgs can still attest to this value.
  s.has_prepared = true;
  s.prepared_view = s.view;
  s.prepared_payload = s.payload;
  auto msg = std::make_shared<CommitMsg>();
  msg->view = s.view;
  msg->seq = seq;
  msg->digest = s.digest;
  ctx_.broadcast(msg);
  s.commits[s.digest].insert(ctx_.index());
  maybe_execute(seq);
}

void PbftCore::on_commit_msg(std::size_t from, const CommitMsg& msg) {
  if (msg.view != view_ || msg.seq <= last_exec_) return;
  if (msg.seq > last_exec_ + kSeqWindow) {
    note_lag(msg.seq, from);
    return;
  }
  Slot& s = slot(msg.seq);
  s.commits[msg.digest].insert(from);
  maybe_execute(msg.seq);
}

void PbftCore::maybe_execute(SeqNum seq) {
  {
    Slot& s = slot(seq);
    if (s.executed || !s.preprepared) return;
    if (s.commits[s.digest].size() < ctx_.quorum()) return;
    if (seq != last_exec_ + 1) return;  // in-order execution

    s.executed = true;
    last_exec_ = seq;
    if (tracer_ != nullptr) {
      tracer_->record(TraceStage::kBlockCommitted, s.digest, ctx_.now());
    }
    app_.on_commit(seq, s.payload);
  }
  // Executed slots stay in the log until a stable checkpoint covers
  // them: their prepared certificates are what a view change re-proposes
  // to peers that have not executed this far yet, and their payloads
  // are what catch-up batches stream to lagging replicas.
  prune_slots_below(std::min(stable_checkpoint_, seq));
  maybe_checkpoint(seq);

  // With pipelining, the next slot may already have its commit quorum.
  const auto next = slots_.find(seq + 1);
  if (next != slots_.end() && next->second.preprepared &&
      next->second.commits[next->second.digest].size() >= ctx_.quorum()) {
    maybe_execute(seq + 1);
    return;
  }
  // Progress happened: reset the view timer. Quiesce it entirely when
  // nothing remains in flight; otherwise re-arm so the timeout measures
  // "no progress within T", not "pipeline non-empty for T".
  bool in_flight = false;
  for (const auto& [sq, sl] : slots_) {
    if (!sl.executed && sl.preprepared) in_flight = true;
  }
  disarm_view_timer();
  if (!in_flight) {
    want_progress_ = false;
  } else {
    arm_view_timer();
  }
  if (is_leader()) try_propose();
}

void PbftCore::maybe_checkpoint(SeqNum seq) {
  if (checkpoint_interval_ == 0 || seq % checkpoint_interval_ != 0) return;
  // Capture the snapshot at this boundary so state requests can be
  // served with exactly the certified state.
  snapshot_seq_ = seq;
  snapshot_blob_ = app_.make_snapshot();
  snapshot_digest_ = app_.state_digest();

  auto msg = std::make_shared<CheckpointMsg>();
  msg->seq = seq;
  msg->digest = snapshot_digest_;
  ctx_.broadcast(msg);
  on_checkpoint(ctx_.index(), *msg);
}

void PbftCore::on_checkpoint(std::size_t from, const CheckpointMsg& msg) {
  if (msg.seq > last_exec_ + kSeqWindow) {
    note_lag(msg.seq, from);
    return;
  }
  auto& voters = ckpt_votes_[msg.seq][msg.digest];
  voters.insert(from);
  if (voters.size() >= ctx_.quorum()) {
    ckpt_certs_[msg.seq] = msg.digest;
    if (msg.seq > stable_checkpoint_) {
      stable_checkpoint_ = msg.seq;
      // Prune vote bookkeeping and the slot log (with its prepared
      // certificates) below the stable checkpoint.
      ckpt_votes_.erase(ckpt_votes_.begin(),
                        ckpt_votes_.lower_bound(stable_checkpoint_));
      prune_slots_below(std::min(stable_checkpoint_, last_exec_));
    }
    // A certified checkpoint far ahead of our execution means we missed
    // whole slots (e.g. we were offline): catch up. Quorum-backed, so a
    // single hostile voter cannot trigger this.
    if (checkpoint_interval_ > 0 &&
        stable_checkpoint_ >= last_exec_ + 2 * checkpoint_interval_) {
      if (stable_checkpoint_ > lag_target_) lag_target_ = stable_checkpoint_;
      begin_catch_up(from);
    }
  }
}

void PbftCore::on_state_snapshot(std::size_t from,
                                 const StateSnapshotMsg& msg) {
  if (msg.seq <= last_exec_) return;
  // Adopt only certified snapshots: either the (seq, digest) matches a
  // quorum-certified checkpoint we observed ourselves, or the message
  // carries a checkpoint certificate reaching quorum (modeled
  // verification — a Byzantine sender cannot forge 2f + 1 signatures).
  const auto cert = ckpt_certs_.find(msg.seq);
  const bool certified =
      (cert != ckpt_certs_.end() && cert->second == msg.digest) ||
      msg.proof >= ctx_.quorum();
  if (!certified) return;

  adopt_snapshot(msg);
  if (catch_up_.active()) {
    catch_up_.progress(from);
    if (last_exec_ >= lag_target_) {
      catch_up_.stop();
    } else {
      // Snapshot landed us at a checkpoint boundary; stream the
      // remaining executed slots from the same peer.
      request_catch_up(false);
    }
  }
}

void PbftCore::adopt_snapshot(const StateSnapshotMsg& msg) {
  app_.apply_snapshot(msg.seq, msg.blob);
  last_exec_ = msg.seq;
  next_propose_ = last_exec_ + 1;
  ++state_transfers_;
  prune_slots_below(last_exec_);
  disarm_view_timer();
  // Resume normal operation from the adopted state.
  if (is_leader()) try_propose();
}

// --- Catch-up protocol -------------------------------------------------

void PbftCore::on_restart() {
  if (paused_) return;
  // The node was down or cut off: it may have missed arbitrarily many
  // slots (and view changes). Probe every peer once — the first useful
  // answer fixes the preferred sync peer — instead of resuming blind
  // into a full view timeout.
  catch_up_.stop();
  begin_catch_up(ctx_.n());
}

void PbftCore::note_lag(SeqNum seq, std::size_t from) {
  const SeqNum capped = std::min(seq, last_exec_ + kSeqWindow);
  if (capped > lag_target_) lag_target_ = capped;
  begin_catch_up(from);
}

void PbftCore::begin_catch_up(std::size_t prefer) {
  catch_up_.prefer(prefer);
  if (!catch_up_.begin()) return;
  // With no preferred peer (restart probe) ask everyone; otherwise ask
  // the peer whose message revealed the lag.
  request_catch_up(prefer >= ctx_.n());
}

void PbftCore::request_catch_up(bool broadcast) {
  auto msg = std::make_shared<CatchUpRequestMsg>();
  msg->have_seq = last_exec_;
  if (broadcast) {
    ctx_.broadcast(msg);
  } else {
    ctx_.send_to(catch_up_.peer(), std::move(msg));
  }
  catch_up_.arm([this] { catch_up_tick(); });
}

void PbftCore::catch_up_tick() {
  if (paused_) catch_up_.stop();
  if (!catch_up_.active()) return;
  if (last_exec_ >= lag_target_ && catch_up_.attempt() > 0) {
    // Caught up (or the restart probe drew no evidence of lag).
    catch_up_.stop();
    return;
  }
  if (!catch_up_.retry()) {
    // Nobody can serve this gap: the lag evidence was stale or forged
    // (beyond-window garbage). Stand down; fresh evidence re-arms.
    lag_target_ = last_exec_;
    return;
  }
  request_catch_up(false);
}

void PbftCore::on_catch_up_request(std::size_t from,
                                   const CatchUpRequestMsg& msg) {
  if (last_exec_ <= msg.have_seq) return;  // not ahead of the requester
  // Bounds-check the requested span before serving: have_seq is
  // attacker-controlled, so the reply is clamped to kMaxCatchUpSpan
  // executed slots; the requester comes back for the rest.
  const SeqNum first = msg.have_seq + 1;
  const auto begin = slots_.find(first);
  if (begin != slots_.end() && begin->second.executed) {
    auto reply = std::make_shared<CatchUpBatchMsg>();
    for (SeqNum seq = first;
         seq <= last_exec_ && reply->entries.size() < kMaxCatchUpSpan;
         ++seq) {
      const auto it = slots_.find(seq);
      if (it == slots_.end() || !it->second.executed) break;
      // Each entry carries the slot's commit certificate (modeled as
      // its signer count: we executed, so we saw a commit quorum).
      reply->entries.push_back({seq, it->second.payload, ctx_.quorum()});
    }
    if (!reply->entries.empty()) {
      ctx_.send_to(from, std::move(reply));
      return;
    }
  }
  // The gap starts below our pruned log floor: serve the certified
  // snapshot instead; the requester streams the remainder afterwards.
  // Attach the checkpoint certificate when we hold one, so receivers
  // that never saw the votes (down during the checkpoint) can verify.
  if (snapshot_seq_ > msg.have_seq) {
    auto reply = std::make_shared<StateSnapshotMsg>();
    reply->seq = snapshot_seq_;
    reply->digest = snapshot_digest_;
    reply->blob = snapshot_blob_;
    reply->proof = ckpt_certs_.count(snapshot_seq_) != 0 ? ctx_.quorum() : 0;
    ctx_.send_to(from, std::move(reply));
  }
}

void PbftCore::on_catch_up_batch(std::size_t from,
                                 const CatchUpBatchMsg& msg) {
  bool progressed = false;
  for (const auto& e : msg.entries) {
    if (e.seq != last_exec_ + 1) continue;  // in-order execution only
    // Modeled commit-certificate check: an entry not backed by 2f + 1
    // commit signatures is a fabrication and must not execute.
    if (e.payload == nullptr || e.proof < ctx_.quorum()) continue;
    Slot& s = slot(e.seq);
    if (s.executed) continue;
    s.view = view_;
    s.payload = e.payload;
    s.digest = e.payload->digest();
    s.preprepared = true;
    s.validity = Validity::kValid;  // certified: a quorum validated it
    s.executed = true;
    last_exec_ = e.seq;
    if (tracer_ != nullptr) {
      tracer_->record(TraceStage::kBlockCommitted, s.digest, ctx_.now());
    }
    app_.on_commit(e.seq, s.payload);
    maybe_checkpoint(e.seq);
    progressed = true;
  }
  if (!progressed) return;
  ++catch_up_batches_;
  if (next_propose_ <= last_exec_) next_propose_ = last_exec_ + 1;
  catch_up_.progress(from);
  if (catch_up_.active()) {
    const bool maybe_more = msg.entries.size() >= kMaxCatchUpSpan;
    if (!maybe_more && last_exec_ >= lag_target_) {
      catch_up_.stop();
    } else {
      request_catch_up(false);
    }
  }
  // Slots buffered while we lagged may already hold commit quorums.
  maybe_execute(last_exec_ + 1);
}

void PbftCore::prune_slots_below(SeqNum floor) {
  const auto end = slots_.upper_bound(floor);
  for (auto it = slots_.begin(); it != end; ++it) {
    const Slot& s = it->second;
    std::size_t bytes = 48;  // header, digests, vote bookkeeping
    if (s.payload != nullptr) bytes += s.payload->wire_size();
    if (s.prepared_payload != nullptr && s.prepared_payload != s.payload) {
      bytes += s.prepared_payload->wire_size();
    }
    gc_.add(bytes);
  }
  slots_.erase(slots_.begin(), end);
}

void PbftCore::arm_view_timer() {
  if (view_timer_.scheduled()) return;
  view_timer_ = ctx_.after(ctx_.config().view_timeout,
                           [this] { on_view_timeout(); });
}

void PbftCore::disarm_view_timer() { view_timer_.cancel(); }

void PbftCore::on_view_timeout() {
  if (paused_) return;
  if (!want_progress_) return;  // idle system: nothing to blame the leader for
  // Suspect the leader; vote to move to the next view.
  const View target = view_ + 1;
  auto msg = std::make_shared<ViewChangeMsg>();
  msg->new_view = target;
  msg->last_exec = last_exec_;
  // P-set: every prepared certificate above the stable checkpoint,
  // including executed-here slots — a peer (or the new leader) may not
  // have executed them, and re-proposing anything else at those
  // sequences would fork the committed history.
  for (const auto& [sq, sl] : slots_) {
    if (sq > stable_checkpoint_ && sl.has_prepared) {
      // An honest replica only records has_prepared behind a full
      // prepare quorum, so the carried proof is quorum-sized.
      msg->prepared.push_back(
          {sl.prepared_view, sq, sl.prepared_payload, ctx_.quorum()});
    }
  }
  ctx_.broadcast(msg);
  vc_votes_[target][ctx_.index()] = *msg;
  // Re-arm: if the view change stalls, try the next view.
  view_timer_ = ctx_.after(ctx_.config().view_timeout,
                           [this] { on_view_timeout(); });
  // Count own vote toward the new view.
  on_view_change(ctx_.index(), *msg);
}

void PbftCore::on_view_change(std::size_t from, const ViewChangeMsg& msg) {
  if (msg.new_view <= view_) return;
  vc_votes_[msg.new_view][from] = msg;
  if (vc_votes_[msg.new_view].size() < ctx_.quorum()) return;
  if (leader_index(msg.new_view, ctx_.n()) != ctx_.index()) return;

  // We are the new leader with a quorum of view-change votes. Copy the
  // votes first: enter_view() prunes vc_votes_ under our feet.
  const std::map<std::size_t, ViewChangeMsg> votes = vc_votes_[msg.new_view];
  enter_view(msg.new_view);
  auto nv = std::make_shared<NewViewMsg>();
  nv->new_view = view_;
  nv->proof = votes.size();
  ctx_.broadcast(nv);

  // Safety carry-over: for every in-flight slot any vote reported as
  // prepared, re-propose the highest-view payload; fill sequence gaps
  // below the highest prepared slot with null requests. Entries whose
  // prepare certificate does not reach quorum are fabrications (a
  // Byzantine voter cannot forge 2f + 1 prepare signatures) and must
  // not be re-proposed — nor be allowed absurd sequence numbers that
  // would make the gap-filling loop spin forever.
  std::map<SeqNum, std::pair<View, PayloadPtr>> carry;
  for (const auto& [idx, vote] : votes) {
    for (const auto& p : vote.prepared) {
      if (p.seq <= last_exec_ || p.payload == nullptr) continue;
      if (p.proof < ctx_.quorum()) continue;
      if (p.seq > last_exec_ + kSeqWindow) continue;
      auto [it, inserted] = carry.try_emplace(p.seq, p.view, p.payload);
      if (!inserted && p.view > it->second.first) {
        it->second = {p.view, p.payload};
      }
    }
  }
  if (!carry.empty()) {
    const SeqNum top = carry.rbegin()->first;
    for (SeqNum seq = last_exec_ + 1; seq <= top; ++seq) {
      PayloadPtr payload;
      const auto it = carry.find(seq);
      payload = it != carry.end() ? it->second.second
                                  : std::make_shared<NoopPayload>();
      Slot& s = slot(seq);
      s.view = view_;
      s.payload = payload;
      s.digest = payload->digest();
      s.preprepared = true;
      s.validity = Validity::kValid;
      auto pp = std::make_shared<PrePrepareMsg>();
      pp->view = view_;
      pp->seq = seq;
      pp->payload = payload;
      ctx_.broadcast(pp);
      arm_view_timer();
      maybe_send_prepare(seq);
    }
    next_propose_ = top + 1;
  }
  try_propose();
}

void PbftCore::on_new_view(std::size_t from, const NewViewMsg& msg) {
  if (msg.new_view <= view_) return;
  if (from != leader_index(msg.new_view, ctx_.n())) return;
  // Modeled V-set verification: a genuine NEW-VIEW is backed by a
  // quorum of view-change votes; without it one hostile message from a
  // future leader would drag the whole group into an absurd view.
  if (msg.proof < ctx_.quorum()) return;
  enter_view(msg.new_view);
}

void PbftCore::enter_view(View v) {
  if (v <= view_) return;
  view_ = v;
  ++view_changes_;
  next_propose_ = last_exec_ + 1;
  disarm_view_timer();
  // Reset vote state of every in-flight slot: votes are per-view. The
  // prepared certificate (has_prepared / prepared_payload) deliberately
  // survives — it is the safety carry-over a later view change attests.
  for (auto& [sq, sl] : slots_) {
    if (sq <= last_exec_ || sl.executed) continue;
    sl.preprepared = false;
    sl.sent_prepare = false;
    sl.sent_commit = false;
    sl.prepares.clear();
    sl.commits.clear();
  }
  vc_votes_.erase(vc_votes_.begin(), vc_votes_.upper_bound(v));
  if (want_progress_) arm_view_timer();
}

}  // namespace predis::consensus::pbft
