// P-PBFT and P-HS: the paper's Predis data production mounted on the
// PBFT and chained-HotStuff cores. Clients send transactions to *one*
// consensus node each; every node packs its own bundles; the leader's
// proposal is the O(n_c)-sized Predis block.
#pragma once

#include "consensus/hotstuff/hotstuff_core.hpp"
#include "consensus/pbft/pbft_core.hpp"
#include "consensus/predis/predis_engine.hpp"

namespace predis::consensus::predis {

/// Predis riding PBFT (P-PBFT, Fig. 4(a)/(c)).
class PredisPbftNode final : public runtime::Actor, private pbft::PbftApp {
 public:
  PredisPbftNode(NodeContext ctx, PredisConfig config,
                 std::vector<PublicKey> keys, KeyPair own_key,
                 CommitLedger& ledger)
      : ctx_(std::move(ctx)),
        ledger_(ledger),
        replies_(ctx_),
        engine_(ctx_, config, std::move(keys), std::move(own_key)),
        core_(ctx_, *this),
        committed_cut_(ctx_.n(), 0) {
    engine_.set_metrics(&ledger_.metrics());
    engine_.on_mempool_grew = [this] {
      core_.payload_ready();
      core_.revalidate(core_.last_executed() + 1);
    };
    engine_.on_execute = [this](std::uint64_t /*slot*/,
                                const PredisBlock& block,
                                const std::vector<Transaction>& txs,
                                const Hash32& tx_root) {
      if (on_committed_block) {
        on_committed_block(block.hash(), tx_root, txs.size(), ctx_.now());
      }
      replies_.reply_committed(txs);
    };
    if (config.fault != FaultMode::kNone) core_.set_paused(true);
  }

  void on_start() override {
    engine_.start();
    core_.start();
  }

  void on_restart() override {
    // Mempool tips resync first, so by the time the consensus core's
    // catch-up lands on a Predis block the bundle backlog is already
    // being pulled (deferred commits then flush instead of stalling).
    engine_.on_restart();
    core_.on_restart();
  }

  void on_message(NodeId from, const runtime::MsgPtr& msg) override {
    if (const auto* req = dynamic_cast<const ClientRequestMsg*>(msg.get())) {
      engine_.enqueue(req->txs);
      return;
    }
    if (engine_.handle(from, msg)) return;
    core_.handle(from, msg);
  }

  pbft::PbftCore& core() { return core_; }
  PredisEngine& engine() { return engine_; }

  /// Observation hook: fired for every executed block.
  CommittedBlockHook on_committed_block;

 private:
  // --- PbftApp ---------------------------------------------------------

  PayloadPtr make_payload(SeqNum seq) override {
    return engine_.build_payload(seq, core_.view(), last_block_hash_,
                                 committed_cut_);
  }

  Validity validate(SeqNum /*seq*/, const PayloadPtr& payload) override {
    if (is_noop(payload)) return Validity::kValid;
    const auto* pp = dynamic_cast<const PredisPayload*>(payload.get());
    if (pp == nullptr) return Validity::kInvalid;
    const auto& prev = pp->block().prev_heights;
    if (prev.size() != committed_cut_.size()) return Validity::kInvalid;
    // The proposal may chain on a commit we have not locally processed
    // yet; wait rather than reject.
    bool ahead = false;
    for (std::size_t i = 0; i < prev.size(); ++i) {
      if (prev[i] < committed_cut_[i]) return Validity::kInvalid;
      if (prev[i] > committed_cut_[i]) ahead = true;
    }
    if (ahead) return Validity::kPending;
    return engine_.validate_payload(payload, committed_cut_);
  }

  void on_commit(SeqNum seq, const PayloadPtr& payload) override {
    if (is_noop(payload)) {
      ledger_.on_commit(ctx_.index(), seq, payload->digest(), 0,
                        ctx_.now());
      if (on_committed_block) {
        on_committed_block(payload->digest(), kZeroHash, 0, ctx_.now());
      }
      core_.revalidate(seq + 1);
      return;
    }
    const auto& pp = dynamic_cast<const PredisPayload&>(*payload);
    for (std::size_t i = 0; i < committed_cut_.size(); ++i) {
      committed_cut_[i] =
          std::max(committed_cut_[i], pp.block().cut_heights[i]);
    }
    last_block_hash_ = pp.block().hash();
    ledger_.on_commit(ctx_.index(), seq, payload->digest(),
                      pp.block().tx_count(engine_.mempool()), ctx_.now());
    engine_.commit_block(seq, payload);
    core_.revalidate(seq + 1);
  }

  // --- Checkpointing (state = the committed cut + chain head) ----------

  Hash32 state_digest() override {
    Writer w;
    w.vec_u64(committed_cut_);
    w.hash(last_block_hash_);
    return Sha256::hash(w.data());
  }

  Bytes make_snapshot() override {
    Writer w;
    w.vec_u64(committed_cut_);
    w.hash(last_block_hash_);
    return std::move(w).take();
  }

  void apply_snapshot(SeqNum seq, BytesView blob) override {
    Reader r(blob);
    const std::vector<BundleHeight> cut = r.vec_u64();
    const Hash32 head = r.hash();
    for (std::size_t i = 0; i < committed_cut_.size() && i < cut.size();
         ++i) {
      committed_cut_[i] = std::max(committed_cut_[i], cut[i]);
    }
    last_block_hash_ = head;
    engine_.fast_forward(committed_cut_, seq);
  }

  NodeContext ctx_;
  CommitLedger& ledger_;
  ReplyManager replies_;
  PredisEngine engine_;
  pbft::PbftCore core_;
  std::vector<BundleHeight> committed_cut_;
  Hash32 last_block_hash_ = kZeroHash;
};

/// Predis riding chained HotStuff (P-HS, Fig. 4(b)/(d), Fig. 5).
class PredisHotStuffNode final : public runtime::Actor,
                                 private hotstuff::HotStuffApp {
 public:
  PredisHotStuffNode(NodeContext ctx, PredisConfig config,
                     std::vector<PublicKey> keys, KeyPair own_key,
                     CommitLedger& ledger)
      : ctx_(std::move(ctx)),
        ledger_(ledger),
        replies_(ctx_),
        engine_(ctx_, config, std::move(keys), std::move(own_key)),
        core_(ctx_, *this),
        committed_cut_(ctx_.n(), 0) {
    engine_.set_metrics(&ledger_.metrics());
    engine_.on_mempool_grew = [this] {
      core_.payload_ready();
      core_.revalidate();
    };
    engine_.on_execute = [this](std::uint64_t /*slot*/,
                                const PredisBlock& block,
                                const std::vector<Transaction>& txs,
                                const Hash32& tx_root) {
      if (on_committed_block) {
        on_committed_block(block.hash(), tx_root, txs.size(), ctx_.now());
      }
      replies_.reply_committed(txs);
    };
    if (config.fault != FaultMode::kNone) core_.set_paused(true);
  }

  void on_start() override {
    engine_.start();
    core_.start();
  }

  void on_restart() override {
    engine_.on_restart();  // tips resync before consensus resumes
    core_.on_restart();
  }

  void on_message(NodeId from, const runtime::MsgPtr& msg) override {
    if (const auto* req = dynamic_cast<const ClientRequestMsg*>(msg.get())) {
      engine_.enqueue(req->txs);
      return;
    }
    if (engine_.handle(from, msg)) return;
    core_.handle(from, msg);
  }

  hotstuff::HotStuffCore& core() { return core_; }
  PredisEngine& engine() { return engine_; }

  /// Observation hook: fired for every executed block.
  CommittedBlockHook on_committed_block;

 private:
  /// The cut this proposal must chain on: the nearest Predis ancestor's
  /// cut, or the last committed cut when the whole chain is committed.
  std::vector<BundleHeight> expected_prev(
      const std::vector<PayloadPtr>& ancestors) const {
    for (const auto& payload : ancestors) {
      const auto* pp = dynamic_cast<const PredisPayload*>(payload.get());
      if (pp != nullptr) return pp->block().cut_heights;
    }
    return committed_cut_;
  }

  // --- HotStuffApp -----------------------------------------------------

  PayloadPtr make_payload(hotstuff::Round round,
                          const std::vector<PayloadPtr>& ancestors) override {
    return engine_.build_payload(round, round, last_block_hash_,
                                 expected_prev(ancestors));
  }

  Validity validate(hotstuff::Round /*round*/, const PayloadPtr& payload,
                    const std::vector<PayloadPtr>& ancestors) override {
    return engine_.validate_payload(payload, expected_prev(ancestors));
  }

  void on_commit(hotstuff::Round round, const PayloadPtr& payload) override {
    const auto& pp = dynamic_cast<const PredisPayload&>(*payload);
    for (std::size_t i = 0; i < committed_cut_.size(); ++i) {
      committed_cut_[i] =
          std::max(committed_cut_[i], pp.block().cut_heights[i]);
    }
    last_block_hash_ = pp.block().hash();
    ledger_.on_commit(ctx_.index(), round, payload->digest(),
                      pp.block().tx_count(engine_.mempool()), ctx_.now());
    engine_.commit_block(round, payload);
  }

  NodeContext ctx_;
  CommitLedger& ledger_;
  ReplyManager replies_;
  PredisEngine engine_;
  hotstuff::HotStuffCore core_;
  std::vector<BundleHeight> committed_cut_;
  Hash32 last_block_hash_ = kZeroHash;
};

}  // namespace predis::consensus::predis
