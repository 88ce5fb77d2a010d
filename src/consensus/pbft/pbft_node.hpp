// Baseline PBFT consensus node: clients broadcast transactions to every
// replica; the leader packs full batches (the paper's "batch size")
// into its proposals. This is the system Predis is measured against in
// Fig. 4(a)/(c).
#pragma once

#include <deque>
#include <set>

#include "common/codec.hpp"
#include "common/sha256.hpp"
#include "consensus/payloads.hpp"
#include "consensus/pbft/pbft_core.hpp"

namespace predis::consensus::pbft {

struct PbftNodeConfig {
  /// Transactions per block (the paper's "batch size", default 800).
  /// Partial batches are proposed immediately when the queue is short,
  /// so low offered load still commits promptly.
  std::size_t batch_size = 800;
  /// Slots in flight at once (1 = the paper's serialized round model).
  SeqNum pipeline_window = 1;
};

class PbftNode final : public runtime::Actor, private PbftApp {
 public:
  PbftNode(NodeContext ctx, PbftNodeConfig config, CommitLedger& ledger)
      : ctx_(std::move(ctx)),
        cfg_(config),
        ledger_(ledger),
        replies_(ctx_),
        core_(ctx_, *this) {
    core_.set_pipeline_window(cfg_.pipeline_window);
  }

  void on_start() override { core_.start(); }

  void on_restart() override { core_.on_restart(); }

  void on_message(NodeId from, const runtime::MsgPtr& msg) override {
    if (const auto* req = dynamic_cast<const ClientRequestMsg*>(msg.get())) {
      enqueue(req->txs);
      return;
    }
    core_.handle(from, msg);
  }

  PbftCore& core() { return core_; }
  std::size_t queue_depth() const { return queue_.size(); }

  /// Observation hook: fired for every executed block.
  CommittedBlockHook on_committed_block;

 private:
  using TxKey = std::pair<NodeId, TxSeq>;

  void enqueue(const std::vector<Transaction>& txs) {
    // Backpressure: shed client load once the uplink queue is far
    // behind, so saturation is graceful (TCP push-back analogue).
    if (ctx_.net().uplink_backlog(ctx_.self()) > milliseconds(400)) return;
    if (queue_.size() >= 8000) return;
    for (const auto& tx : txs) {
      const TxKey key{tx.client, tx.seq};
      if (seen_.count(key) != 0) continue;
      seen_.insert(key);
      queue_.push_back(tx);
    }
    core_.payload_ready();
  }

  // --- PbftApp ---------------------------------------------------------

  PayloadPtr make_payload(SeqNum /*seq*/) override {
    if (queue_.empty()) return nullptr;
    const std::size_t take = std::min(queue_.size(), cfg_.batch_size);
    std::vector<Transaction> batch(queue_.begin(),
                                   queue_.begin() +
                                       static_cast<std::ptrdiff_t>(take));
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(take));
    return std::make_shared<TxBatchPayload>(std::move(batch));
  }

  Validity validate(SeqNum /*seq*/,
                    const PayloadPtr& payload) override {
    if (is_noop(payload)) return Validity::kValid;
    return dynamic_cast<const TxBatchPayload*>(payload.get()) != nullptr
               ? Validity::kValid
               : Validity::kInvalid;
  }

  void on_commit(SeqNum seq, const PayloadPtr& payload) override {
    if (is_noop(payload)) {
      ledger_.on_commit(ctx_.index(), seq, payload->digest(), 0,
                        ctx_.now());
      if (on_committed_block) {
        on_committed_block(payload->digest(), kZeroHash, 0, ctx_.now());
      }
      return;
    }
    const auto& batch = dynamic_cast<const TxBatchPayload&>(*payload);
    // Drop committed txs from the local queue (they were broadcast to
    // everyone, so replicas hold duplicates of what the leader packed).
    std::set<TxKey> committed;
    for (const auto& tx : batch.txs()) committed.insert({tx.client, tx.seq});
    committed_keys_.insert(committed.begin(), committed.end());
    std::deque<Transaction> remaining;
    for (auto& tx : queue_) {
      if (committed.count({tx.client, tx.seq}) == 0) {
        remaining.push_back(tx);
      }
    }
    queue_ = std::move(remaining);

    ledger_.on_commit(ctx_.index(), seq, payload->digest(),
                      batch.txs().size(), ctx_.now());
    if (on_committed_block) {
      // The batch digest is the Merkle root over its transactions.
      on_committed_block(payload->digest(), payload->digest(),
                         batch.txs().size(), ctx_.now());
    }
    replies_.reply_committed(batch.txs());
    if (!queue_.empty()) core_.payload_ready();
  }

  // --- Checkpointing (state = the set of committed tx keys) ------------
  // Snapshots let a replica that slept through whole slots fast-forward
  // *and* purge its local queue: without the purge it re-proposes
  // transactions that already committed while it was down, landing the
  // same payload at a second slot (the churn-storm double count).

  Bytes snapshot_bytes() const {
    Writer w;
    w.u32(static_cast<std::uint32_t>(committed_keys_.size()));
    for (const auto& [client, seq] : committed_keys_) {
      w.u32(client);
      w.u64(seq);
    }
    return std::move(w).take();
  }

  Hash32 state_digest() override {
    const Bytes bytes = snapshot_bytes();
    return Sha256::hash(BytesView{bytes});
  }

  Bytes make_snapshot() override { return snapshot_bytes(); }

  void apply_snapshot(SeqNum /*seq*/, BytesView blob) override {
    Reader r(blob);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeId client = r.u32();
      const TxSeq seq = r.u64();
      const TxKey key{client, seq};
      committed_keys_.insert(key);
      seen_.insert(key);  // do not re-queue on client rebroadcast
    }
    std::deque<Transaction> remaining;
    for (auto& tx : queue_) {
      if (committed_keys_.count({tx.client, tx.seq}) == 0) {
        remaining.push_back(tx);
      }
    }
    queue_ = std::move(remaining);
  }

  NodeContext ctx_;
  PbftNodeConfig cfg_;
  CommitLedger& ledger_;
  ReplyManager replies_;
  PbftCore core_;
  std::deque<Transaction> queue_;
  std::set<TxKey> seen_;
  std::set<TxKey> committed_keys_;
};

}  // namespace predis::consensus::pbft
