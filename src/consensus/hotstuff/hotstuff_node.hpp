// Baseline chained-HotStuff consensus node: clients broadcast
// transactions to every replica; each round's leader packs a full batch
// into its proposal, excluding transactions already ordered by
// uncommitted ancestor blocks. This is the system P-HS is measured
// against in Fig. 4(b)/(d).
#pragma once

#include <deque>
#include <set>

#include "consensus/hotstuff/hotstuff_core.hpp"
#include "consensus/payloads.hpp"

namespace predis::consensus::hotstuff {

struct HotStuffNodeConfig {
  std::size_t batch_size = 800;  ///< Transactions per block.
};

class HotStuffNode final : public runtime::Actor, private HotStuffApp {
 public:
  HotStuffNode(NodeContext ctx, HotStuffNodeConfig config,
               CommitLedger& ledger)
      : ctx_(std::move(ctx)),
        cfg_(config),
        ledger_(ledger),
        replies_(ctx_),
        core_(ctx_, *this) {}

  void on_start() override { core_.start(); }

  void on_restart() override { core_.on_restart(); }

  void on_message(NodeId from, const runtime::MsgPtr& msg) override {
    if (const auto* req = dynamic_cast<const ClientRequestMsg*>(msg.get())) {
      enqueue(req->txs);
      return;
    }
    core_.handle(from, msg);
  }

  HotStuffCore& core() { return core_; }
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

  // --- HotStuffApp -----------------------------------------------------

  PayloadPtr make_payload(Round /*round*/,
                          const std::vector<PayloadPtr>& ancestors) override {
    if (queue_.empty()) return nullptr;
    // Skip transactions already ordered by in-flight ancestor blocks.
    std::set<TxKey> in_flight;
    for (const auto& payload : ancestors) {
      const auto* batch = dynamic_cast<const TxBatchPayload*>(payload.get());
      if (batch == nullptr) continue;
      for (const auto& tx : batch->txs()) {
        in_flight.insert({tx.client, tx.seq});
      }
    }
    std::vector<Transaction> batch;
    batch.reserve(std::min(queue_.size(), cfg_.batch_size));
    for (const auto& tx : queue_) {
      if (batch.size() >= cfg_.batch_size) break;
      if (in_flight.count({tx.client, tx.seq}) != 0) continue;
      batch.push_back(tx);
    }
    if (batch.empty()) return nullptr;
    return std::make_shared<TxBatchPayload>(std::move(batch));
  }

  Validity validate(Round /*round*/, const PayloadPtr& payload,
                    const std::vector<PayloadPtr>& /*ancestors*/) override {
    return dynamic_cast<const TxBatchPayload*>(payload.get()) != nullptr
               ? Validity::kValid
               : Validity::kInvalid;
  }

  void on_commit(Round round, const PayloadPtr& payload) override {
    const auto& batch = dynamic_cast<const TxBatchPayload&>(*payload);
    std::set<TxKey> committed;
    for (const auto& tx : batch.txs()) committed.insert({tx.client, tx.seq});
    std::deque<Transaction> remaining;
    for (auto& tx : queue_) {
      if (committed.count({tx.client, tx.seq}) == 0) remaining.push_back(tx);
    }
    queue_ = std::move(remaining);

    ledger_.on_commit(ctx_.index(), round, payload->digest(),
                      batch.txs().size(), ctx_.now());
    if (on_committed_block) {
      // The batch digest is the Merkle root over its transactions.
      on_committed_block(payload->digest(), payload->digest(),
                         batch.txs().size(), ctx_.now());
    }
    replies_.reply_committed(batch.txs());
    if (!queue_.empty()) core_.payload_ready();
  }

  NodeContext ctx_;
  HotStuffNodeConfig cfg_;
  CommitLedger& ledger_;
  ReplyManager replies_;
  HotStuffCore core_;
  std::deque<Transaction> queue_;
  std::set<TxKey> seen_;
};

}  // namespace predis::consensus::hotstuff
