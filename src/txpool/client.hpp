// Open-loop client workload generator.
//
// Each client actor emits transactions at a configured rate toward one
// assigned consensus node (the paper's first dissemination strategy in
// §IV-D), batching submissions on a short interval so the simulated
// message count stays manageable. Client-observed latency — the paper's
// definition: "time elapsed from when a client sends a transaction ...
// to when the client receives a reply" — is recorded per transaction in
// the shared Metrics.
#pragma once

#include <map>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "runtime/runtime.hpp"
#include "txpool/transaction.hpp"

namespace predis {

struct ClientConfig {
  NodeId self = kNoNode;
  /// Consensus node(s) receiving our transactions. Predis clients send
  /// to one node (its bundles carry them); baseline PBFT/HotStuff
  /// clients broadcast to every replica, the standard BFT client setup.
  std::vector<NodeId> targets;
  double tx_per_second = 1000.0;    ///< Offered load of this client.
  std::uint32_t tx_size = 512;      ///< Paper default.
  SimTime batch_interval = milliseconds(5);
  SimTime start_at = 0;             ///< Begin generating at this time.
  SimTime stop_at = kSimTimeNever;  ///< Stop generating after this time.
  /// Latencies before this time are discarded (measurement warmup).
  SimTime record_from = 0;
  /// Censorship countermeasure (§III-E): a transaction unconfirmed for
  /// this long is consigned to the next consensus node in
  /// `all_consensus`. 0 disables resubmission.
  SimTime resubmit_timeout = 0;
  /// Every consensus node, for resubmission rotation.
  std::vector<NodeId> all_consensus;
  std::uint64_t seed = 1;
};

class ClientActor final : public runtime::Actor {
 public:
  ClientActor(runtime::Runtime& net, const ClientConfig& config, Metrics& metrics)
      : net_(net), cfg_(config), metrics_(metrics), rng_(config.seed) {}

  void on_start() override {
    const SimTime now = net_.now();
    if (cfg_.start_at > now) {
      PREDIS_FIRE_AND_FORGET(net_.schedule(cfg_.self, cfg_.start_at - now,
                                           [this] { schedule_batch(); }));
    } else {
      schedule_batch();
    }
    if (cfg_.resubmit_timeout > 0 && !cfg_.all_consensus.empty()) {
      schedule_resubmit_check();
    }
  }

  void on_message(NodeId /*from*/, const runtime::MsgPtr& msg) override {
    const auto* reply = dynamic_cast<const ClientReplyMsg*>(msg.get());
    if (reply == nullptr) return;
    const SimTime now = net_.now();
    latency_batch_.clear();
    for (TxSeq seq : reply->seqs) {
      auto it = pending_.find(seq);
      if (it == pending_.end()) continue;  // duplicate reply
      if (it->second.submitted_at >= cfg_.record_from) {
        latency_batch_.push_back(now - it->second.submitted_at);
      }
      pending_.erase(it);
    }
    if (!latency_batch_.empty()) metrics_.record_latencies(latency_batch_);
  }

  NodeId id() const { return cfg_.self; }
  std::size_t unacked() const { return pending_.size(); }
  TxSeq submitted() const { return next_seq_; }
  std::uint64_t resubmissions() const { return resubmissions_; }

 private:
  void schedule_batch() {
    PREDIS_FIRE_AND_FORGET(net_.schedule(cfg_.self, cfg_.batch_interval, [this] {
      emit_batch();
      if (net_.now() < cfg_.stop_at) schedule_batch();
    }));
  }

  void emit_batch() {
    const double expected =
        cfg_.tx_per_second * to_seconds(cfg_.batch_interval) + carry_;
    auto count = static_cast<std::size_t>(expected);
    carry_ = expected - static_cast<double>(count);
    if (count == 0) return;

    auto msg = std::make_shared<ClientRequestMsg>();
    msg->txs.reserve(count);
    const SimTime now = net_.now();
    for (std::size_t i = 0; i < count; ++i) {
      Transaction tx;
      tx.client = cfg_.self;
      tx.seq = next_seq_++;
      tx.size = cfg_.tx_size;
      tx.submitted_at = now;
      tx.payload_seed = rng_.next();
      pending_.emplace(tx.seq, Pending{now, tx, 0});
      msg->txs.push_back(tx);
    }
    metrics_.record_submitted(count);
    for (NodeId target : cfg_.targets) {
      net_.send(cfg_.self, target, msg);
    }
  }

  void schedule_resubmit_check() {
    PREDIS_FIRE_AND_FORGET(
        net_.schedule(cfg_.self, cfg_.resubmit_timeout, [this] {
          resubmit_overdue();
          schedule_resubmit_check();
        }));
  }

  /// §III-E: consign transactions that stayed unconfirmed for longer
  /// than usual to another consensus node. A transaction is packed
  /// after at most f + 1 attempts, so rotation through `all_consensus`
  /// eventually hits an honest node.
  void resubmit_overdue() {
    const SimTime now = net_.now();
    std::map<NodeId, std::vector<Transaction>> per_target;
    for (auto& [seq, entry] : pending_) {
      const SimTime age = now - entry.submitted_at;
      if (age < cfg_.resubmit_timeout *
                    static_cast<SimTime>(entry.attempts + 1)) {
        continue;
      }
      if (entry.attempts + 1 >= cfg_.all_consensus.size()) continue;
      ++entry.attempts;
      const NodeId target =
          cfg_.all_consensus[(seq + entry.attempts) %
                             cfg_.all_consensus.size()];
      per_target[target].push_back(entry.tx);
    }
    for (auto& [target, txs] : per_target) {
      resubmissions_ += txs.size();
      auto msg = std::make_shared<ClientRequestMsg>();
      msg->txs = std::move(txs);
      net_.send(cfg_.self, target, std::move(msg));
    }
  }

  struct Pending {
    SimTime submitted_at = 0;
    Transaction tx;
    std::size_t attempts = 0;
  };

  runtime::Runtime& net_;
  ClientConfig cfg_;
  Metrics& metrics_;
  Rng rng_;
  TxSeq next_seq_ = 0;
  double carry_ = 0.0;
  std::uint64_t resubmissions_ = 0;
  // resubmit_overdue() iterates this and the resulting batches go on
  // the wire: keep the walk in ascending-seq order (D1).
  std::map<TxSeq, Pending> pending_;
  // One reply's latencies, handed to Metrics under a single lock; kept
  // as a member so its capacity is reused across replies.
  std::vector<SimTime> latency_batch_;
};

}  // namespace predis
