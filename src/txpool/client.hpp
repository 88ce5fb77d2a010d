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

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "runtime/environments.hpp"
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
      : net_(net), cfg_(config), metrics_(metrics), rng_(config.seed) {
    // emit_batch() casts rate × interval to a count.
    if (!std::isfinite(cfg_.tx_per_second) || cfg_.tx_per_second < 0.0) {
      throw std::invalid_argument(
          "ClientActor: tx_per_second must be finite and non-negative");
    }
  }

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
      auto it = std::lower_bound(
          pending_.begin(), pending_.end(), seq,
          [](const Pending& p, TxSeq s) { return p.seq < s; });
      // Unknown, duplicate, or answered and already compacted away.
      if (it == pending_.end() || it->seq != seq || it->done) continue;
      if (it->submitted_at >= cfg_.record_from) {
        latency_batch_.push_back(now - it->submitted_at);
      }
      it->done = true;
      --live_;
    }
    if (!latency_batch_.empty()) metrics_.record_latencies(latency_batch_);
    // Each compaction removes more entries than it keeps, so it costs
    // O(1) amortized per transaction and the table stays ≤ 2× live.
    if (pending_.size() - live_ > live_) {
      std::erase_if(pending_, [](const Pending& p) { return p.done; });
    }
  }

  NodeId id() const { return cfg_.self; }
  std::size_t unacked() const { return live_; }
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
      pending_.push_back(Pending{next_seq_++, now, rng_.next()});
      msg->txs.push_back(transaction_of(pending_.back()));
    }
    live_ += count;
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
    for (Pending& entry : pending_) {
      if (entry.done) continue;
      const SimTime age = now - entry.submitted_at;
      if (age < cfg_.resubmit_timeout *
                    static_cast<SimTime>(entry.attempts + 1)) {
        continue;
      }
      if (entry.attempts + 1 >= cfg_.all_consensus.size()) continue;
      ++entry.attempts;
      const NodeId target =
          cfg_.all_consensus[(entry.seq + entry.attempts) %
                             cfg_.all_consensus.size()];
      per_target[target].push_back(transaction_of(entry));
    }
    for (auto& [target, txs] : per_target) {
      resubmissions_ += txs.size();
      auto msg = std::make_shared<ClientRequestMsg>();
      msg->txs = std::move(txs);
      net_.send(cfg_.self, target, std::move(msg));
    }
  }

  /// One transaction this client sent: the fields of its Transaction
  /// that are not the same for every transaction of the client.
  struct Pending {
    TxSeq seq = 0;
    SimTime submitted_at = 0;
    std::uint64_t payload_seed = 0;
    std::uint32_t attempts = 0;
    bool done = false;  ///< Answered; removed at the next compaction.
  };
  static_assert(sizeof(Pending) == 32);

  /// The transaction `p` was sent as; resubmission sends it again
  /// unchanged, so its id() is the same.
  Transaction transaction_of(const Pending& p) const {
    Transaction tx;
    tx.client = cfg_.self;
    tx.size = cfg_.tx_size;
    tx.seq = p.seq;
    tx.submitted_at = p.submitted_at;
    tx.payload_seed = p.payload_seed;
    return tx;
  }

  runtime::Runtime& net_;
  ClientConfig cfg_;
  Metrics& metrics_;
  Rng rng_;
  TxSeq next_seq_ = 0;
  double carry_ = 0.0;
  std::uint64_t resubmissions_ = 0;
  // Every sent transaction not yet compacted away, in ascending seq
  // order (appended as seqs are issued). resubmit_overdue() walks it
  // and the resulting batches go on the wire, so that order is
  // protocol-visible (D1).
  std::vector<Pending> pending_;
  std::size_t live_ = 0;  ///< Entries of pending_ not yet answered.
  // One reply's latencies, handed to Metrics under a single lock; kept
  // as a member so its capacity is reused across replies.
  std::vector<SimTime> latency_batch_;
};

/// Adds `n_clients` open-loop clients to `net`, spread round-robin over
/// `regions`. Client c is `shape` with its own node id, seed
/// `shape.seed + c` and, as targets, every consensus node (`broadcast`,
/// the standard BFT client) or consensus node c mod n. Clients are not
/// the system under test: they get fat pipes so the consensus layer is
/// the bottleneck, as in the paper's testbed (many client instances).
inline std::vector<std::unique_ptr<ClientActor>> add_clients(
    runtime::Runtime& net, const std::vector<NodeId>& consensus,
    std::size_t n_clients, std::size_t regions, bool broadcast,
    const ClientConfig& shape, Metrics& metrics) {
  std::vector<std::unique_ptr<ClientActor>> clients;
  for (std::size_t c = 0; c < n_clients; ++c) {
    runtime::NodeConfig ncfg;
    ncfg.region = static_cast<std::uint32_t>(c % regions);
    ncfg.up_bw = 10 * runtime::kBandwidth100Mbps;
    ncfg.down_bw = 10 * runtime::kBandwidth100Mbps;
    ClientConfig ccfg = shape;
    ccfg.self = net.add_node(ncfg);
    ccfg.targets = broadcast ? consensus
                             : std::vector<NodeId>{
                                   consensus[c % consensus.size()]};
    ccfg.seed = shape.seed + c;
    clients.push_back(std::make_unique<ClientActor>(net, ccfg, metrics));
    net.attach(ccfg.self, clients.back().get());
  }
  return clients;
}

}  // namespace predis
