// Concrete consensus payloads shared by more than one engine.
#pragma once

#include "bundle/predis_block.hpp"
#include "consensus/common.hpp"

namespace predis::consensus {

/// Baseline payload: a batch (block) of raw transactions. The leader
/// ships the full batch in its proposal — the bandwidth bottleneck the
/// paper's baselines exhibit.
class TxBatchPayload final : public Payload {
 public:
  explicit TxBatchPayload(std::vector<Transaction> txs)
      : txs_(std::move(txs)), digest_(tx_merkle_root(txs_)) {}

  const std::vector<Transaction>& txs() const { return txs_; }

  std::size_t wire_size() const override {
    return 48 + payload_bytes(txs_) + txs_.size() * 8;
  }
  Hash32 digest() const override { return digest_; }
  const char* kind() const override { return "tx-batch"; }

 private:
  std::vector<Transaction> txs_;
  Hash32 digest_;
};

/// Predis payload: the O(n_c)-sized block of §III-B.
class PredisPayload final : public Payload {
 public:
  explicit PredisPayload(PredisBlock block) : block_(std::move(block)) {
    digest_ = block_.hash();
  }

  const PredisBlock& block() const { return block_; }

  std::size_t wire_size() const override { return block_.wire_size(); }
  Hash32 digest() const override { return digest_; }
  const char* kind() const override { return "predis-block"; }

 private:
  PredisBlock block_;
  Hash32 digest_;
};

/// Pipeline filler: chained HotStuff leaders must propose every round;
/// when the app has nothing to order they propose this.
class EmptyPayload final : public Payload {
 public:
  EmptyPayload() = default;
  std::size_t wire_size() const override { return 8; }
  Hash32 digest() const override { return kZeroHash; }
  const char* kind() const override { return "empty"; }
};

/// PBFT null request: fills sequence-number gaps during a view change
/// when later slots were prepared but an intermediate one was not.
/// Executing it is a no-op for every app.
class NoopPayload final : public Payload {
 public:
  NoopPayload() = default;
  std::size_t wire_size() const override { return 8; }
  Hash32 digest() const override {
    return Sha256::hash(as_bytes(std::string("pbft-noop")));
  }
  const char* kind() const override { return "noop"; }
};

inline bool is_noop(const PayloadPtr& p) {
  return dynamic_cast<const NoopPayload*>(p.get()) != nullptr;
}

}  // namespace predis::consensus
