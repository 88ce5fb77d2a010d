// Narwhal-style and Stratus-style shared-mempool comparators (Fig. 5).
//
// Both decouple transaction dissemination from consensus like Predis,
// but guarantee data availability with explicit certificates:
//   * Narwhal-style: a microblock becomes proposable once its producer
//     collects n_c − f signed acks (reliable broadcast) and the
//     certificate is distributed;
//   * Stratus-style: provably-available broadcast needs only f + 1 acks.
// Proposals carry (id + certificate) per microblock, so proposal size
// grows linearly with the number of microblocks — the contrast to the
// O(n_c) Predis block the paper calls out (2.5 KB vs 30 KB at 50 k tx).
//
// Consensus is chained HotStuff, as in the original systems' eval.
#pragma once

#include <deque>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "consensus/hotstuff/hotstuff_core.hpp"
#include "consensus/payloads.hpp"
#include "core/recovery.hpp"

namespace predis::consensus::narwhal {

struct Microblock {
  NodeId producer = kNoNode;  ///< Index of the producer in the group.
  std::uint64_t index = 0;    ///< Producer-local sequence.
  std::vector<Transaction> txs;

  Hash32 id() const {
    Writer w;
    w.u32(producer);
    w.u64(index);
    w.hash(tx_merkle_root(txs));
    return Sha256::hash(w.data());
  }

  std::size_t wire_size() const {
    return 16 + kSigBytes + payload_bytes(txs) + txs.size() * 8;
  }
};

struct MicroblockRef {
  NodeId producer = kNoNode;
  std::uint64_t index = 0;
  Hash32 id = kZeroHash;

  auto key() const { return std::pair{producer, index}; }
};

struct MicroblockMsg final : runtime::Message {
  Microblock mb;
  std::size_t wire_size() const override { return mb.wire_size(); }
  const char* name() const override { return "Microblock"; }
};

/// Receiver -> producer: signed availability ack.
struct MbAckMsg final : runtime::Message {
  MicroblockRef ref;
  std::size_t wire_size() const override { return kVoteBytes; }
  const char* name() const override { return "MbAck"; }
};

/// Producer -> all: certificate of availability (quorum of acks).
struct MbCertMsg final : runtime::Message {
  MicroblockRef ref;
  std::size_t signers = 0;
  std::size_t wire_size() const override { return 16 + qc_bytes(signers); }
  const char* name() const override { return "MbCert"; }
};

/// Fetch for microblocks referenced by a proposal but not held locally.
struct MbFetchMsg final : runtime::Message {
  std::vector<MicroblockRef> refs;
  std::size_t wire_size() const override { return 16 + refs.size() * 44; }
  const char* name() const override { return "MbFetch"; }
};

struct MbBatchMsg final : runtime::Message {
  std::vector<Microblock> mbs;
  std::size_t wire_size() const override {
    std::size_t size = 16;
    for (const auto& mb : mbs) size += mb.wire_size();
    return size;
  }
  const char* name() const override { return "MbBatch"; }
};

/// Proposal payload: certified microblock ids + their certificates.
/// Size grows linearly with the id count (the paper's 30 KB proposals).
class IdListPayload final : public Payload {
 public:
  IdListPayload(std::vector<MicroblockRef> refs, std::size_t cert_signers)
      : refs_(std::move(refs)), cert_signers_(cert_signers) {
    Writer w;
    for (const auto& ref : refs_) w.hash(ref.id);
    digest_ = Sha256::hash(w.data());
  }

  const std::vector<MicroblockRef>& refs() const { return refs_; }

  std::size_t wire_size() const override {
    return 48 + refs_.size() * (44 + qc_bytes(cert_signers_));
  }
  Hash32 digest() const override { return digest_; }
  const char* kind() const override { return "id-list"; }

 private:
  std::vector<MicroblockRef> refs_;
  std::size_t cert_signers_;
  Hash32 digest_;
};

struct SharedMempoolConfig {
  std::size_t microblock_size = 50;  ///< Max txs per microblock (paper).
  SimTime pack_interval = milliseconds(25);
  /// Acks needed for a certificate: n_c − f (Narwhal) or f + 1 (Stratus).
  std::size_t ack_quorum = 3;
  std::size_t id_cap = 1000;  ///< Max ids per proposal (paper default).
  SimTime fetch_retry = milliseconds(150);
  std::uint64_t seed = 1;
  /// Committed microblock bodies kept around (newest first) to serve
  /// catch-up fetches from lagging replicas; older bodies are
  /// garbage-collected with byte accounting.
  std::size_t pool_retention = 512;
};

/// One consensus node running the certified shared mempool + HotStuff.
class SharedMempoolNode final : public runtime::Actor,
                                private hotstuff::HotStuffApp {
 public:
  SharedMempoolNode(NodeContext ctx, SharedMempoolConfig config,
                    CommitLedger& ledger);

  void on_start() override;
  void on_restart() override;
  void on_message(NodeId from, const runtime::MsgPtr& msg) override;

  hotstuff::HotStuffCore& core() { return core_; }

  /// Transactions in this node's own microblocks not yet committed
  /// (what admission counts besides the ingress queue).
  std::size_t unconfirmed_txs() const { return own_uncommitted_txs_; }

  /// Committed-microblock bytes/items reclaimed from the pool.
  const core::GcStats& gc_stats() const { return gc_; }

  /// Peer rotations of the microblock-body fetch loop.
  std::size_t fetch_stalls() const { return fetch_.stalls(); }

  /// Attach the shared lifecycle tracer (may be null): microblock
  /// production + availability certification feed the bundle stages,
  /// the embedded HotStuff core the proposal/commit stages.
  void set_tracer(BlockTracer* tracer) {
    tracer_ = tracer;
    core_.set_tracer(tracer);
  }

  /// Observation hook: fired for every executed block.
  CommittedBlockHook on_committed_block;

 private:
  using Key = std::pair<NodeId, std::uint64_t>;

  void enqueue(const std::vector<Transaction>& txs);
  void pack_microblock();
  void schedule_packing();
  void reoffer_stale();
  void reoffer_uncertified(std::uint64_t below_index);
  bool handle_mempool(NodeId from, const runtime::MsgPtr& msg);
  void certify(const MicroblockRef& ref, std::size_t signers);

  // --- HotStuffApp -----------------------------------------------------
  PayloadPtr make_payload(hotstuff::Round round,
                          const std::vector<PayloadPtr>& ancestors) override;
  Validity validate(hotstuff::Round round, const PayloadPtr& payload,
                    const std::vector<PayloadPtr>& ancestors) override;
  void on_commit(hotstuff::Round round, const PayloadPtr& payload) override;

  NodeContext ctx_;
  SharedMempoolConfig cfg_;
  CommitLedger& ledger_;
  ReplyManager replies_;
  hotstuff::HotStuffCore core_;
  Rng rng_;
  BlockTracer* tracer_ = nullptr;

  std::deque<Transaction> tx_queue_;
  std::uint64_t own_index_ = 0;
  // Sheds past 400 ms of uplink backlog or at kUnconfirmedTxCap.
  AdmissionBudget admission_{milliseconds(400)};
  std::size_t own_uncommitted_txs_ = 0;
  // A producer at its cap re-offers, once per kReofferInterval, its
  // uncertified microblocks below the index it had reached at the
  // previous re-offer (so each is at least one interval old).
  static constexpr SimTime kReofferInterval = seconds(1);
  std::uint64_t reoffer_below_ = 0;
  SimTime next_reoffer_ = 0;

  std::map<Key, Microblock> pool_;
  // Own microblocks until pool GC: the id, computed once at pack (acks
  // are checked against it), and the group indices that acked it.
  struct OwnMicroblock {
    Hash32 id;
    std::set<std::size_t> acks;
  };
  std::map<Key, OwnMicroblock> own_;
  std::set<Key> certified_;
  std::deque<MicroblockRef> proposable_;  ///< certified, FIFO
  std::set<Key> committed_;
  std::map<Key, MicroblockRef> fetching_;
  // Fetch pacing: capped jittered exponential backoff (replaces the
  // old fixed-interval retry) plus stall-driven peer rotation, so a
  // post-heal herd of fetchers desynchronizes instead of re-colliding.
  // Never gives up: a certified body is held by ack_quorum nodes.
  RetryLoop fetch_;

  // Commit order of microblock keys, for pool GC.
  std::deque<Key> committed_order_;
  core::GcStats gc_;

  void retry_fetches();
};

}  // namespace predis::consensus::narwhal
