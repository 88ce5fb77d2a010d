// Shared consensus scaffolding: the opaque payload abstraction that lets
// one PBFT/HotStuff state machine drive either raw transaction batches
// (baselines) or Predis blocks / microblock-id lists (the paper's
// systems), plus node context helpers, the one catch-up/fetch retry
// loop, the cross-node commit ledger used for both metrics and safety
// checking, and client reply batching.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "common/sha256.hpp"
#include "common/signature.hpp"
#include "common/types.hpp"
#include "core/recovery.hpp"
#include "runtime/runtime.hpp"
#include "txpool/transaction.hpp"

namespace predis::consensus {

/// What a consensus slot decides on. Implementations: TxBatchPayload
/// (baseline PBFT/HotStuff), PredisPayload (P-PBFT/P-HS), IdListPayload
/// (Narwhal/Stratus-style).
class Payload {
 public:
  virtual ~Payload() = default;
  /// Bytes this payload adds to a proposal on the wire.
  virtual std::size_t wire_size() const = 0;
  /// Binding digest of the payload content.
  virtual Hash32 digest() const = 0;
  virtual const char* kind() const = 0;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Replica-side payload check outcome. kPending means "cannot decide
/// yet" (e.g. referenced bundles still in flight); the app later calls
/// the core's revalidate hook.
enum class Validity { kValid, kInvalid, kPending };

/// Static configuration of one consensus group.
struct ConsensusConfig {
  std::vector<NodeId> nodes;  ///< Network ids of the n_c consensus nodes.
  std::size_t f = 1;          ///< Tolerated Byzantine faults.
  SimTime view_timeout = milliseconds(2000);
  /// Leaders cut no *new* payloads at or after this time; in-flight
  /// proposals still run to commit. Experiment drivers set this to the
  /// load-stop time so the drain window closes every trace entry — a
  /// proposal cut in the final instant of a run used to be frozen
  /// mid-flight by the harness stop, leaving a cut-proposed trace entry
  /// with no commit forever (the 66-entries / 65-commits mismatch).
  SimTime propose_until = kSimTimeNever;
};

/// Convenience wrapper every consensus engine holds: identity, peers,
/// messaging and timers. Engines talk only to the Runtime seam — which
/// backend carries the traffic (discrete-event simulator or real
/// threads) is the harness's choice.
class NodeContext {
 public:
  NodeContext(runtime::Runtime& rt, NodeId self, ConsensusConfig config)
      : net_(&rt), self_(self), cfg_(std::move(config)) {
    for (std::size_t i = 0; i < cfg_.nodes.size(); ++i) {
      if (cfg_.nodes[i] == self) index_ = i;
    }
  }

  runtime::Runtime& net() const { return *net_; }
  NodeId self() const { return self_; }
  std::size_t index() const { return index_; }
  std::size_t n() const { return cfg_.nodes.size(); }
  std::size_t f() const { return cfg_.f; }
  /// Quorum size n - f (= 2f + 1 when n = 3f + 1).
  std::size_t quorum() const { return n() - cfg_.f; }
  const ConsensusConfig& config() const { return cfg_; }

  NodeId node(std::size_t idx) const { return cfg_.nodes[idx]; }

  /// Index of a consensus node id inside the group; n() if not a member.
  std::size_t index_of(NodeId id) const {
    for (std::size_t i = 0; i < cfg_.nodes.size(); ++i) {
      if (cfg_.nodes[i] == id) return i;
    }
    return cfg_.nodes.size();
  }

  SimTime now() const { return net_->now(); }

  void send_to(std::size_t idx, runtime::MsgPtr msg) const {
    net_->send(self_, cfg_.nodes[idx], std::move(msg));
  }

  void send_node(NodeId id, runtime::MsgPtr msg) const {
    net_->send(self_, id, std::move(msg));
  }

  /// Send to every other consensus node.
  void broadcast(const runtime::MsgPtr& msg) const {
    net_->multicast(self_, cfg_.nodes, msg);
  }

  /// Timer owned by this node: the backend serializes the callback
  /// with the node's message handling.
  runtime::TimerHandle after(SimTime delay, std::function<void()> fn) const {
    return net_->schedule(self_, delay, std::move(fn));
  }

 private:
  runtime::Runtime* net_;
  NodeId self_;
  std::size_t index_ = 0;
  ConsensusConfig cfg_;
};

/// The one retry loop behind every catch-up and fetch (the paper's
/// §III-D: ask the producer first, then other available nodes): the
/// attempt count, the retry timer, the jittered backoff, the stalled-
/// peer ladder and an optional give-up cap. The owner keeps its own
/// completion test and request message and picks which steps to take
/// when. Jitter is drawn from the owner's Rng at each arm(), so the
/// draw order stays the owner's. Builds without touching the heap.
class RetryLoop {
 public:
  /// Cap of loops that never give up.
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  RetryLoop(const NodeContext& ctx, Rng& rng,
            core::BackoffPolicy backoff = {},
            std::size_t max_attempts = kUnbounded)
      : ctx_(&ctx),
        rng_(&rng),
        backoff_(backoff),
        peers_(ctx.n(), ctx.index()),
        max_attempts_(max_attempts) {}
  // Points into its owner, and a copy would share the owner's timer.
  RetryLoop(const RetryLoop&) = delete;
  RetryLoop& operator=(const RetryLoop&) = delete;

  /// Open an episode; false when one is already open.
  bool begin() {
    if (active_) return false;
    active_ = true;
    attempt_ = 0;
    return true;
  }
  bool active() const { return active_; }
  /// Unanswered retries since the last progress or stop.
  std::size_t attempt() const { return attempt_; }
  bool armed() const { return timer_.scheduled(); }
  /// The peer the next retry asks.
  std::size_t peer() const { return peers_.peer(); }
  /// Peer rotations forced by repeated silence.
  std::size_t stalls() const { return peers_.stalls(); }
  /// Aim the next retries at `peer` (ignored if out of range or self).
  void prefer(std::size_t peer) { peers_.prefer(peer); }

  /// Run `on_retry` after this attempt's backoff delay, replacing any
  /// pending retry.
  template <typename Fn>
  void arm(Fn&& on_retry) {
    timer_.cancel();
    timer_ = ctx_->after(backoff_.delay(attempt_, *rng_),
                         std::forward<Fn>(on_retry));
  }

  /// A retry came due with the work unfinished. At the cap, stop and
  /// return false; else count it, moving to the next peer after
  /// repeated silence from this one.
  bool retry() {
    if (attempt_ >= max_attempts_) {
      stop();
      return false;
    }
    peers_.on_timeout();
    ++attempt_;
    return true;
  }

  /// A request was answered: keep asking `from` (out of range keeps the
  /// current peer) and restart the backoff at its fast end.
  void progress(std::size_t from = static_cast<std::size_t>(-1)) {
    peers_.prefer(from);
    peers_.on_progress();
    attempt_ = 0;
  }

  /// Close the episode, drop any pending retry and restart the backoff
  /// at its fast end. The peer ladder keeps its place.
  void stop() {
    active_ = false;
    attempt_ = 0;
    timer_.cancel();
  }

 private:
  const NodeContext* ctx_;
  Rng* rng_;
  core::BackoffPolicy backoff_;
  core::StallDetector peers_;
  std::size_t max_attempts_;
  std::size_t attempt_ = 0;
  bool active_ = false;
  runtime::TimerHandle timer_;
};

/// Give-up cap of the PBFT and HotStuff catch-up loops. Lag evidence
/// can be forged (a garbage beyond-window Commit), so a core stops
/// after this many unanswered retries and re-arms only on fresh
/// evidence. Any real progress resets the count.
inline constexpr std::size_t kCatchUpAttempts = 12;

/// Producer public keys in chain order. Keys derive from network node
/// ids, the one convention every engine and verifier shares.
inline std::vector<PublicKey> producer_keys(const std::vector<NodeId>& ids) {
  std::vector<PublicKey> keys;
  for (NodeId id : ids) keys.push_back(KeyPair::from_seed(id).public_key());
  return keys;
}

/// Most client transactions a shared-mempool producer may hold admitted
/// but not yet confirmed: its ingress queue plus its own bundles or
/// microblocks that consensus has not confirmed yet.
inline constexpr std::size_t kUnconfirmedTxCap = 4000;

/// Front-door admission shared by the shared-mempool producers (Predis
/// bundles, Narwhal/Stratus microblocks). A client batch is shed when
/// either rule fires:
///   1. uplink backlog — the node's uplink queue already reaches more
///      than `max_backlog` into the future (the TCP push-back analogue);
///   2. unconfirmed cap — the transactions this node admitted that
///      consensus has not confirmed yet reach `cap`.
/// Rule 2 bounds a producer by what its consensus can confirm. Eager
/// packing keeps the ingress queue below one bundle, so a cap on the
/// queue alone never binds; past the knee the producer then bundles
/// load nobody will cut for seconds, and those bundles crowd votes off
/// the shared downlinks until commits collapse. The owner supplies the
/// unconfirmed count on every call, read off its own chain or pool.
class AdmissionBudget {
 public:
  explicit AdmissionBudget(SimTime max_backlog,
                           std::size_t cap = kUnconfirmedTxCap)
      : max_backlog_(max_backlog), cap_(cap) {}

  /// Shed counts go to `metrics` (may be null).
  void set_metrics(Metrics* metrics) { metrics_ = metrics; }

  /// Does a node holding `unconfirmed` admitted transactions have no
  /// room for more?
  bool at_cap(std::size_t unconfirmed) const { return unconfirmed >= cap_; }

  /// May a client batch of `n` transactions enter a node that holds
  /// `unconfirmed` admitted-but-unconfirmed ones? A refused batch is
  /// counted by reason.
  bool admit(const NodeContext& ctx, std::size_t unconfirmed,
             std::size_t n) const {
    if (ctx.net().uplink_backlog(ctx.self()) > max_backlog_) {
      return shed(ShedReason::kUplinkBacklog, n);
    }
    if (at_cap(unconfirmed)) return shed(ShedReason::kUnconfirmedCap, n);
    return true;
  }

 private:
  bool shed(ShedReason reason, std::size_t n) const {
    if (metrics_ != nullptr) metrics_->record_shed(reason, n);
    return false;
  }

  SimTime max_backlog_;
  std::size_t cap_;
  Metrics* metrics_ = nullptr;
};

/// Size constants for simulated signatures/certificates on the wire.
inline constexpr std::size_t kSigBytes = 64;
inline constexpr std::size_t kVoteBytes = 32 + kSigBytes + 16;
/// A quorum certificate of q signatures over a 32-byte digest.
inline constexpr std::size_t qc_bytes(std::size_t q) {
  return 32 + 8 + q * (kSigBytes + 4);
}

/// Per-node observation hook fired for every executed block: payload
/// digest, Merkle root over the executed transactions' ids, their
/// count, commit time. Feeds the per-node Ledgers. The root is one the
/// node already holds, so observing a commit hashes nothing.
using CommittedBlockHook =
    std::function<void(const Hash32& payload_digest, const Hash32& tx_root,
                       std::size_t tx_count, SimTime when)>;

/// Experiment-wide commit record shared by all consensus nodes of one
/// simulated cluster. Serves two purposes: (a) metrics — the first
/// commit of each slot feeds throughput; (b) safety checking — any two
/// nodes committing different digests for the same slot is flagged.
class CommitLedger {
 public:
  explicit CommitLedger(Metrics& metrics) : metrics_(&metrics) {}

  /// Optional per-commit observer: fired for *every* node's commit of
  /// every slot (not just the first), with the committing node's index.
  /// The swarm harness hooks its invariant checker here, which is how
  /// all four engines (PBFT, HotStuff, Predis, Narwhal) feed the safety
  /// invariants without protocol-specific wiring.
  using Observer = std::function<void(std::size_t node_index,
                                      std::uint64_t slot,
                                      const Hash32& digest,
                                      std::size_t tx_count, SimTime when)>;
  void set_observer(Observer observer) {
    std::lock_guard<std::mutex> lock(m_);
    observer_ = std::move(observer);
  }

  void on_commit(std::size_t node_index, std::uint64_t slot,
                 const Hash32& digest, std::size_t tx_count, SimTime when) {
    // One ledger is shared by every consensus node of a cluster; on
    // the threaded backend those nodes commit from different workers.
    std::lock_guard<std::mutex> lock(m_);
    if (observer_) observer_(node_index, slot, digest, tx_count, when);
    auto [it, inserted] = slots_.try_emplace(slot, Entry{digest, when, 1});
    if (inserted) {
      // Dedupe by (height, hash): a replica that restarted mid-run can
      // re-propose transactions that already committed while it was
      // down (its queue never saw their commit), landing the same
      // payload at a *different* slot. Those transactions reached
      // clients once; counting them again inflated churn-storm
      // throughput past the clean run (the 1.125x PBFT cell).
      const bool repeat = !counted_payloads_.insert(digest).second;
      if (repeat) ++duplicate_payloads_;
      metrics_->record_commit(when, repeat ? 0 : tx_count);
    } else {
      ++it->second.commit_count;
      if (it->second.digest != digest) conflicting_ = true;
    }
    (void)node_index;
  }

  bool consistent() const {
    std::lock_guard<std::mutex> lock(m_);
    return !conflicting_;
  }
  std::size_t committed_slots() const {
    std::lock_guard<std::mutex> lock(m_);
    return slots_.size();
  }
  /// Payloads committed at more than one slot (re-proposals after
  /// restart); their transactions are counted only once.
  std::size_t duplicate_payloads() const {
    std::lock_guard<std::mutex> lock(m_);
    return duplicate_payloads_;
  }
  Metrics& metrics() { return *metrics_; }

 private:
  struct Entry {
    Hash32 digest;
    SimTime first_commit;
    std::size_t commit_count;
  };
  Metrics* metrics_;
  mutable std::mutex m_;
  Observer observer_ PREDIS_GUARDED_BY(m_);
  std::map<std::uint64_t, Entry> slots_ PREDIS_GUARDED_BY(m_);
  std::set<Hash32> counted_payloads_ PREDIS_GUARDED_BY(m_);
  std::size_t duplicate_payloads_ PREDIS_GUARDED_BY(m_) = 0;
  bool conflicting_ PREDIS_GUARDED_BY(m_) = false;
};

/// Batches committed-transaction acknowledgements into one ClientReplyMsg
/// per client per commit, sent by exactly one designated replica (chosen
/// by client id) so the simulated reply traffic matches one logical
/// reply per transaction.
class ReplyManager {
 public:
  ReplyManager(NodeContext& ctx) : ctx_(&ctx) {}

  void reply_committed(const std::vector<Transaction>& txs) {
    std::map<NodeId, std::vector<TxSeq>> by_client;
    for (const auto& tx : txs) {
      if (tx.client == kNoNode) continue;
      if (tx.client % ctx_->n() != ctx_->index()) continue;  // not ours
      by_client[tx.client].push_back(tx.seq);
    }
    const SimTime now = ctx_->now();
    for (auto& [client, seqs] : by_client) {
      auto msg = std::make_shared<ClientReplyMsg>();
      msg->seqs = std::move(seqs);
      msg->committed_at = now;
      ctx_->send_node(client, std::move(msg));
    }
  }

 private:
  NodeContext* ctx_;
};

/// Round-robin leader for view/round `v`.
inline std::size_t leader_index(View v, std::size_t n) {
  return static_cast<std::size_t>(v % n);
}

}  // namespace predis::consensus
