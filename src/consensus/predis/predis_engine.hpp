// The Predis data-production engine (§III): continuous bundle packing
// and multicast, mempool maintenance, conflict/ban handling, missing-
// bundle fetch, Predis-block construction/validation, and deferred
// commit execution. P-PBFT and P-HS embed one engine each and adapt it
// to their consensus core through thin PbftApp/HotStuffApp shims.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <set>

#include "bundle/predis_block.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "consensus/common.hpp"
#include "consensus/payloads.hpp"
#include "consensus/predis/messages.hpp"
#include "core/recovery.hpp"

namespace predis {
class BlockTracer;
}  // namespace predis

namespace predis::consensus::predis {

/// Byzantine behaviours used in the Fig. 6 experiment.
enum class FaultMode {
  kNone,
  /// Case 1: neither produces bundles nor votes.
  kSilent,
  /// Case 2: refuses to vote; sends each bundle to a random subset of
  /// n_c - f - 1 peers, so quorum votes stall until fetches resolve.
  kPartialDissemination,
};

/// Cap on the missing-bundle span requested per incoming bundle. The
/// gap size is attacker-controlled (a Byzantine producer can sign a
/// header at any height), so fetch-ref construction must stay O(cap),
/// not O(claimed height). See tests/consensus/test_predis.cpp.
inline constexpr BundleHeight kMaxFetchSpan = 256;

struct PredisConfig {
  std::size_t bundle_size = 50;  ///< Max transactions per bundle (paper).
  SimTime bundle_interval = milliseconds(25);  ///< Continuous production.
  SimTime fetch_retry = milliseconds(150);     ///< Missing-bundle re-request.
  /// Bundle-body GC horizon below the confirmed watermark. Consensus
  /// nodes that also feed a full-node distribution layer keep more
  /// history so lagging relayers can still pull (0 = keep everything).
  BundleHeight gc_retention = 64;
  /// Ablation knob: override the `f` used by the cutting rule
  /// (SIZE_MAX = use the consensus group's f). f_cut = 0 waits for every
  /// node ("slowest"), f_cut = n-1 cuts at the leader's own knowledge
  /// ("optimistic", forces fetches).
  std::size_t cut_f_override = static_cast<std::size_t>(-1);
  /// Shed client transactions once the uplink queue extends this far
  /// into the future (graceful saturation). Admission also sheds at
  /// kUnconfirmedTxCap admitted-but-unconfirmed transactions
  /// (AdmissionBudget, consensus/common.hpp).
  SimTime backpressure = milliseconds(150);
  /// §III-E: how long an equivocating producer stays banned before it
  /// may rejoin with a new genesis bundle. 0 = banned forever.
  SimTime ban_duration = 0;
  FaultMode fault = FaultMode::kNone;
  std::uint64_t seed = 1;
};

class PredisEngine {
 public:
  /// `keys` = public keys of all n_c producers (chain order);
  /// `own_key` must be this node's keypair.
  PredisEngine(NodeContext& ctx, PredisConfig config,
               std::vector<PublicKey> keys, KeyPair own_key);

  // --- Wiring ----------------------------------------------------------

  /// Called by the embedding node when any Predis-layer message arrives.
  /// Returns false if the message belongs to someone else.
  bool handle(NodeId from, const runtime::MsgPtr& msg);

  /// Start the continuous bundle-production loop.
  void start();

  /// Rejoin resync (crash-recovery): probe peers for their mempool tip
  /// lists, pull the bundle backlog we slept through, re-announce our
  /// own chain tip, and restart any stalled fetch retry loop. Called by
  /// the embedding node's on_restart before consensus resumes producing.
  void on_restart();

  /// Client transactions enter the local bundle queue here.
  void enqueue(const std::vector<Transaction>& txs);

  /// Attach the shared block-lifecycle tracer (may be null). The engine
  /// records tx enqueue, bundle production, bundle stores, cut
  /// proposals, commits and ban/rejoin events into it.
  void set_tracer(BlockTracer* tracer) { tracer_ = tracer; }

  /// Byzantine test hook (swarm harness): produce two *conflicting*
  /// bundles at the next height — same parent, different transaction
  /// roots — and send each to a disjoint half of the peers. Honest
  /// nodes that see both detect the §III-A conflict, ban this producer
  /// and gossip the signed evidence; the engine keeps building on the
  /// first bundle, so its later output is rejected everywhere.
  void inject_equivocation();

  /// Fired whenever the mempool gained bundles (new bundle or fetch
  /// response) — consensus shims hook payload_ready / revalidate here.
  std::function<void()> on_mempool_grew;

  /// Optional dissemination override: Multi-Zone taps produced bundles
  /// here (to erasure-code toward relayers) *in addition to* the default
  /// consensus-peer multicast.
  std::function<void(const Bundle&)> on_bundle_produced;

  /// Fired for every bundle stored in the mempool — own productions and
  /// bundles received from peers. Multi-Zone consensus nodes stripe
  /// every stored bundle toward their subscribers (§IV-D: "when a
  /// consensus node receives a new bundle, it encodes that bundle...").
  std::function<void(const Bundle&)> on_bundle_stored;

  /// Optional hook invoked when a block's transactions execute.
  std::function<void(const PredisBlock&, const std::vector<Transaction>&)>
      on_block_executed;

  /// Fired the moment this node first handles a block proposal — when
  /// the leader builds one, and when a replica validates one. Test
  /// harnesses use the earliest sighting across nodes as the block's
  /// birth time (decision timestamps lag arbitrarily under faults).
  std::function<void(const PredisBlock&)> on_block_proposal;

  // --- Consensus-side API ----------------------------------------------

  /// Leader: build the next Predis block on top of `prev_heights`.
  /// Returns nullptr when the cut would confirm nothing new.
  PayloadPtr build_payload(BlockHeight height, View view,
                           const Hash32& parent_hash,
                           const std::vector<BundleHeight>& prev_heights);

  /// Replica: §III-B checks. kPending triggers missing-bundle fetches.
  Validity validate_payload(const PayloadPtr& payload,
                            const std::vector<BundleHeight>& expected_prev);

  /// A block was decided: execute now if possible, else defer until the
  /// referenced bundles arrive. Slot key orders deferred executions.
  void commit_block(std::uint64_t slot, const PayloadPtr& payload);

  /// Cut of the newest committed block (prev_heights for the next one).
  const std::vector<BundleHeight>& last_cut() const { return last_cut_; }

  /// State-transfer support: jump the engine to a certified cut without
  /// executing the skipped blocks (their transactions were delivered to
  /// clients by the nodes that stayed up). Deferred commits at or below
  /// `upto_slot` are dropped.
  void fast_forward(const std::vector<BundleHeight>& cut,
                    std::uint64_t upto_slot);

  const Mempool& mempool() const { return mempool_; }
  Mempool& mempool() { return mempool_; }
  const PredisConfig& config() const { return cfg_; }

  /// Bundle bodies reclaimed by mempool GC, summed over all chains.
  core::GcStats gc_stats() const {
    core::GcStats gc;
    for (std::size_t i = 0; i < mempool_.chain_count(); ++i) {
      gc.bytes += mempool_.chain(i).gc_bytes();
      gc.items += mempool_.chain(i).gc_items();
    }
    return gc;
  }

  /// Stall-detector escalations of the missing-bundle fetch loop.
  std::size_t fetch_stalls() const { return fetch_.stalls(); }

  /// Number of transactions waiting to be packed into bundles.
  std::size_t queue_depth() const { return tx_queue_.size(); }

  /// Shed counts of the front-door admission go to `metrics`.
  void set_metrics(Metrics* metrics) { admission_.set_metrics(metrics); }

  /// Transactions in this node's own bundles above its confirmed cut
  /// (what admission counts besides the ingress queue).
  std::size_t unconfirmed_txs() const;

  /// Callback used by commit execution to deliver replies + metrics.
  /// `tx_root` is the Merkle root over `txs` (executed_tx_root: the
  /// block's own root unless the local cut tips disagree with it).
  std::function<void(std::uint64_t slot, const PredisBlock&,
                     const std::vector<Transaction>& txs,
                     const Hash32& tx_root)>
      on_execute;

 private:
  void produce_bundle();
  void schedule_production();
  /// Ban + (if ban_duration > 0) schedule the rejoin grant.
  void apply_ban(NodeId producer);
  void disseminate(const Bundle& bundle);
  void add_bundle(NodeId from, const Bundle& bundle,
                  VerifiedChecks verified = {});
  void request_missing(const std::vector<MissingBundleRef>& refs);
  void arm_fetch_retry();
  void retry_fetches();
  void flush_deferred();

  NodeContext& ctx_;
  PredisConfig cfg_;
  Mempool mempool_;
  KeyPair own_key_;
  Rng rng_;

  std::deque<Transaction> tx_queue_;
  // Enqueue time of each waiting transaction (parallel to tx_queue_);
  // feeds the tracer's tx-enqueued stage.
  std::deque<SimTime> tx_enqueue_times_;
  AdmissionBudget admission_;
  BundleHeight own_height_ = 0;
  Hash32 own_parent_hash_ = kZeroHash;

  BlockTracer* tracer_ = nullptr;

  // Producers whose rejoin grant is already scheduled. Guards apply_ban
  // against re-arming the timer for every duplicate ConflictMsg: a
  // stale timer firing after the producer already rejoined would wipe
  // its fresh post-rejoin chain (and for our own index, reset the
  // production head into self-equivocation).
  std::set<NodeId> pending_rejoins_;

  std::vector<BundleHeight> last_cut_;

  // Outstanding fetches: refs we asked for and have not yet received.
  std::set<std::pair<NodeId, BundleHeight>> outstanding_fetches_;
  // Fetch pacing: capped jittered exponential backoff replaces the old
  // fixed fetch_retry interval, and the peer ladder rotates the target
  // deterministically instead of picking one at random — so a
  // withholding producer is routed around and a post-heal fetcher herd
  // desynchronizes. Never gives up.
  RetryLoop fetch_;

  // Committed blocks whose bundles have not all arrived yet.
  std::map<std::uint64_t, PayloadPtr> deferred_commits_;
};

}  // namespace predis::consensus::predis
