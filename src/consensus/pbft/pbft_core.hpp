// PBFT (Castro & Liskov) state machine over opaque payloads.
//
// One slot (sequence number) at a time is in flight — the leader
// proposes slot s+1 once slot s executes, which matches the round
// model of the paper's §III-F analysis (P_i, W_i, A_i back to back).
// Three phases: PrePrepare (leader multicast, carries the payload),
// Prepare and Commit (all-to-all, digest-sized) — the O(n²) message
// pattern PBFT is known for. View change replaces a silent or
// misbehaving leader and safely re-proposes any prepared payload.
//
// The same core drives the baseline (TxBatchPayload) and P-PBFT
// (PredisPayload) engines; only the PbftApp differs.
#pragma once

#include <map>
#include <set>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "consensus/common.hpp"
#include "core/recovery.hpp"

namespace predis {
class BlockTracer;
}  // namespace predis

namespace predis::consensus::pbft {

/// High-watermark window: messages for sequence numbers further than
/// this beyond the local execution point are ignored (Castro-Liskov's
/// [h, h + L] log bound). Keeps a hostile peer spraying absurd sequence
/// numbers from growing the slot/checkpoint vote logs without bound.
inline constexpr SeqNum kSeqWindow = 4096;

/// Maximum executed slots one CatchUpBatchMsg carries. The gap a
/// catch-up request reports is attacker-controlled (have_seq can be
/// absurdly low), so servers clamp every reply to this span and the
/// requester comes back for the rest — one hostile request can never
/// make a replica serialize its whole log in one message.
inline constexpr SeqNum kMaxCatchUpSpan = 64;

struct PrePrepareMsg final : runtime::Message {
  View view = 0;
  SeqNum seq = 0;
  PayloadPtr payload;

  std::size_t wire_size() const override {
    return 16 + 32 + kSigBytes + payload->wire_size();
  }
  const char* name() const override { return "PrePrepare"; }
};

struct PrepareMsg final : runtime::Message {
  View view = 0;
  SeqNum seq = 0;
  Hash32 digest = kZeroHash;

  std::size_t wire_size() const override { return 16 + kVoteBytes; }
  const char* name() const override { return "Prepare"; }
};

struct CommitMsg final : runtime::Message {
  View view = 0;
  SeqNum seq = 0;
  Hash32 digest = kZeroHash;

  std::size_t wire_size() const override { return 16 + kVoteBytes; }
  const char* name() const override { return "Commit"; }
};

struct ViewChangeMsg final : runtime::Message {
  View new_view = 0;
  SeqNum last_exec = 0;

  /// Prepared-but-unexecuted proposals (safety carry-over): with a
  /// pipelining window > 1 there may be several in flight.
  struct Prepared {
    View view = 0;
    SeqNum seq = 0;
    PayloadPtr payload;
    /// Prepare-certificate size backing this entry (Castro-Liskov's
    /// P-set proof: 2f + 1 signed prepares). Models certificate
    /// verification — the new leader only carries entries whose proof
    /// reaches quorum, since a Byzantine voter cannot forge one.
    std::size_t proof = 0;
  };
  std::vector<Prepared> prepared;

  std::size_t wire_size() const override {
    std::size_t size = 32 + kSigBytes + qc_bytes(2);
    for (const Prepared& p : prepared) {
      size += 48 + qc_bytes(p.proof) +
              (p.payload ? p.payload->wire_size() : 0);
    }
    return size;
  }
  const char* name() const override { return "ViewChange"; }
};

struct NewViewMsg final : runtime::Message {
  View new_view = 0;
  /// View-change votes backing this NEW-VIEW (the V-set certificate).
  /// Models certificate verification: receivers ignore a NewView whose
  /// proof is below quorum, so one hostile message cannot drag the
  /// group into an absurd view.
  std::size_t proof = 0;

  std::size_t wire_size() const override {
    return 16 + kSigBytes + qc_bytes(proof);
  }
  const char* name() const override { return "NewView"; }
};

/// Periodic checkpoint vote (Castro-Liskov): "I executed up to `seq`
/// and my state digest is `digest`". A quorum of matching votes makes
/// the checkpoint *stable*, letting logs be pruned and lagging replicas
/// adopt snapshots safely.
struct CheckpointMsg final : runtime::Message {
  SeqNum seq = 0;
  Hash32 digest = kZeroHash;

  std::size_t wire_size() const override { return 8 + kVoteBytes; }
  const char* name() const override { return "Checkpoint"; }
};

/// Snapshot at a checkpoint boundary. The receiver adopts it only if
/// (seq, digest) matches a quorum-certified checkpoint it observed
/// locally, or the attached checkpoint certificate (`proof` signers —
/// modeled verification, as NewViewMsg::proof) reaches quorum. Either
/// way a single Byzantine sender cannot poison state: it can neither
/// mint a local cert nor forge 2f + 1 checkpoint signatures.
struct StateSnapshotMsg final : runtime::Message {
  SeqNum seq = 0;
  Hash32 digest = kZeroHash;
  Bytes blob;
  /// Checkpoint-certificate size backing (seq, digest); 0 = none
  /// attached (legacy path: receiver must hold its own cert).
  std::size_t proof = 0;

  std::size_t wire_size() const override {
    return 48 + kSigBytes + qc_bytes(proof) + blob.size();
  }
  const char* name() const override { return "StateSnapshot"; }
};

/// A lagging replica asking a peer to stream the executed slots it
/// missed, starting just above `have_seq`. Answered with either a
/// CatchUpBatchMsg (peer still retains those slots) or a certified
/// StateSnapshotMsg (gap starts below the peer's pruned log floor).
struct CatchUpRequestMsg final : runtime::Message {
  SeqNum have_seq = 0;

  std::size_t wire_size() const override { return 16 + kSigBytes; }
  const char* name() const override { return "CatchUpRequest"; }
};

/// Contiguous run of executed slots, each carried with its commit
/// certificate (`proof` signers — modeled verification). The receiver
/// executes entries in order; an entry whose certificate is below
/// quorum is a fabrication and is skipped.
struct CatchUpBatchMsg final : runtime::Message {
  struct Entry {
    SeqNum seq = 0;
    PayloadPtr payload;
    std::size_t proof = 0;
  };
  std::vector<Entry> entries;

  std::size_t wire_size() const override {
    std::size_t size = 16 + kSigBytes;
    for (const Entry& e : entries) {
      size += 16 + qc_bytes(e.proof) +
              (e.payload ? e.payload->wire_size() : 0);
    }
    return size;
  }
  const char* name() const override { return "CatchUpBatch"; }
};

/// Application hooks: what gets ordered and what happens on commit.
class PbftApp {
 public:
  virtual ~PbftApp() = default;

  /// Leader-side: produce the payload for the next slot, or nullptr if
  /// nothing is ready (the core will retry on payload_ready()).
  virtual PayloadPtr make_payload(SeqNum seq) = 0;

  /// Replica-side validation. kPending defers the Prepare vote until
  /// the app calls PbftCore::revalidate(seq).
  virtual Validity validate(SeqNum seq, const PayloadPtr& payload) = 0;

  /// Slot executed (exactly once, in seq order).
  virtual void on_commit(SeqNum seq, const PayloadPtr& payload) = 0;

  /// Digest of the application state after the last on_commit —
  /// checkpoint votes carry it. Default: no state.
  virtual Hash32 state_digest() { return kZeroHash; }

  /// Serialize the application state for state transfer (captured at
  /// checkpoint boundaries). Default: stateless.
  virtual Bytes make_snapshot() { return {}; }

  /// Fast-forward to a certified snapshot taken after slot `seq`.
  virtual void apply_snapshot(SeqNum seq, BytesView blob) {
    (void)seq;
    (void)blob;
  }
};

class PbftCore {
 public:
  PbftCore(NodeContext ctx, PbftApp& app);

  /// Arm the engine (leader tries to propose).
  void start();

  /// Feed a consensus message; returns false if the message type is not
  /// a PBFT message (caller may route it elsewhere).
  bool handle(NodeId from, const runtime::MsgPtr& msg);

  /// App signal: new data available; leader may propose, and replicas
  /// (re)arm their "expecting progress" timer.
  void payload_ready();

  /// App signal: a kPending validation may now succeed.
  void revalidate(SeqNum seq);

  /// Crash-recovery hook (runtime::Actor::on_restart forwards here): the
  /// node was down (or partitioned) and missed every message in the
  /// window. Probes peers for the slots it missed instead of resuming
  /// blind and burning view timeouts.
  void on_restart();

  View view() const { return view_; }
  bool is_leader() const { return leader_index(view_, ctx_.n()) == ctx_.index(); }
  SeqNum last_executed() const { return last_exec_; }
  std::uint64_t view_changes() const { return view_changes_; }
  SeqNum stable_checkpoint() const { return stable_checkpoint_; }
  std::uint64_t state_transfers() const { return state_transfers_; }
  /// Catch-up batches this replica executed from (recovery metric).
  std::uint64_t catch_up_batches() const { return catch_up_batches_; }
  /// Peer rotations forced by unresponsive catch-up servers.
  std::size_t sync_stalls() const { return catch_up_.stalls(); }
  /// Log bytes/items reclaimed by stable-checkpoint pruning.
  const core::GcStats& gc_stats() const { return gc_; }

  /// Reseed the recovery jitter stream (deterministic per run; the
  /// default derives from the node id alone).
  void set_recovery_seed(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Checkpoint every this-many executed slots (0 disables).
  void set_checkpoint_interval(SeqNum interval) {
    checkpoint_interval_ = interval;
  }

  /// Pipelining window: how many slots may be in flight at once.
  /// 1 (default) = the strictly serialized round model of the paper's
  /// §III-F analysis; larger values overlap proposal phases like
  /// classic watermarked PBFT.
  void set_pipeline_window(SeqNum window) {
    window_ = window == 0 ? 1 : window;
  }
  SeqNum pipeline_window() const { return window_; }

  /// Fault injection: a paused node neither votes nor proposes.
  void set_paused(bool paused) { paused_ = paused; }

  /// Attach the shared lifecycle tracer (may be null): records proposal
  /// and commit times keyed by payload digest. Baseline protocols wire
  /// this directly; P-PBFT traces through its engine instead to avoid
  /// double-counting.
  void set_tracer(BlockTracer* tracer) { tracer_ = tracer; }

 private:
  struct Slot {
    View view = 0;
    PayloadPtr payload;
    Hash32 digest = kZeroHash;
    bool preprepared = false;
    Validity validity = Validity::kPending;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool executed = false;
    // Prepared certificate: the highest view in which this replica
    // collected a prepare quorum for the slot, and the payload it
    // prepared. Unlike the per-view vote flags above, this survives
    // view changes and execution — it is the evidence a ViewChangeMsg
    // carries so a new leader re-proposes the value instead of minting
    // a fresh one (pruned only at stable checkpoints).
    bool has_prepared = false;
    View prepared_view = 0;
    PayloadPtr prepared_payload;
    // Votes per digest (buffered even before the PrePrepare arrives).
    std::map<Hash32, std::set<std::size_t>> prepares;
    std::map<Hash32, std::set<std::size_t>> commits;
  };

  Slot& slot(SeqNum seq);
  void try_propose();
  void on_preprepare(std::size_t from, const PrePrepareMsg& msg);
  void on_prepare(std::size_t from, const PrepareMsg& msg);
  void on_commit_msg(std::size_t from, const CommitMsg& msg);
  void on_view_change(std::size_t from, const ViewChangeMsg& msg);
  void on_new_view(std::size_t from, const NewViewMsg& msg);
  void on_checkpoint(std::size_t from, const CheckpointMsg& msg);
  void on_state_snapshot(std::size_t from, const StateSnapshotMsg& msg);
  void on_catch_up_request(std::size_t from, const CatchUpRequestMsg& msg);
  void on_catch_up_batch(std::size_t from, const CatchUpBatchMsg& msg);
  void maybe_checkpoint(SeqNum seq);
  void note_lag(SeqNum seq, std::size_t from);
  void begin_catch_up(std::size_t prefer);
  void catch_up_tick();
  void request_catch_up(bool broadcast);
  void adopt_snapshot(const StateSnapshotMsg& msg);
  void prune_slots_below(SeqNum floor);
  void maybe_send_prepare(SeqNum seq);
  void maybe_send_commit(SeqNum seq);
  void maybe_execute(SeqNum seq);
  void enter_view(View v);
  void arm_view_timer();
  void disarm_view_timer();
  void on_view_timeout();

  NodeContext ctx_;
  PbftApp& app_;
  BlockTracer* tracer_ = nullptr;
  View view_ = 0;
  SeqNum last_exec_ = 0;
  std::map<SeqNum, Slot> slots_;
  bool paused_ = false;
  bool want_progress_ = false;     ///< Outstanding work justifies timeouts.
  SeqNum window_ = 1;              ///< Max slots in flight (watermarks).
  SeqNum next_propose_ = 1;        ///< Leader's next unproposed slot.
  runtime::TimerHandle view_timer_;
  std::uint64_t view_changes_ = 0;
  // View-change vote collection: view -> (voter index -> message).
  std::map<View, std::map<std::size_t, ViewChangeMsg>> vc_votes_
      PREDIS_MSG_DERIVED;

  // --- Checkpointing / state transfer ---------------------------------
  SeqNum checkpoint_interval_ = 16;
  SeqNum stable_checkpoint_ = 0;
  std::uint64_t state_transfers_ = 0;
  // Vote collection: seq -> digest -> voters.
  std::map<SeqNum, std::map<Hash32, std::set<std::size_t>>> ckpt_votes_
      PREDIS_MSG_DERIVED;
  // Quorum-certified checkpoints we observed: seq -> digest.
  std::map<SeqNum, Hash32> ckpt_certs_ PREDIS_MSG_DERIVED;
  // Our own snapshot at the latest checkpoint boundary we executed.
  SeqNum snapshot_seq_ = 0;
  Hash32 snapshot_digest_ = kZeroHash;
  Bytes snapshot_blob_;

  // --- Catch-up / recovery ---------------------------------------------
  Rng rng_;
  RetryLoop catch_up_;
  /// Highest slot peers credibly claim exists (capped by kSeqWindow).
  SeqNum lag_target_ = 0;
  std::uint64_t catch_up_batches_ = 0;
  core::GcStats gc_;
};

}  // namespace predis::consensus::pbft
