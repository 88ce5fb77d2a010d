// Chained HotStuff (Yin et al., PODC'19) over opaque payloads.
//
// One block per round; votes go to the *next* round's leader, which
// aggregates them into a quorum certificate embedded in its own
// proposal — the O(n) all-to-one pattern that gives HotStuff its
// scalability. Commit uses the three-chain rule with consecutive
// rounds; safety uses the standard locked-round voting rule. A simple
// pacemaker (round-robin leaders, timeout → NewView with the highest
// known QC) restores progress after leader failure.
//
// The same core drives baseline HotStuff (TxBatchPayload), P-HS
// (PredisPayload) and the Narwhal/Stratus comparisons (IdListPayload).
#pragma once

#include <map>
#include <set>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "consensus/common.hpp"
#include "core/recovery.hpp"

namespace predis {
class BlockTracer;
}  // namespace predis

namespace predis::consensus::hotstuff {

using Round = std::uint64_t;

/// Committed blocks are retained this many rounds below the commit
/// frontier so lagging replicas can stream them; anything older is
/// garbage-collected (with byte accounting in gc_stats()).
inline constexpr Round kBlockRetention = 128;

/// Maximum blocks one HsBlockBatchMsg carries. The requester's
/// have_round is attacker-controlled, so servers clamp every reply to
/// this span; a deeper gap is bridged by jump-adopting the newest
/// certified span (snapshot-like) and streaming forward from there.
inline constexpr Round kMaxBlockSpan = 64;

struct QuorumCert {
  Round round = 0;               ///< Round of the certified block.
  Hash32 block_hash = kZeroHash;
  std::size_t signers = 0;       ///< For wire-size accounting only.

  std::size_t wire_size() const { return qc_bytes(signers); }
};

struct HsBlock {
  Round round = 0;
  Hash32 parent = kZeroHash;  ///< Hash of the parent block.
  QuorumCert justify;         ///< QC this block carries (for its parent).
  PayloadPtr payload;
  Hash32 hash = kZeroHash;    ///< Computed at construction.
};

using BlockPtr = std::shared_ptr<const HsBlock>;

/// Deterministic block hash binding round, parent, justify and payload.
Hash32 block_hash(Round round, const Hash32& parent, const Hash32& justify,
                  const Hash32& payload_digest);

BlockPtr make_block(Round round, const Hash32& parent, QuorumCert justify,
                    PayloadPtr payload);

struct ProposalMsg final : runtime::Message {
  BlockPtr block;

  std::size_t wire_size() const override {
    return 48 + kSigBytes + block->justify.wire_size() +
           block->payload->wire_size();
  }
  const char* name() const override { return "HsProposal"; }
};

struct VoteMsg final : runtime::Message {
  Round round = 0;
  Hash32 block_hash = kZeroHash;

  std::size_t wire_size() const override { return kVoteBytes; }
  const char* name() const override { return "HsVote"; }
};

struct NewViewMsg final : runtime::Message {
  Round round = 0;  ///< Round the sender wants to enter.
  QuorumCert high_qc;

  std::size_t wire_size() const override {
    return 16 + kSigBytes + high_qc.wire_size();
  }
  const char* name() const override { return "HsNewView"; }
};

/// A lagging replica asking a peer for the blocks it missed above its
/// commit frontier.
struct HsCatchUpRequestMsg final : runtime::Message {
  Round have_round = 0;

  std::size_t wire_size() const override { return 16 + kSigBytes; }
  const char* name() const override { return "HsCatchUpRequest"; }
};

/// Run of blocks in round order. Entries with commit_proof >= quorum
/// carry a (modeled) commit certificate and are adopted directly;
/// entries with commit_proof 0 are the server's uncommitted suffix and
/// go through the normal store/chain-rule path (their justify QCs are
/// verified like any proposal's).
struct HsBlockBatchMsg final : runtime::Message {
  struct Entry {
    BlockPtr block;
    std::size_t commit_proof = 0;
  };
  std::vector<Entry> entries;

  std::size_t wire_size() const override {
    std::size_t size = 16 + kSigBytes;
    for (const Entry& e : entries) {
      size += 48 + qc_bytes(e.commit_proof) + e.block->justify.wire_size() +
              (e.block->payload ? e.block->payload->wire_size() : 0);
    }
    return size;
  }
  const char* name() const override { return "HsBlockBatch"; }
};

class HotStuffApp {
 public:
  virtual ~HotStuffApp() = default;

  /// Leader-side payload for `round`. `ancestors` lists the payloads of
  /// uncommitted ancestor blocks, nearest first — apps use it to avoid
  /// double-ordering (tx dedup, Predis prev-cut chaining). Return
  /// nullptr when nothing needs ordering.
  virtual PayloadPtr make_payload(Round round,
                                  const std::vector<PayloadPtr>& ancestors) = 0;

  /// Replica-side check; kPending defers the vote until the app calls
  /// HotStuffCore::revalidate().
  virtual Validity validate(Round round, const PayloadPtr& payload,
                            const std::vector<PayloadPtr>& ancestors) = 0;

  /// Block committed (three-chain rule), in round order, exactly once.
  virtual void on_commit(Round round, const PayloadPtr& payload) = 0;
};

class HotStuffCore {
 public:
  HotStuffCore(NodeContext ctx, HotStuffApp& app);

  void start();
  bool handle(NodeId from, const runtime::MsgPtr& msg);

  /// App signals: data ready / pending validation may now pass.
  void payload_ready();
  void revalidate();

  /// Crash-recovery hook: the node was down (or cut off) and missed
  /// every message in the window. Probes peers for the blocks it
  /// missed instead of resuming blind into round timeouts.
  void on_restart();

  Round current_round() const { return cur_round_; }
  Round committed_round() const { return committed_round_; }
  bool is_leader() const {
    return leader_index(cur_round_, ctx_.n()) == ctx_.index();
  }
  std::uint64_t timeouts() const { return timeouts_; }
  /// Catch-up batches this replica adopted blocks from.
  std::uint64_t catch_up_batches() const { return catch_up_batches_; }
  /// Peer rotations forced by unresponsive catch-up servers.
  std::size_t sync_stalls() const { return catch_up_.stalls(); }
  /// Block-store bytes/items reclaimed below the retention window.
  const core::GcStats& gc_stats() const { return gc_; }

  /// Reseed the recovery jitter stream (deterministic per run; the
  /// default derives from the node id alone).
  void set_recovery_seed(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Fault injection: paused nodes neither vote nor propose.
  void set_paused(bool paused) { paused_ = paused; }

  /// Attach the shared lifecycle tracer (may be null): records proposal
  /// and commit times keyed by payload digest. Baseline protocols wire
  /// this directly; P-HS traces through its Predis engine instead.
  void set_tracer(BlockTracer* tracer) { tracer_ = tracer; }

 private:
  const HsBlock* get_block(const Hash32& hash) const;
  void store_block(BlockPtr block);
  void try_flush_orphans();
  void on_proposal(std::size_t from, const ProposalMsg& msg);
  void process_block(const BlockPtr& block);
  void try_vote(const BlockPtr& block);
  void send_vote(Round round, const Hash32& hash);
  void on_vote(std::size_t from, const VoteMsg& msg);
  void on_new_view(std::size_t from, const NewViewMsg& msg);
  void update_high_qc(const QuorumCert& qc);
  void advance_round(Round round);
  void try_propose();
  void commit_chain(const HsBlock& anchor);
  std::vector<PayloadPtr> ancestors_of(const Hash32& parent_hash) const;
  bool extends(const Hash32& descendant, const Hash32& ancestor) const;
  bool has_uncommitted_payload() const;
  void arm_round_timer();
  void on_round_timeout();
  void note_lag(Round round, std::size_t from);
  void begin_catch_up(std::size_t prefer);
  void catch_up_tick();
  void request_catch_up(bool broadcast);
  void on_catch_up_request(std::size_t from, const HsCatchUpRequestMsg& msg);
  void on_block_batch(std::size_t from, const HsBlockBatchMsg& msg);
  void adopt_committed(const BlockPtr& block, std::size_t commit_proof);
  void prune_blocks();

  NodeContext ctx_;
  HotStuffApp& app_;
  BlockTracer* tracer_ = nullptr;

  std::unordered_map<Hash32, BlockPtr, Hash32Hasher> blocks_;
  // Deterministic round-ordered index over blocks_, so log GC walks
  // rounds in order instead of unordered-map iteration order.
  std::multimap<Round, Hash32> blocks_by_round_;
  std::multimap<Hash32, BlockPtr, std::less<>> orphans_
      PREDIS_MSG_DERIVED;  // keyed by parent
  Hash32 genesis_hash_ = kZeroHash;

  Round cur_round_ = 1;
  Round last_voted_round_ = 0;
  Round locked_round_ = 0;
  Hash32 locked_hash_ = kZeroHash;  // set to genesis at construction
  Round committed_round_ = 0;
  Hash32 committed_hash_ = kZeroHash;  // genesis
  QuorumCert high_qc_;
  Round proposed_round_ = 0;  ///< Highest round we proposed in.

  // Vote aggregation at the next leader: round -> digest -> voters.
  std::map<Round, std::map<Hash32, std::set<std::size_t>>> votes_
      PREDIS_MSG_DERIVED;
  // NewView aggregation: round -> senders.
  std::map<Round, std::set<std::size_t>> new_views_ PREDIS_MSG_DERIVED;

  // Blocks whose validation returned kPending (await revalidate()).
  std::map<Round, BlockPtr> pending_validation_;

  bool paused_ = false;
  bool want_progress_ = false;
  runtime::TimerHandle round_timer_;
  std::uint64_t timeouts_ = 0;

  // --- Catch-up / recovery ---------------------------------------------
  Rng rng_;
  RetryLoop catch_up_;
  /// Highest round peers credibly reached (from orphaned proposals).
  Round lag_round_ = 0;
  std::uint64_t catch_up_batches_ = 0;
  core::GcStats gc_;
};

}  // namespace predis::consensus::hotstuff
