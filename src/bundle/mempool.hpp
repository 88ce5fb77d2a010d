// The Predis mempool: n_c parallel bundle chains plus validity rules,
// conflict detection, the ban list, and tip bookkeeping (§III-A).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "bundle/bundle.hpp"

namespace predis {

/// Two signed bundles from the same producer sharing a parent but with
/// different headers — the proof that gets a producer banned.
struct ConflictEvidence {
  BundleHeader first;
  BundleHeader second;
};

/// Outcome of Mempool::add.
enum class AddBundleResult {
  kAdded,          ///< Valid; stored.
  kDuplicate,      ///< Already have this exact bundle.
  kMissingParent,  ///< Buffered; caller should request the parent.
  kConflict,       ///< Conflicts with a stored bundle; producer banned.
  kBannedProducer, ///< Producer is on the ban list; rejected.
  kStaleTips,      ///< Tip list not >= parent's tip list (rule 3).
  kBadSignature,   ///< Signature check failed.
  kBadTxRoot,      ///< Merkle root does not match the transactions.
  kInvalid,        ///< Malformed (wrong chain id, height 0, ...).
};

const char* to_string(AddBundleResult r);

/// Checks the caller of Mempool::add already ran on this exact bundle;
/// each flag skips only its own rule. Set a flag only for a check that
/// actually ran — the two are separate so that a batch-verified
/// signature never vouches for a transaction root, or the reverse.
struct VerifiedChecks {
  bool signature = false;  ///< Header signature (e.g. the batch verifier).
  bool tx_root = false;    ///< header.tx_root == Bundle::tx_root_of(txs).
};

/// Per-producer chain of validated bundles.
class BundleChain {
 public:
  /// Highest height h such that every bundle 1..h is present.
  BundleHeight contiguous_height() const { return contiguous_; }

  const Bundle* get(BundleHeight h) const;
  const Bundle* latest() const;  ///< Bundle at contiguous_height(), if any.

  /// Discard every bundle above `h` (rejoin cleanup).
  void erase_above(BundleHeight h);

  bool has(BundleHeight h) const { return bundles_.count(h) != 0; }
  std::size_t size() const { return bundles_.size(); }

  /// Wire bytes / bundle count reclaimed by GC (prune_below) so far.
  std::uint64_t gc_bytes() const { return gc_bytes_; }
  std::uint64_t gc_items() const { return gc_items_; }

 private:
  friend class Mempool;
  void insert(Bundle b);
  void prune_below(BundleHeight h);

  std::map<BundleHeight, Bundle> bundles_;
  BundleHeight contiguous_ = 0;
  BundleHeight pruned_below_ = 0;  ///< Heights < this have been GC'd.
  std::uint64_t gc_bytes_ = 0;
  std::uint64_t gc_items_ = 0;
};

class Mempool {
 public:
  /// `n_chains` = number of consensus nodes; `keys[i]` is producer i's
  /// public key (used to verify bundle signatures).
  Mempool(std::size_t n_chains, std::vector<PublicKey> producer_keys);

  std::size_t chain_count() const { return chains_.size(); }

  /// Validate a bundle against rules 1-4 of §III-A and store it.
  /// On kConflict, `evidence` (if non-null) receives the conflicting
  /// pair and the producer is added to the ban list. `verified` skips
  /// the checks the caller already ran: a BundleBatch reply's
  /// batch-verified signatures, a producer's root over the
  /// transactions it just packed. Ban, duplicate, conflict, parent and
  /// tip rules always run.
  AddBundleResult add(const Bundle& bundle,
                      ConflictEvidence* evidence = nullptr,
                      VerifiedChecks verified = {});

  const BundleChain& chain(std::size_t i) const { return chains_[i]; }

  /// Registered public key of producer i.
  const PublicKey& producer_key(std::size_t i) const { return keys_[i]; }

  /// This node's own tip list: contiguous height of every chain.
  std::vector<BundleHeight> tip_list() const;

  /// Tip-list matrix: row j = the tip list reported by producer j's
  /// latest contiguous bundle (all zeros if chain j is empty). The
  /// leader overrides its own row with its actual tip list when cutting.
  std::vector<std::vector<BundleHeight>> tip_matrix() const;

  // --- Confirmation / garbage collection ------------------------------

  /// Heights confirmed by committed blocks, one per chain.
  const std::vector<BundleHeight>& confirmed() const { return confirmed_; }

  /// Advance confirmed heights (monotone). Bundles more than
  /// gc_retention() below the confirmed watermark are garbage-collected.
  void confirm(const std::vector<BundleHeight>& heights);

  /// How many heights below the confirmed watermark are kept to serve
  /// fetch requests from lagging peers. 0 disables GC entirely.
  void set_gc_retention(BundleHeight keep) { gc_retention_ = keep; }
  BundleHeight gc_retention() const { return gc_retention_; }

  // --- Ban list --------------------------------------------------------

  void ban(NodeId producer);
  void unban(NodeId producer);

  /// Observation hooks fired when a producer enters / leaves the ban
  /// list (first insertion / removal only). Used by the invariant
  /// checker; engines leave them unset.
  std::function<void(NodeId)> on_ban;
  std::function<void(NodeId)> on_unban;

  /// Fired with the signed conflicting pair every time equivocation is
  /// detected — including while re-validating buffered out-of-order
  /// bundles, where no caller is on the stack to receive the `evidence`
  /// out-parameter. Engines subscribe here to broadcast ConflictMsg, so
  /// evidence found at retry reaches the other honest nodes too.
  std::function<void(NodeId, const ConflictEvidence&)> on_conflict;

  /// §III-E forking attack: after a ban period, a producer may rejoin
  /// by proposing a *new genesis bundle*. This unbans it, discards its
  /// unconfirmed (possibly forked) suffix, and arms a one-shot
  /// exception letting its next bundle chain from the null parent at
  /// height confirmed+1.
  void allow_rejoin(NodeId producer);
  /// True while the producer's rejoin-genesis slot is armed.
  bool rejoin_pending(NodeId producer) const {
    return rejoin_base_.count(producer) != 0;
  }
  bool is_banned(NodeId producer) const { return banned_.count(producer) != 0; }

  // --- Out-of-order buffer ---------------------------------------------

  /// Bundles waiting for a missing parent, oldest first, for one chain.
  /// add() automatically retries buffered children when their parent
  /// arrives.
  std::size_t pending_count(std::size_t chain) const;

 private:
  AddBundleResult validate_and_insert(const Bundle& bundle,
                                      ConflictEvidence* evidence,
                                      VerifiedChecks verified);
  void retry_pending(std::size_t chain_index);

  std::vector<BundleChain> chains_;
  std::vector<PublicKey> keys_;
  std::vector<BundleHeight> confirmed_;
  BundleHeight gc_retention_ = 64;
  std::set<NodeId> banned_;
  // Armed rejoin slots: producer -> height its new genesis chains from.
  std::map<NodeId, BundleHeight> rejoin_base_;
  // Buffered out-of-order bundles per chain, keyed by height.
  std::vector<std::map<BundleHeight, Bundle>> pending_;
};

/// The leader's cutting rule (§III-B): for every chain, the cut height
/// is the height the fastest n_c − f nodes (including the leader) have
/// reached, clamped to what the leader itself holds and floored at the
/// already-confirmed height. Banned producers' chains are never cut
/// above their confirmed height.
///
/// `f` = tolerated faults. Returns one height per chain.
std::vector<BundleHeight> compute_cut(const Mempool& mempool, NodeId leader,
                                      std::size_t f);

}  // namespace predis
