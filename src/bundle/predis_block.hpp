// The Predis block (§III-B): a proposal that carries *no transactions*,
// only metadata — per-chain cut heights, the bundle header at each cut,
// and a Merkle root over every transaction the block maps to. Its size
// is O(n_c) regardless of how many transactions it confirms, which is
// the paper's headline bandwidth property.
#pragma once

#include <optional>
#include <vector>

#include "bundle/mempool.hpp"

namespace predis {

struct PredisBlock {
  BlockHeight height = 0;
  Hash32 parent_hash = kZeroHash;
  NodeId leader = kNoNode;
  View view = 0;
  /// Confirmed height per chain *before* this block (the parent block's
  /// cut); the block confirms bundles in (prev_heights[i], cut_heights[i]].
  std::vector<BundleHeight> prev_heights;
  std::vector<BundleHeight> cut_heights;
  /// Hash of the bundle header at the cut height, for every chain whose
  /// cut advanced (in chain order). By Theorems 3.1/3.2 this single
  /// header hash authenticates the whole newly-confirmed prefix of that
  /// chain — and keeps the block at ~32 bytes per chain, the paper's
  /// "no more than 2.5 KB at n_c = 80" property.
  std::vector<Hash32> header_hashes;
  /// Merkle root over the ids of all transactions the block maps to.
  Hash32 tx_root = kZeroHash;
  Signature signature{};

  /// Deterministic encoding of the signed portion (everything except
  /// the signature) — shared by hash(), sign/verify and encode().
  void encode_signed(Writer& w) const;
  /// The signed portion as owned bytes, for callers that re-sign a
  /// hand-built block; hot paths use encode_signed via with_encoding.
  Bytes signing_bytes() const;
  Hash32 hash() const;

  void encode(Writer& w) const;
  static PredisBlock decode(Reader& r);

  /// Wire size — O(n_c), independent of transaction volume.
  std::size_t wire_size() const;

  /// Total transactions confirmed by this block, given the mempool that
  /// holds the referenced bundles.
  std::size_t tx_count(const Mempool& mempool) const;

  bool operator==(const PredisBlock&) const = default;
};

/// Outcome of verify_predis_block (§III-B receiver checks).
enum class BlockVerifyResult {
  kOk,
  kBadStructure,    ///< Sizes/heights inconsistent.
  kBannedProducer,  ///< References a chain we have banned (check 2).
  kConflict,        ///< Header at cut differs from our chain (check 2).
  kMissingBundles,  ///< We lack referenced bundles (check 3).
  kBadSignature,    ///< Leader signature invalid (check 3).
  kBadTxRoot,       ///< Recomputed Merkle root mismatch (check 4).
};

const char* to_string(BlockVerifyResult r);

struct MissingBundleRef {
  NodeId chain = kNoNode;
  BundleHeight height = 0;
  bool operator==(const MissingBundleRef&) const = default;
};

/// Build a Predis block from the local mempool using the cutting rule.
/// `prev_heights` is the cut of the parent block (what is already
/// confirmed). Chains owned by banned producers are never advanced.
PredisBlock build_predis_block(const Mempool& mempool, NodeId leader,
                               std::size_t f, BlockHeight height, View view,
                               const Hash32& parent_hash,
                               const std::vector<BundleHeight>& prev_heights,
                               const KeyPair& leader_key);

/// Receiver-side validation per §III-B. On kMissingBundles, `missing`
/// (if non-null) lists the bundles to fetch.
BlockVerifyResult verify_predis_block(
    const Mempool& mempool, const PredisBlock& block,
    const PublicKey& leader_key,
    std::vector<MissingBundleRef>* missing = nullptr);

/// Check 2's conflict part: for every chain the block advances, the
/// local bundle at the cut height exists and hashes to the block's
/// header hash. In-cut bundles are parent-hash-linked, so matching tips
/// pin the whole newly-confirmed prefix (Theorem 3.1).
bool cut_tips_match(const Mempool& mempool, const PredisBlock& block);

/// The transaction root a node records for a block it executed from its
/// own mempool: `block.tx_root` when cut_tips_match (the executed
/// bundles are then exactly the ones the block names, and their roots
/// were checked on insertion), else the root recomputed over `txs` —
/// the path a node takes after adopting a block it never validated
/// whose cut its mempool has since rewritten.
Hash32 executed_tx_root(const Mempool& mempool, const PredisBlock& block,
                        const std::vector<Transaction>& txs);

/// Collect the block's transactions in canonical order (chain-major,
/// then height, then intra-bundle order). Precondition: the mempool
/// holds every referenced bundle (verify returned kOk).
std::vector<Transaction> extract_transactions(const Mempool& mempool,
                                              const PredisBlock& block);

/// Merkle root over the ids of the transactions in canonical order.
Hash32 compute_block_tx_root(const Mempool& mempool,
                             const std::vector<BundleHeight>& prev_heights,
                             const std::vector<BundleHeight>& cut_heights);

}  // namespace predis
