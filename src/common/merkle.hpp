// Merkle tree over leaf hashes, with inclusion proofs.
//
// Predis uses Merkle roots in two places (Fig. 1 of the paper):
//  * the bundle header carries a Merkle root over the bundle's
//    transactions and a "Merkle stripe hash" over its erasure-coded
//    stripes, so receivers can verify individual stripes;
//  * the Predis block carries a Merkle root over all transactions the
//    candidate block maps to.
//
// Odd layers duplicate the last node (Bitcoin-style) so any leaf count
// >= 1 is supported.
//
// Storage is one flat node arena (all levels concatenated, each level
// padded to an even width so the duplicate node is materialized) and
// every level is hashed through the batched pair kernel
// (hash_pairs()), which rides the multi-buffer SHA-256 kernel when
// one is active — one allocation and one kernel dispatch per level
// instead of a vector and a hash_pair call per node.
#pragma once

#include <cstddef>
#include <vector>

#include "common/sha256.hpp"

namespace predis {

/// Inclusion proof: sibling hashes from leaf to root plus the leaf index
/// (the index encodes left/right orientation at every level).
struct MerkleProof {
  std::size_t leaf_index = 0;
  std::vector<Hash32> siblings;
};

/// Immutable Merkle tree built from a list of leaf hashes.
class MerkleTree {
 public:
  /// Builds the full tree; leaves must be non-empty.
  explicit MerkleTree(std::vector<Hash32> leaves);

  const Hash32& root() const { return nodes_.back(); }
  std::size_t leaf_count() const { return leaf_count_; }

  /// Proof for the leaf at `index` (must be < leaf_count()).
  MerkleProof prove(std::size_t index) const;

  /// Same, writing into a caller-owned proof whose siblings capacity is
  /// reused — the stripe codec's per-stripe-allocation-free path.
  void prove_into(std::size_t index, MerkleProof& out) const;

  /// Convenience: root over leaves without keeping the tree. Runs the
  /// batched levels in place inside a reused thread-local scratch
  /// buffer, so the steady state allocates nothing.
  static Hash32 root_of(const std::vector<Hash32>& leaves);

  /// Root over the `count` >= 1 leaves at `nodes`, computed by halving
  /// the levels in place: `nodes` must have room for count + 1 hashes
  /// when count is odd (the duplicated last node), and its contents
  /// are overwritten. For callers that write leaves straight into
  /// their own reused buffer.
  static Hash32 root_in_place(Hash32* nodes, std::size_t count);

  /// Verify that `leaf` is included under `root` via `proof`.
  static bool verify(const Hash32& root, const Hash32& leaf,
                     const MerkleProof& proof);

 private:
  // All levels back to back, leaves first, root last. Odd levels are
  // stored with their duplicated last node so sibling lookup never
  // branches and the pair batch always covers the full level.
  std::vector<Hash32> nodes_;
  // offset_[l] = index of level l's first node in nodes_; offset_
  // has one entry per level.
  std::vector<std::size_t> offset_;
  std::size_t leaf_count_ = 0;
};

}  // namespace predis
