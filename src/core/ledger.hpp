// Ledger: the hash-chained block history every full node maintains
// (§II: "a full node ... maintains the history of the ledger").
//
// Stores one record per committed block — height, parent link, payload
// digest, transaction count and the transaction ids' Merkle root — and
// verifies the chain linkage on every append. The root is the one the
// committing node already holds (computed or verified on the way to
// the commit); the ledger never re-hashes transactions. Cheap enough
// to run on every simulated node; the cross-node equality check (same
// digest at every height) is the strongest end-to-end safety assertion
// the tests have.
#pragma once

#include <optional>
#include <vector>

#include "common/codec.hpp"
#include "common/sha256.hpp"
#include "common/types.hpp"

namespace predis::core {

struct LedgerEntry {
  BlockHeight height = 0;       ///< 1-based position in this ledger.
  Hash32 parent = kZeroHash;    ///< record_hash of the previous entry.
  Hash32 payload_digest = kZeroHash;  ///< Consensus payload digest.
  Hash32 tx_root = kZeroHash;   ///< Merkle root over transaction ids.
  std::size_t tx_count = 0;
  SimTime committed_at = 0;

  /// Hash binding this entry and, transitively, the whole prefix.
  Hash32 record_hash() const {
    return with_encoding(
        [this](Writer& w) {
          w.u64(height);
          w.hash(parent);
          w.hash(payload_digest);
          w.hash(tx_root);
          w.u64(tx_count);
        },
        &Sha256::hash);
  }

  void encode(Writer& w) const {
    w.u64(height);
    w.hash(parent);
    w.hash(payload_digest);
    w.hash(tx_root);
    w.u64(tx_count);
    w.i64(committed_at);
  }
  static LedgerEntry decode(Reader& r) {
    LedgerEntry e;
    e.height = r.u64();
    e.parent = r.hash();
    e.payload_digest = r.hash();
    e.tx_root = r.hash();
    e.tx_count = r.u64();
    e.committed_at = r.i64();
    return e;
  }

  bool operator==(const LedgerEntry&) const = default;
};

class Ledger {
 public:
  /// Append the next block. Throws std::logic_error if the entry does
  /// not chain onto the current head (wrong height or parent).
  void append(LedgerEntry entry);

  /// Convenience: build + append an entry from a commit event.
  /// `tx_root` is the Merkle root over the executed transactions' ids.
  const LedgerEntry& append_block(const Hash32& payload_digest,
                                  const Hash32& tx_root,
                                  std::size_t tx_count,
                                  SimTime committed_at);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entry at 1-based height; nullptr when out of range.
  const LedgerEntry* at(BlockHeight height) const;
  const LedgerEntry* head() const {
    return entries_.empty() ? nullptr : &entries_.back();
  }

  /// Hash of the newest record (the "state digest" for checkpoints).
  Hash32 head_hash() const {
    return entries_.empty() ? kZeroHash : entries_.back().record_hash();
  }

  std::uint64_t total_txs() const { return total_txs_; }

  /// Re-verify every parent link and height; true iff intact.
  bool verify_chain() const;

  /// True if `other` decided the same block at every height both hold
  /// (prefix consistency — the ledgers may have different lengths).
  bool prefix_consistent_with(const Ledger& other) const;

  /// Serialize entries [from, to] for state transfer.
  Bytes export_range(BlockHeight from, BlockHeight to) const;

  /// Append a serialized range produced by export_range; entries that
  /// precede our head are checked for equality, later ones appended.
  /// Returns the number of new entries adopted. Throws on divergence.
  std::size_t import_range(BytesView bytes);

 private:
  std::vector<LedgerEntry> entries_;
  std::uint64_t total_txs_ = 0;
};

}  // namespace predis::core
