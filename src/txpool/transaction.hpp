// Transactions and the client request/reply wire messages.
//
// A simulated transaction does not materialize its payload: it carries
// the payload *size* (512 bytes in all paper experiments) plus a seed
// so its hash is unique. Wire sizes, Merkle leaves and bandwidth costs
// all use the declared size, so throughput numbers are unaffected by
// the optimization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/codec.hpp"
#include "common/merkle.hpp"
#include "common/sha256.hpp"
#include "common/types.hpp"
#include "runtime/message.hpp"

namespace predis {

// Fields are laid out for size (40 bytes, no padding between the two
// 32-bit and the three 64-bit fields), not in wire order: encode(),
// decode() and tx_ids name each field, so the layout never reaches the
// wire or an id.
struct Transaction {
  NodeId client = kNoNode;  ///< Submitting client (reply address).
  std::uint32_t size = 512; ///< Simulated payload size in bytes.
  TxSeq seq = 0;            ///< Client-local sequence number.
  SimTime submitted_at = 0; ///< Client submission time (latency anchor).
  std::uint64_t payload_seed = 0;  ///< Stands in for payload content.
  /// §IV-D second dissemination strategy: the client writes the index
  /// of the target consensus node on the transaction and full nodes
  /// forward it there. kNoNode = direct submission (strategy one).
  NodeId target_consensus = kNoNode;

  /// The wire format, and the byte string id() hashes (tx_ids writes
  /// the same 36 bytes straight into a padded SHA-256 block).
  void encode(Writer& w) const {
    w.u32(client);
    w.u64(seq);
    w.u32(size);
    w.i64(submitted_at);
    w.u64(payload_seed);
    w.u32(target_consensus);
  }

  static Transaction decode(Reader& r) {
    Transaction tx;
    tx.client = r.u32();
    tx.seq = r.u64();
    tx.size = r.u32();
    tx.submitted_at = r.i64();
    tx.payload_seed = r.u64();
    tx.target_consensus = r.u32();
    return tx;
  }

  /// SHA-256 of encode(): the n = 1 case of tx_ids().
  Hash32 id() const;

  bool operator==(const Transaction&) const = default;
};
static_assert(sizeof(Transaction) == 40,
              "every mempool, bundle and block holds Transactions by value");

/// Ids of `n` transactions: out[i] = txs[i].id(). Each encode() is
/// written little-endian straight into a pre-padded one-block SHA-256
/// message on the stack, and every chunk of blocks is hashed in one
/// hash_padded_blocks() call — so a bundle's or block's leaves cost
/// one kernel call per chunk instead of one per transaction.
void tx_ids(const Transaction* txs, std::size_t n, Hash32* out);

namespace detail {
/// This thread's reused leaf buffer, sized for `count` leaves plus the
/// odd-level duplicate node.
Hash32* tx_leaf_buffer(std::size_t count);
}  // namespace detail

/// Merkle root (the MerkleTree rule) over the ids of the transactions
/// of several lists, concatenated in order, or kZeroHash when there
/// are none: `for_each_list(add)` calls add(const
/// std::vector<Transaction>&) once per list, and the lists hold `count`
/// transactions in total. Leaves go through one tx_ids() call per
/// list into a reused per-thread buffer and the levels are halved in
/// place, so a warm pass makes no heap allocation.
template <typename ForEachList>
Hash32 tx_merkle_root(std::size_t count, ForEachList&& for_each_list) {
  if (count == 0) return kZeroHash;
  Hash32* leaves = detail::tx_leaf_buffer(count);
  std::size_t filled = 0;
  for_each_list([&](const std::vector<Transaction>& txs) {
    if (txs.size() > count - filled) {
      throw std::logic_error("tx_merkle_root: more transactions than counted");
    }
    tx_ids(txs.data(), txs.size(), leaves + filled);
    filled += txs.size();
  });
  if (filled != count) {
    throw std::logic_error("tx_merkle_root: fewer transactions than counted");
  }
  return MerkleTree::root_in_place(leaves, count);
}

/// Merkle root over the ids of one transaction list (kZeroHash when
/// empty): the tx root of a bundle, a block, a ledger record.
inline Hash32 tx_merkle_root(const std::vector<Transaction>& txs) {
  return tx_merkle_root(txs.size(), [&txs](auto&& add) { add(txs); });
}

/// Sum of the simulated payload sizes of a batch of transactions.
inline std::size_t payload_bytes(const std::vector<Transaction>& txs) {
  std::size_t total = 0;
  for (const auto& tx : txs) total += tx.size;
  return total;
}

/// Client -> consensus node: a batch of transactions.
struct ClientRequestMsg final : runtime::Message {
  std::vector<Transaction> txs;

  std::size_t wire_size() const override {
    return payload_bytes(txs) + txs.size() * 24;  // per-tx envelope
  }
  const char* name() const override { return "ClientRequest"; }
};

/// Consensus node -> client: acknowledgement that the listed sequence
/// numbers committed. Tiny.
struct ClientReplyMsg final : runtime::Message {
  std::vector<TxSeq> seqs;
  SimTime committed_at = 0;

  std::size_t wire_size() const override { return 16 + seqs.size() * 8; }
  const char* name() const override { return "ClientReply"; }
};

}  // namespace predis
