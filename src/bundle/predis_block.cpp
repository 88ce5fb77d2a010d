#include "bundle/predis_block.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace predis {

const char* to_string(BlockVerifyResult r) {
  switch (r) {
    case BlockVerifyResult::kOk:
      return "ok";
    case BlockVerifyResult::kBadStructure:
      return "bad-structure";
    case BlockVerifyResult::kBannedProducer:
      return "banned-producer";
    case BlockVerifyResult::kConflict:
      return "conflict";
    case BlockVerifyResult::kMissingBundles:
      return "missing-bundles";
    case BlockVerifyResult::kBadSignature:
      return "bad-signature";
    case BlockVerifyResult::kBadTxRoot:
      return "bad-tx-root";
  }
  return "?";
}

void PredisBlock::encode_signed(Writer& w) const {
  w.u64(height);
  w.hash(parent_hash);
  w.u32(leader);
  w.u64(view);
  w.vec_u64(prev_heights);
  w.vec_u64(cut_heights);
  w.vec_hash(header_hashes);
  w.hash(tx_root);
}

Bytes PredisBlock::signing_bytes() const {
  Writer w;
  encode_signed(w);
  return std::move(w).take();
}

Hash32 PredisBlock::hash() const {
  return with_encoding([this](Writer& w) { encode_signed(w); },
                       &Sha256::hash);
}

void PredisBlock::encode(Writer& w) const {
  encode_signed(w);
  w.raw(BytesView{signature.data(), signature.size()});
}

PredisBlock PredisBlock::decode(Reader& r) {
  PredisBlock b;
  b.height = r.u64();
  b.parent_hash = r.hash();
  b.leader = r.u32();
  b.view = r.u64();
  b.prev_heights = r.vec_u64();
  b.cut_heights = r.vec_u64();
  b.header_hashes = r.vec_hash();
  b.tx_root = r.hash();
  for (auto& byte : b.signature) byte = r.u8();
  return b;
}

std::size_t PredisBlock::wire_size() const {
  std::size_t size = 8 + 32 + 4 + 8 + 32 + 64;
  size += 4 + prev_heights.size() * 8;
  size += 4 + cut_heights.size() * 8;
  size += 4 + header_hashes.size() * 32;
  return size;
}

std::size_t PredisBlock::tx_count(const Mempool& mempool) const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < cut_heights.size(); ++i) {
    for (BundleHeight h = prev_heights[i] + 1; h <= cut_heights[i]; ++h) {
      const Bundle* b = mempool.chain(i).get(h);
      if (b != nullptr) count += b->txs.size();
    }
  }
  return count;
}

PredisBlock build_predis_block(const Mempool& mempool, NodeId leader,
                               std::size_t f, BlockHeight height, View view,
                               const Hash32& parent_hash,
                               const std::vector<BundleHeight>& prev_heights,
                               const KeyPair& leader_key) {
  const std::size_t n = mempool.chain_count();
  if (prev_heights.size() != n) {
    throw std::invalid_argument("build_predis_block: bad prev_heights");
  }

  PredisBlock block;
  block.height = height;
  block.parent_hash = parent_hash;
  block.leader = leader;
  block.view = view;
  block.prev_heights = prev_heights;
  block.cut_heights = compute_cut(mempool, leader, f);

  // The cut can never regress below what the chain already confirmed.
  for (std::size_t i = 0; i < n; ++i) {
    block.cut_heights[i] = std::max(block.cut_heights[i], prev_heights[i]);
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] > block.prev_heights[i]) {
      const Bundle* tip = mempool.chain(i).get(block.cut_heights[i]);
      if (tip == nullptr) {
        throw std::logic_error("build_predis_block: cut beyond local chain");
      }
      block.header_hashes.push_back(tip->header.hash());
    }
  }

  block.tx_root =
      compute_block_tx_root(mempool, block.prev_heights, block.cut_heights);
  block.signature = with_encoding(
      [&block](Writer& w) { block.encode_signed(w); },
      [&leader_key](BytesView m) { return leader_key.sign(m); });
  return block;
}

BlockVerifyResult verify_predis_block(const Mempool& mempool,
                                      const PredisBlock& block,
                                      const PublicKey& leader_key,
                                      std::vector<MissingBundleRef>* missing) {
  const std::size_t n = mempool.chain_count();
  if (block.prev_heights.size() != n || block.cut_heights.size() != n) {
    return BlockVerifyResult::kBadStructure;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] < block.prev_heights[i]) {
      return BlockVerifyResult::kBadStructure;
    }
  }

  // One header hash per advanced chain, in chain order.
  std::size_t advanced = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] != block.prev_heights[i]) ++advanced;
  }
  if (advanced != block.header_hashes.size()) {
    return BlockVerifyResult::kBadStructure;
  }

  const bool signed_ok = with_encoding(
      [&block](Writer& w) { block.encode_signed(w); },
      [&](BytesView m) { return verify(leader_key, m, block.signature); });
  if (!signed_ok) {
    return BlockVerifyResult::kBadSignature;
  }

  // Check 2: no banned producers among the advanced chains.
  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] != block.prev_heights[i] &&
        mempool.is_banned(static_cast<NodeId>(i))) {
      return BlockVerifyResult::kBannedProducer;
    }
  }

  // Check 3: we must hold every referenced bundle; collect gaps.
  bool any_missing = false;
  for (std::size_t i = 0; i < n; ++i) {
    for (BundleHeight h = block.prev_heights[i] + 1;
         h <= block.cut_heights[i]; ++h) {
      if (!mempool.chain(i).has(h)) {
        any_missing = true;
        if (missing != nullptr) {
          missing->push_back({static_cast<NodeId>(i), h});
        }
      }
    }
  }
  if (any_missing) return BlockVerifyResult::kMissingBundles;

  // Check 2 (conflict part): our bundle at the cut must hash to the
  // value in the block — otherwise the leader or the producer
  // equivocated (Theorem 3.1 pins the whole prefix).
  if (!cut_tips_match(mempool, block)) return BlockVerifyResult::kConflict;

  // Check 4: recompute the Merkle root.
  if (compute_block_tx_root(mempool, block.prev_heights,
                            block.cut_heights) != block.tx_root) {
    return BlockVerifyResult::kBadTxRoot;
  }
  return BlockVerifyResult::kOk;
}

bool cut_tips_match(const Mempool& mempool, const PredisBlock& block) {
  const std::size_t n = std::min({block.cut_heights.size(),
                                  block.prev_heights.size(),
                                  mempool.chain_count()});
  std::size_t header_index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (block.cut_heights[i] == block.prev_heights[i]) continue;
    if (header_index == block.header_hashes.size()) return false;
    const Hash32& expected = block.header_hashes[header_index++];
    const Bundle* local = mempool.chain(i).get(block.cut_heights[i]);
    if (local == nullptr || local->header.hash() != expected) return false;
  }
  return header_index == block.header_hashes.size();
}

Hash32 executed_tx_root(const Mempool& mempool, const PredisBlock& block,
                        const std::vector<Transaction>& txs) {
  return cut_tips_match(mempool, block) ? block.tx_root : tx_merkle_root(txs);
}

namespace {

// Calls fn(const Bundle&) for every bundle a block's cut confirms,
// chain by chain in height order; throws, naming `caller`, when the
// mempool misses one.
template <typename Fn>
void for_each_cut_bundle(const Mempool& mempool,
                         const std::vector<BundleHeight>& prev_heights,
                         const std::vector<BundleHeight>& cut_heights,
                         const char* caller, Fn&& fn) {
  for (std::size_t i = 0; i < cut_heights.size(); ++i) {
    for (BundleHeight h = prev_heights[i] + 1; h <= cut_heights[i]; ++h) {
      const Bundle* b = mempool.chain(i).get(h);
      if (b == nullptr) {
        throw std::logic_error(std::string(caller) + ": missing bundle");
      }
      fn(*b);
    }
  }
}

}  // namespace

std::vector<Transaction> extract_transactions(const Mempool& mempool,
                                              const PredisBlock& block) {
  std::vector<Transaction> txs;
  for_each_cut_bundle(mempool, block.prev_heights, block.cut_heights,
                      "extract_transactions", [&txs](const Bundle& b) {
                        txs.insert(txs.end(), b.txs.begin(), b.txs.end());
                      });
  return txs;
}

Hash32 compute_block_tx_root(const Mempool& mempool,
                             const std::vector<BundleHeight>& prev_heights,
                             const std::vector<BundleHeight>& cut_heights) {
  // Two walks over the cut: count the leaves, then hash each bundle's
  // transactions as one batch into the shared leaf array.
  const auto for_each_bundle = [&](auto&& fn) {
    for_each_cut_bundle(mempool, prev_heights, cut_heights,
                        "compute_block_tx_root", fn);
  };
  std::size_t leaf_count = 0;
  for_each_bundle(
      [&leaf_count](const Bundle& b) { leaf_count += b.txs.size(); });
  return tx_merkle_root(leaf_count, [&](auto&& add) {
    for_each_bundle([&add](const Bundle& b) { add(b.txs); });
  });
}

}  // namespace predis
