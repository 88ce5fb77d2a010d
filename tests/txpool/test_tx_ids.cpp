// Batched transaction-leaf hashing: tx_ids() must equal hash_of(tx)
// (the Writer encoding through the one-shot SHA-256) for every batch
// size across the stack-chunk boundary and every kernel remainder, and
// tx_merkle_root() / compute_block_tx_root() must equal MerkleTree
// over id() leaves. Built into crypto_kernel_tests, so every check runs
// once per forced SHA-256 kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bundle/predis_block.hpp"
#include "common/rng.hpp"

namespace predis {
namespace {

/// Random transactions; every fourth one is default-constructed and
/// every fourth one carries extreme field values.
std::vector<Transaction> random_txs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Transaction> txs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 1) continue;
    Transaction& tx = txs[i];
    tx.client = static_cast<NodeId>(rng.next());
    tx.seq = rng.next();
    tx.size = static_cast<std::uint32_t>(rng.next());
    tx.submitted_at = static_cast<SimTime>(rng.next());
    tx.payload_seed = rng.next();
    tx.target_consensus = static_cast<NodeId>(rng.next());
    if (i % 4 == 3) {
      tx.client = kNoNode;
      tx.seq = std::numeric_limits<std::uint64_t>::max();
      tx.size = std::numeric_limits<std::uint32_t>::max();
      tx.submitted_at = i % 8 == 7
                            ? std::numeric_limits<SimTime>::min()
                            : -static_cast<SimTime>(rng.next_below(1000)) - 1;
      tx.payload_seed = std::numeric_limits<std::uint64_t>::max();
      tx.target_consensus = kNoNode;
    }
  }
  return txs;
}

/// The reference root: MerkleTree over id() leaves, kZeroHash if empty.
Hash32 reference_root(const std::vector<Transaction>& txs) {
  if (txs.empty()) return kZeroHash;
  std::vector<Hash32> leaves;
  for (const auto& tx : txs) leaves.push_back(tx.id());
  return MerkleTree::root_of(leaves);
}

TEST(TxIds, MatchHashOfForEveryBatchSizeUpTo70) {
  // 0..70 crosses the 32-block stack chunk twice and leaves every
  // remainder of the two-stream and eight-lane kernels.
  for (std::size_t n = 0; n <= 70; ++n) {
    const auto txs = random_txs(n, 0x7100 + n);
    std::vector<Hash32> got(n + 1, kZeroHash);
    tx_ids(txs.data(), n, got.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], hash_of(txs[i])) << "tx " << i << " of " << n;
      ASSERT_EQ(txs[i].id(), got[i]) << "tx " << i << " of " << n;
    }
    EXPECT_EQ(got[n], kZeroHash) << "wrote past the batch, n=" << n;
  }
}

TEST(TxMerkleRoot, MatchesRootOfIdLeaves) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, std::size_t{50}, std::size_t{435}}) {
    const auto txs = random_txs(n, 0x4000 + n);
    EXPECT_EQ(tx_merkle_root(txs), reference_root(txs)) << "n=" << n;
    EXPECT_EQ(Bundle::tx_root_of(txs), reference_root(txs)) << "n=" << n;
  }
}

TEST(TxMerkleRoot, ConcatenatesListsInOrder) {
  const auto a = random_txs(7, 1);
  const auto b = random_txs(0, 2);
  const auto c = random_txs(40, 3);
  std::vector<Transaction> all = a;
  all.insert(all.end(), c.begin(), c.end());
  const Hash32 got = tx_merkle_root(all.size(), [&](auto&& add) {
    add(a);
    add(b);
    add(c);
  });
  EXPECT_EQ(got, reference_root(all));
}

TEST(TxMerkleRoot, RejectsMiscountedLists) {
  const auto txs = random_txs(5, 9);
  EXPECT_THROW(tx_merkle_root(4, [&](auto&& add) { add(txs); }),
               std::logic_error);
  EXPECT_THROW(tx_merkle_root(6, [&](auto&& add) { add(txs); }),
               std::logic_error);
}

TEST(TxMerkleRoot, BlockRootMatchesConcatenatedBundles) {
  // Four chains of uneven bundles (one empty); the block confirms
  // heights 2..3 of chain 0, 1..2 of chain 2 and 1 of chain 3.
  constexpr std::size_t kChains = 4;
  std::vector<PublicKey> keys;
  for (std::size_t i = 0; i < kChains; ++i) {
    keys.push_back(KeyPair::from_seed(i).public_key());
  }
  Mempool mempool(kChains, keys);
  std::vector<std::vector<std::vector<Transaction>>> chain_txs(kChains);
  for (std::size_t p = 0; p < kChains; ++p) {
    Hash32 parent = kZeroHash;
    for (BundleHeight h = 1; h <= 3; ++h) {
      const std::size_t n = (p == 1 && h == 2) ? 0 : 13 * p + 9 * h;
      auto txs = random_txs(n, p * 100 + h);
      chain_txs[p].push_back(txs);
      const Bundle b = make_bundle(static_cast<NodeId>(p), h, parent,
                                   std::vector<BundleHeight>(kChains, 0),
                                   std::move(txs), KeyPair::from_seed(p));
      parent = b.header.hash();
      ASSERT_EQ(mempool.add(b), AddBundleResult::kAdded);
    }
  }
  const std::vector<BundleHeight> prev = {1, 0, 0, 0};
  const std::vector<BundleHeight> cut = {3, 0, 2, 1};
  std::vector<Transaction> all;
  for (std::size_t p = 0; p < kChains; ++p) {
    for (BundleHeight h = prev[p] + 1; h <= cut[p]; ++h) {
      const auto& txs = chain_txs[p][h - 1];
      all.insert(all.end(), txs.begin(), txs.end());
    }
  }
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(compute_block_tx_root(mempool, prev, cut), reference_root(all));
  EXPECT_EQ(compute_block_tx_root(mempool, cut, cut), kZeroHash);
  EXPECT_THROW(compute_block_tx_root(mempool, prev, {4, 0, 2, 1}),
               std::logic_error);
}

TEST(TxMerkleRoot, PerThreadBuffersAgree) {
  const auto txs = random_txs(300, 77);
  const Hash32 want = reference_root(txs);
  std::vector<Hash32> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < 20; ++r) got[t] = tx_merkle_root(txs);
    });
  }
  for (auto& th : threads) th.join();
  for (const Hash32& h : got) EXPECT_EQ(h, want);
}

}  // namespace
}  // namespace predis
