// Predis block construction/verification (§III-B) and the paper's
// Theorems 3.1-3.3 (consistency of bundles and Predis blocks), plus the
// headline O(n_c) block-size property.
#include "bundle/predis_block.hpp"

#include <gtest/gtest.h>

namespace predis {
namespace {

constexpr std::size_t kN = 4;
constexpr std::size_t kF = 1;

std::vector<PublicKey> producer_keys() {
  std::vector<PublicKey> keys;
  for (std::size_t i = 0; i < kN; ++i) {
    keys.push_back(KeyPair::from_seed(i).public_key());
  }
  return keys;
}

std::vector<Transaction> make_txs(std::size_t n, std::uint64_t tag) {
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < n; ++i) {
    Transaction tx;
    tx.client = 42;
    tx.seq = tag * 10'000 + i;
    txs.push_back(tx);
  }
  return txs;
}

/// Mempool where every chain has `height` bundles of `txs_per_bundle`
/// transactions and fully up-to-date tip lists. Chain `rewritten_chain`
/// (if < kN) carries other transactions: the same producer's history as
/// a node holds it after that chain was rewritten.
Mempool full_mempool(BundleHeight height, std::size_t txs_per_bundle,
                     std::size_t rewritten_chain = kN) {
  Mempool mp(kN, producer_keys());
  for (std::size_t producer = 0; producer < kN; ++producer) {
    const std::uint64_t salt = producer == rewritten_chain ? 50 : 0;
    Hash32 parent = kZeroHash;
    for (BundleHeight h = 1; h <= height; ++h) {
      std::vector<BundleHeight> tips(kN, height);
      Bundle b = make_bundle(
          static_cast<NodeId>(producer), h, parent, std::move(tips),
          make_txs(txs_per_bundle, producer * 100 + h + salt),
          KeyPair::from_seed(producer));
      parent = b.header.hash();
      if (mp.add(b) != AddBundleResult::kAdded) {
        throw std::logic_error("fixture bundle rejected");
      }
    }
  }
  return mp;
}

const KeyPair& leader_key() {
  static const KeyPair key = KeyPair::from_seed(0);
  return key;
}

TEST(PredisBlock, BuildAndVerifyOk) {
  const Mempool mp = full_mempool(3, 5);
  const PredisBlock block = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());

  EXPECT_EQ(block.cut_heights, std::vector<BundleHeight>(kN, 3));
  EXPECT_EQ(block.header_hashes.size(), kN);
  EXPECT_EQ(verify_predis_block(mp, block, leader_key().public_key()),
            BlockVerifyResult::kOk);
  EXPECT_EQ(block.tx_count(mp), kN * 3 * 5);
}

TEST(PredisBlock, ExtractTransactionsCanonicalOrder) {
  const Mempool mp = full_mempool(2, 3);
  const PredisBlock block = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  const auto txs = extract_transactions(mp, block);
  ASSERT_EQ(txs.size(), kN * 2 * 3);
  // Chain-major, height order: first tx comes from chain 0 height 1.
  EXPECT_EQ(txs[0], mp.chain(0).get(1)->txs[0]);
  EXPECT_EQ(txs.back(), mp.chain(kN - 1).get(2)->txs.back());
}

TEST(PredisBlock, ExecutedTxRootIsTheBlockRootWhenCutTipsMatch) {
  const Mempool mp = full_mempool(3, 4);
  const PredisBlock block = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  const auto txs = extract_transactions(mp, block);
  EXPECT_TRUE(cut_tips_match(mp, block));
  EXPECT_EQ(executed_tx_root(mp, block, txs), block.tx_root);
  EXPECT_EQ(block.tx_root, tx_merkle_root(txs));
}

TEST(PredisBlock, ExecutedTxRootIsRecomputedWhenACutTipDiffers) {
  // The block names the leader's chain 1; the executing node holds a
  // rewritten one, so the block's root does not describe what it ran.
  const PredisBlock block = build_predis_block(
      full_mempool(3, 4), 0, kF, 1, 0, kZeroHash,
      std::vector<BundleHeight>(kN, 0), leader_key());
  const Mempool rewritten = full_mempool(3, 4, /*rewritten_chain=*/1);
  EXPECT_FALSE(cut_tips_match(rewritten, block));
  EXPECT_EQ(verify_predis_block(rewritten, block, leader_key().public_key()),
            BlockVerifyResult::kConflict);
  const auto txs = extract_transactions(rewritten, block);
  const Hash32 root = executed_tx_root(rewritten, block, txs);
  EXPECT_EQ(root, tx_merkle_root(txs));
  EXPECT_NE(root, block.tx_root);
}

TEST(PredisBlock, IncrementalBlocksChain) {
  const Mempool mp = full_mempool(4, 2);
  const PredisBlock b1 = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  // Second block on top of the first confirms nothing new (no new
  // bundles arrived), so its header list is empty.
  const PredisBlock b2 = build_predis_block(mp, 0, kF, 2, 0, b1.hash(),
                                            b1.cut_heights, leader_key());
  EXPECT_TRUE(b2.header_hashes.empty());
  EXPECT_EQ(b2.prev_heights, b1.cut_heights);
}

TEST(PredisBlock, VerifyDetectsMissingBundles) {
  const Mempool full = full_mempool(3, 2);
  const PredisBlock block = build_predis_block(
      full, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());

  // A receiver that lacks chain 2 entirely.
  Mempool sparse(kN, producer_keys());
  for (std::size_t producer = 0; producer < kN; ++producer) {
    if (producer == 2) continue;
    for (BundleHeight h = 1; h <= 3; ++h) {
      sparse.add(*full.chain(producer).get(h));
    }
  }
  std::vector<MissingBundleRef> missing;
  EXPECT_EQ(verify_predis_block(sparse, block, leader_key().public_key(),
                                &missing),
            BlockVerifyResult::kMissingBundles);
  ASSERT_EQ(missing.size(), 3u);
  EXPECT_EQ(missing[0], (MissingBundleRef{2, 1}));
  EXPECT_EQ(missing[2], (MissingBundleRef{2, 3}));
}

TEST(PredisBlock, VerifyRejectsBannedProducer) {
  Mempool mp = full_mempool(2, 2);
  const PredisBlock block = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  mp.ban(1);
  EXPECT_EQ(verify_predis_block(mp, block, leader_key().public_key()),
            BlockVerifyResult::kBannedProducer);
}

TEST(PredisBlock, VerifyRejectsForgedSignature) {
  const Mempool mp = full_mempool(2, 2);
  PredisBlock block = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  block.signature[5] ^= 0x01;
  EXPECT_EQ(verify_predis_block(mp, block, leader_key().public_key()),
            BlockVerifyResult::kBadSignature);
}

TEST(PredisBlock, VerifyRejectsStructuralGarbage) {
  const Mempool mp = full_mempool(2, 2);
  PredisBlock block = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());

  PredisBlock bad = block;
  bad.cut_heights[0] = 0;  // cut below prev for a chain with a header
  EXPECT_EQ(verify_predis_block(mp, bad, leader_key().public_key()),
            BlockVerifyResult::kBadStructure);

  bad = block;
  bad.header_hashes.pop_back();
  EXPECT_EQ(verify_predis_block(mp, bad, leader_key().public_key()),
            BlockVerifyResult::kBadStructure);

  bad = block;
  bad.prev_heights.pop_back();
  EXPECT_EQ(verify_predis_block(mp, bad, leader_key().public_key()),
            BlockVerifyResult::kBadStructure);
}

TEST(PredisBlock, VerifyDetectsEquivocatingHeader) {
  const Mempool mp = full_mempool(2, 2);
  PredisBlock block = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  // Replace chain 1's cut header hash with a fabricated-but-signed
  // variant's and re-sign the block: the receiver's local bundle differs.
  Bundle forged = make_bundle(1, 2, mp.chain(1).get(1)->header.hash(),
                              std::vector<BundleHeight>(kN, 9),
                              make_txs(1, 999), KeyPair::from_seed(1));
  block.header_hashes[1] = forged.header.hash();
  block.signature = leader_key().sign(BytesView{block.signing_bytes()});
  EXPECT_EQ(verify_predis_block(mp, block, leader_key().public_key()),
            BlockVerifyResult::kConflict);
}

TEST(PredisBlock, VerifyDetectsWrongTxRoot) {
  const Mempool mp = full_mempool(2, 2);
  PredisBlock block = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  block.tx_root = Sha256::hash(as_bytes(std::string("wrong")));
  block.signature = leader_key().sign(BytesView{block.signing_bytes()});
  EXPECT_EQ(verify_predis_block(mp, block, leader_key().public_key()),
            BlockVerifyResult::kBadTxRoot);
}

TEST(PredisBlock, EncodeDecodeRoundTrip) {
  const Mempool mp = full_mempool(2, 3);
  const PredisBlock block = build_predis_block(
      mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  Writer w;
  block.encode(w);
  Reader r(w.data());
  EXPECT_EQ(PredisBlock::decode(r), block);
}

// The headline property (§III-F "Block Size"): a Predis block's wire
// size does not grow with the number of transactions it confirms.
TEST(PredisBlock, SizeIndependentOfTransactionVolume) {
  const Mempool small = full_mempool(1, 1);    // 4 txs total
  const Mempool large = full_mempool(10, 50);  // 2000 txs total

  const PredisBlock b_small = build_predis_block(
      small, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  const PredisBlock b_large = build_predis_block(
      large, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());

  EXPECT_EQ(b_small.wire_size(), b_large.wire_size());
  EXPECT_EQ(b_small.tx_count(small), 4u);
  EXPECT_EQ(b_large.tx_count(large), 2000u);
  // And it is tiny — the paper reports <= 2.5 KB even at n_c = 80.
  EXPECT_LT(b_large.wire_size(), 2048u);
}

// Theorem 3.1 / 3.2: equal headers at height h imply equal bundles and
// equal prefixes (the chained hash pins the whole history).
TEST(PredisBlock, TheoremBundleConsistency) {
  const Mempool a = full_mempool(3, 2);
  const Mempool b = full_mempool(3, 2);  // identical construction
  for (std::size_t chain = 0; chain < kN; ++chain) {
    ASSERT_EQ(a.chain(chain).get(3)->header.hash(),
              b.chain(chain).get(3)->header.hash());
    // Equal header at h=3 implies equal bundles at all h' <= 3.
    for (BundleHeight h = 1; h <= 3; ++h) {
      EXPECT_EQ(*a.chain(chain).get(h), *b.chain(chain).get(h));
    }
  }
}

// Theorem 3.3: two honest nodes that both accept a Predis block
// reconstruct identical candidate blocks.
TEST(PredisBlock, TheoremPredisConsistency) {
  const Mempool leader_mp = full_mempool(3, 4);
  const Mempool replica_mp = full_mempool(3, 4);

  const PredisBlock block = build_predis_block(
      leader_mp, 0, kF, 1, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      leader_key());
  ASSERT_EQ(verify_predis_block(replica_mp, block,
                                leader_key().public_key()),
            BlockVerifyResult::kOk);
  EXPECT_EQ(extract_transactions(leader_mp, block),
            extract_transactions(replica_mp, block));
}

}  // namespace
}  // namespace predis
