#include "bundle/mempool.hpp"

#include <gtest/gtest.h>

namespace predis {
namespace {

constexpr std::size_t kN = 4;

struct MempoolFixture : ::testing::Test {
  MempoolFixture() : mempool(kN, make_keys()) {}

  static std::vector<PublicKey> make_keys() {
    std::vector<PublicKey> keys;
    for (std::size_t i = 0; i < kN; ++i) {
      keys.push_back(KeyPair::from_seed(i).public_key());
    }
    return keys;
  }

  std::vector<Transaction> txs(std::size_t n, std::uint64_t tag) {
    std::vector<Transaction> out;
    for (std::size_t i = 0; i < n; ++i) {
      Transaction tx;
      tx.client = 50;
      tx.seq = tag * 1000 + i;
      out.push_back(tx);
    }
    return out;
  }

  /// Append the next bundle to chain `producer` with given tips.
  Bundle next_bundle(NodeId producer, std::vector<BundleHeight> tips,
                     std::size_t tx_count = 2) {
    const BundleHeight h = heights[producer] + 1;
    Bundle b = make_bundle(producer, h, parents[producer], std::move(tips),
                           txs(tx_count, producer * 100 + h),
                           KeyPair::from_seed(producer));
    heights[producer] = h;
    parents[producer] = b.header.hash();
    return b;
  }

  Mempool mempool;
  std::array<BundleHeight, kN> heights{};
  std::array<Hash32, kN> parents{kZeroHash, kZeroHash, kZeroHash, kZeroHash};
};

TEST_F(MempoolFixture, AddValidChain) {
  for (int i = 0; i < 3; ++i) {
    const Bundle b = next_bundle(0, {heights[0] + 1, 0, 0, 0});
    EXPECT_EQ(mempool.add(b), AddBundleResult::kAdded);
  }
  EXPECT_EQ(mempool.chain(0).contiguous_height(), 3u);
  EXPECT_EQ(mempool.tip_list(), (std::vector<BundleHeight>{3, 0, 0, 0}));
}

TEST_F(MempoolFixture, DuplicateDetected) {
  const Bundle b = next_bundle(1, {0, 1, 0, 0});
  EXPECT_EQ(mempool.add(b), AddBundleResult::kAdded);
  EXPECT_EQ(mempool.add(b), AddBundleResult::kDuplicate);
}

TEST_F(MempoolFixture, OutOfOrderBundlesBufferAndRetry) {
  const Bundle b1 = next_bundle(0, {1, 0, 0, 0});
  const Bundle b2 = next_bundle(0, {2, 0, 0, 0});
  const Bundle b3 = next_bundle(0, {3, 0, 0, 0});

  EXPECT_EQ(mempool.add(b3), AddBundleResult::kMissingParent);
  EXPECT_EQ(mempool.add(b2), AddBundleResult::kMissingParent);
  EXPECT_EQ(mempool.pending_count(0), 2u);
  // The parent arrival replays the buffered children in order.
  EXPECT_EQ(mempool.add(b1), AddBundleResult::kAdded);
  EXPECT_EQ(mempool.chain(0).contiguous_height(), 3u);
  EXPECT_EQ(mempool.pending_count(0), 0u);
}

TEST_F(MempoolFixture, ConflictingBundleBansProducer) {
  const Bundle good = next_bundle(2, {0, 0, 1, 0});
  EXPECT_EQ(mempool.add(good), AddBundleResult::kAdded);

  // Same height/parent, different content — equivocation.
  Bundle evil = make_bundle(2, 1, kZeroHash, {0, 0, 1, 0}, txs(3, 777),
                            KeyPair::from_seed(2));
  ConflictEvidence evidence;
  EXPECT_EQ(mempool.add(evil, &evidence), AddBundleResult::kConflict);
  EXPECT_TRUE(mempool.is_banned(2));
  EXPECT_EQ(evidence.first.producer, 2u);
  EXPECT_NE(evidence.first.hash(), evidence.second.hash());

  // Further bundles from the banned producer are rejected outright.
  const Bundle b2 = next_bundle(2, {0, 0, 2, 0});
  EXPECT_EQ(mempool.add(b2), AddBundleResult::kBannedProducer);

  mempool.unban(2);
  EXPECT_FALSE(mempool.is_banned(2));
}

TEST_F(MempoolFixture, StaleTipListRejected) {
  Bundle b1 = next_bundle(0, {1, 5, 0, 0});
  EXPECT_EQ(mempool.add(b1), AddBundleResult::kAdded);
  // Child whose tip list regresses on chain 1 violates rule 3.
  Bundle b2 = make_bundle(0, 2, parents[0], {2, 4, 0, 0}, txs(1, 9),
                          KeyPair::from_seed(0));
  EXPECT_EQ(mempool.add(b2), AddBundleResult::kStaleTips);
}

TEST_F(MempoolFixture, ForgedSignatureRejected) {
  Bundle b = make_bundle(0, 1, kZeroHash, {1, 0, 0, 0}, txs(1, 1),
                         KeyPair::from_seed(99));  // not producer 0's key
  EXPECT_EQ(mempool.add(b), AddBundleResult::kBadSignature);
}

TEST_F(MempoolFixture, TamperedTransactionsRejected) {
  Bundle b = next_bundle(0, {1, 0, 0, 0});
  b.txs.push_back(txs(1, 5)[0]);  // body no longer matches tx_root
  EXPECT_EQ(mempool.add(b), AddBundleResult::kBadTxRoot);
}

TEST_F(MempoolFixture, VerifiedSignatureDoesNotVouchForTheRoot) {
  // A BundleBatch reply's signatures are batch-verified; the root is not.
  Bundle b = next_bundle(0, {1, 0, 0, 0});
  b.txs.push_back(txs(1, 5)[0]);
  EXPECT_EQ(mempool.add(b, nullptr, {.signature = true}),
            AddBundleResult::kBadTxRoot);
  EXPECT_EQ(mempool.chain(0).contiguous_height(), 0u);
}

TEST_F(MempoolFixture, VerifiedRootDoesNotVouchForTheSignature) {
  // A producer's own bundle skips the root check, never the signature.
  Bundle b = make_bundle(0, 1, kZeroHash, {1, 0, 0, 0}, txs(1, 1),
                         KeyPair::from_seed(99));  // not producer 0's key
  EXPECT_EQ(mempool.add(b, nullptr, {.tx_root = true}),
            AddBundleResult::kBadSignature);
}

TEST_F(MempoolFixture, BadRootIsRejectedBeforeParking) {
  // Retried parked bundles skip both checks, so a bad root must never
  // reach the out-of-order buffer.
  const Bundle b1 = next_bundle(0, {1, 0, 0, 0});
  Bundle bad = next_bundle(0, {2, 0, 0, 0});
  bad.txs.push_back(txs(1, 5)[0]);
  EXPECT_EQ(mempool.add(bad), AddBundleResult::kBadTxRoot);
  EXPECT_EQ(mempool.pending_count(0), 0u);
  EXPECT_EQ(mempool.add(b1), AddBundleResult::kAdded);
  EXPECT_EQ(mempool.chain(0).contiguous_height(), 1u);
  EXPECT_FALSE(mempool.chain(0).has(2));
}

TEST_F(MempoolFixture, MalformedBundlesRejected) {
  // Unknown chain id.
  Bundle bad = make_bundle(7, 1, kZeroHash, {0, 0, 0, 0}, txs(1, 1),
                           KeyPair::from_seed(7));
  EXPECT_EQ(mempool.add(bad), AddBundleResult::kInvalid);
  // Wrong tip list arity.
  Bundle short_tips = make_bundle(0, 1, kZeroHash, {1}, txs(1, 2),
                                  KeyPair::from_seed(0));
  EXPECT_EQ(mempool.add(short_tips), AddBundleResult::kInvalid);
  // Height 1 must chain from the zero hash.
  Bundle bad_parent =
      make_bundle(0, 1, Sha256::hash(as_bytes(std::string("x"))),
                  {1, 0, 0, 0}, txs(1, 3), KeyPair::from_seed(0));
  EXPECT_EQ(mempool.add(bad_parent), AddBundleResult::kInvalid);
}

TEST_F(MempoolFixture, TipMatrixReflectsLatestBundles) {
  EXPECT_EQ(mempool.add(next_bundle(0, {1, 0, 0, 0})),
            AddBundleResult::kAdded);
  EXPECT_EQ(mempool.add(next_bundle(1, {1, 1, 0, 0})),
            AddBundleResult::kAdded);
  const auto matrix = mempool.tip_matrix();
  EXPECT_EQ(matrix[0], (std::vector<BundleHeight>{1, 0, 0, 0}));
  EXPECT_EQ(matrix[1], (std::vector<BundleHeight>{1, 1, 0, 0}));
  EXPECT_EQ(matrix[2], (std::vector<BundleHeight>{0, 0, 0, 0}));
}

TEST_F(MempoolFixture, ConfirmAdvancesMonotonicallyAndPrunes) {
  mempool.set_gc_retention(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(mempool.add(next_bundle(0, {heights[0] + 1, 0, 0, 0})),
              AddBundleResult::kAdded);
  }
  mempool.confirm({4, 0, 0, 0});
  EXPECT_EQ(mempool.confirmed(), (std::vector<BundleHeight>{4, 0, 0, 0}));
  // Bundles below confirmed - retention are gone; recent ones remain.
  EXPECT_FALSE(mempool.chain(0).has(1));
  EXPECT_FALSE(mempool.chain(0).has(2));
  EXPECT_TRUE(mempool.chain(0).has(3));
  EXPECT_TRUE(mempool.chain(0).has(5));

  // Confirm never regresses.
  mempool.confirm({2, 0, 0, 0});
  EXPECT_EQ(mempool.confirmed()[0], 4u);
}

TEST_F(MempoolFixture, WrongConfirmAritythrows) {
  EXPECT_THROW(mempool.confirm({1, 2}), std::invalid_argument);
}

TEST_F(MempoolFixture, OnConflictHookMirrorsEvidenceOutParam) {
  const Bundle b1 = next_bundle(2, {0, 0, 1, 0});
  ASSERT_EQ(mempool.add(b1), AddBundleResult::kAdded);

  std::size_t calls = 0;
  ConflictEvidence hooked;
  mempool.on_conflict = [&](NodeId producer, const ConflictEvidence& ev) {
    ++calls;
    EXPECT_EQ(producer, 2u);
    hooked = ev;
  };

  Bundle evil = make_bundle(2, 1, kZeroHash, {0, 0, 1, 0}, txs(3, 777),
                            KeyPair::from_seed(2));
  ConflictEvidence evidence;
  EXPECT_EQ(mempool.add(evil, &evidence), AddBundleResult::kConflict);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(hooked.first.hash(), evidence.first.hash());
  EXPECT_EQ(hooked.second.hash(), evidence.second.hash());
}

// Regression: a conflicting child can arrive BEFORE its parent, park in
// the out-of-order buffer, and only be detected inside retry_pending —
// a path with no caller-supplied evidence out-param. The hook is the
// only way that evidence escapes; it used to be dropped on the floor.
TEST_F(MempoolFixture, RetryPendingSurfacesBufferedConflictEvidence) {
  std::size_t calls = 0;
  ConflictEvidence hooked;
  mempool.on_conflict = [&](NodeId producer, const ConflictEvidence& ev) {
    ++calls;
    EXPECT_EQ(producer, 2u);
    hooked = ev;
  };

  const Bundle b1 = make_bundle(2, 1, kZeroHash, {0, 0, 1, 0}, txs(1, 1),
                                KeyPair::from_seed(2));
  const Hash32 bogus = Sha256::hash(as_bytes(std::string("fork")));
  const Bundle evil_child = make_bundle(2, 2, bogus, {0, 0, 2, 0},
                                        txs(1, 2), KeyPair::from_seed(2));

  // Child first: buffered, no conflict visible yet.
  EXPECT_EQ(mempool.add(evil_child), AddBundleResult::kMissingParent);
  EXPECT_EQ(calls, 0u);
  EXPECT_FALSE(mempool.is_banned(2));

  // Parent lands; retry_pending pops the child and hits the fork.
  EXPECT_EQ(mempool.add(b1), AddBundleResult::kAdded);
  EXPECT_EQ(calls, 1u);
  EXPECT_TRUE(mempool.is_banned(2));
  EXPECT_EQ(hooked.first.hash(), b1.header.hash());
  EXPECT_EQ(hooked.second.hash(), evil_child.header.hash());
}

}  // namespace
}  // namespace predis
