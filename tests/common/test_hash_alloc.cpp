// Allocation check for the transaction-path hashes: with a counting
// global operator new, steady-state Transaction::id(),
// BundleHeader::hash(), PredisBlock::hash(), bundle / block signature
// verification, the bundle / block transaction roots and re-publishing
// a stored bundle to the Multi-Zone directory must not touch the heap.
// Its own executable because replacing operator new is program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bundle/predis_block.hpp"
#include "multizone/directory.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Out of line: once GCC 12 inlines these it sees free() applied to
// memory from operator new and warns (-Wmismatched-new-delete).
#define NOINLINE __attribute__((noinline))
NOINLINE void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
NOINLINE void* operator new[](std::size_t size) { return operator new(size); }
NOINLINE void operator delete(void* p) noexcept { std::free(p); }
NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
NOINLINE void operator delete(void* p, std::size_t) noexcept { std::free(p); }
NOINLINE void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace predis {
namespace {

/// Heap allocations made by `fn` after one warm-up call (which may size
/// this thread's scratch buffer).
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  fn();
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) fn();
  return g_allocations.load() - before;
}

std::vector<Transaction> make_txs(std::size_t n) {
  std::vector<Transaction> txs(n);
  for (std::size_t i = 0; i < n; ++i) {
    txs[i].client = 9;
    txs[i].seq = i;
    txs[i].payload_seed = i * 31;
  }
  return txs;
}

TEST(HashAlloc, TransactionIdAllocatesNothing) {
  const auto txs = make_txs(64);
  Hash32 sink{};
  EXPECT_EQ(allocations_in([&] {
              for (const auto& tx : txs) sink[0] ^= tx.id()[0];
            }),
            0u);
}

TEST(HashAlloc, BundleHeaderHashAndSignatureVerifyAllocateNothing) {
  const KeyPair key = KeyPair::from_seed(1);
  const Bundle b =
      make_bundle(1, 1, kZeroHash, {0, 1, 0, 0}, make_txs(20), key);
  bool ok = true;
  Hash32 sink{};
  EXPECT_EQ(allocations_in([&] { sink[0] ^= b.header.hash()[0]; }), 0u);
  EXPECT_EQ(allocations_in([&] {
              ok = ok && verify_bundle_signature(b.header, key.public_key());
            }),
            0u);
  EXPECT_TRUE(ok);
}

TEST(HashAlloc, PredisBlockHashAndVerifyAllocateNothing) {
  // A block whose cut confirms nothing new: verify_predis_block runs
  // its structure, signature, ban, presence and tx-root checks with no
  // bundle data, so every byte it touches is hashing-path scratch.
  constexpr std::size_t kN = 4;
  std::vector<PublicKey> keys;
  for (std::size_t i = 0; i < kN; ++i) {
    keys.push_back(KeyPair::from_seed(i).public_key());
  }
  const Mempool mempool(kN, keys);
  const PredisBlock block = build_predis_block(
      mempool, 0, 1, 3, 0, kZeroHash, std::vector<BundleHeight>(kN, 0),
      KeyPair::from_seed(0));
  bool ok = true;
  Hash32 sink{};
  EXPECT_EQ(allocations_in([&] { sink[0] ^= block.hash()[0]; }), 0u);
  EXPECT_EQ(allocations_in([&] {
              ok = ok && verify_predis_block(mempool, block, keys[0]) ==
                             BlockVerifyResult::kOk;
            }),
            0u);
  EXPECT_TRUE(ok);
}

TEST(HashAlloc, BundleAndBlockTxRootsAllocateNothing) {
  // Two 50-tx bundles per chain on four chains: the block root hashes
  // 400 leaves from eight bundles through one shared leaf array.
  constexpr std::size_t kN = 4;
  std::vector<PublicKey> keys;
  for (std::size_t i = 0; i < kN; ++i) {
    keys.push_back(KeyPair::from_seed(i).public_key());
  }
  Mempool mempool(kN, keys);
  for (std::size_t p = 0; p < kN; ++p) {
    Hash32 parent = kZeroHash;
    for (BundleHeight h = 1; h <= 2; ++h) {
      const Bundle b = make_bundle(static_cast<NodeId>(p), h, parent,
                                   std::vector<BundleHeight>(kN, 0),
                                   make_txs(50), KeyPair::from_seed(p));
      parent = b.header.hash();
      ASSERT_EQ(mempool.add(b), AddBundleResult::kAdded);
    }
  }
  const std::vector<BundleHeight> prev(kN, 0);
  const std::vector<BundleHeight> cut(kN, 2);
  const auto txs = make_txs(435);
  Hash32 sink{};
  EXPECT_EQ(allocations_in([&] { sink[0] ^= Bundle::tx_root_of(txs)[0]; }),
            0u);
  EXPECT_EQ(allocations_in([&] {
              sink[0] ^= compute_block_tx_root(mempool, prev, cut)[0];
            }),
            0u);
  // The root a node records at commit: four cut-tip header hashes.
  const PredisBlock block = build_predis_block(
      mempool, 0, kN - 1, 1, 0, kZeroHash, prev, KeyPair::from_seed(0));
  ASSERT_EQ(block.cut_heights, cut);
  const auto executed = extract_transactions(mempool, block);
  EXPECT_EQ(allocations_in([&] {
              sink[0] ^= executed_tx_root(mempool, block, executed)[0];
            }),
            0u);
}

TEST(HashAlloc, RepublishingAStoredBundleAllocatesNothing) {
  // Every full node publishes each bundle it decodes; only the first
  // publication stores it.
  multizone::ZoneDirectory dir(1);
  const Bundle b = make_bundle(1, 1, kZeroHash, {0, 1, 0, 0}, make_txs(20),
                               KeyPair::from_seed(1));
  dir.publish_bundle(b);
  EXPECT_EQ(allocations_in([&] { dir.publish_bundle(b); }), 0u);
  EXPECT_NE(dir.bundle(b.header.hash()), nullptr);
}

}  // namespace
}  // namespace predis
