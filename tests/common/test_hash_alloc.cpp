// Allocation check for the transaction-path hashes: with a counting
// global operator new, steady-state Transaction::id(),
// BundleHeader::hash(), PredisBlock::hash() and bundle / block
// signature verification must not touch the heap. Its own executable
// because replacing operator new is program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bundle/predis_block.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace predis
