// Cross-kernel bit-exactness for the dispatched SHA-256 kernels,
// mirroring tests/erasure/test_gf256_kernels.cpp: every compiled-in
// kernel must agree with the portable FIPS 180-4 rounds on arbitrary
// block streams, alignments and batch sizes; the Merkle batched levels
// must equal a sequential hash_pair fold; and the signature batch
// verifier must agree with per-item verify(). CMake additionally runs
// this binary once per forced kernel (ctest -L crypto_kernels) via
// PREDIS_SHA256_FORCE_KERNEL, so the default-dispatch paths are also
// exercised under every kernel.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/merkle.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "common/sha256_kernels.hpp"
#include "common/signature.hpp"

namespace predis {
namespace {

namespace sk = sha256_kernels;

constexpr sk::Kernel kAll[] = {sk::Kernel::kPortable, sk::Kernel::kShaNi,
                               sk::Kernel::kAvx2};

constexpr std::uint32_t kIv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                  0xa54ff53a, 0x510e527f, 0x9b05688c,
                                  0x1f83d9ab, 0x5be0cd19};

TEST(Sha256Kernels, ActiveKernelIsAvailable) {
  EXPECT_TRUE(sk::available(sk::active()));
  EXPECT_TRUE(sk::available(sk::Kernel::kPortable));
  // Not an assertion — surface the dispatch decision in test logs.
  std::printf("[          ] sha256 active kernel = %s (sha_ni=%d avx2=%d)\n",
              sk::name(sk::active()),
              sk::available(sk::Kernel::kShaNi) ? 1 : 0,
              sk::available(sk::Kernel::kAvx2) ? 1 : 0);
}

TEST(Sha256Kernels, UnavailableKernelsResolveToPortable) {
  for (sk::Kernel k : kAll) {
    if (sk::available(k)) continue;
    EXPECT_EQ(sk::compress(k), sk::compress(sk::Kernel::kPortable));
    EXPECT_EQ(sk::hash_pairs(k), sk::hash_pairs(sk::Kernel::kPortable));
    EXPECT_EQ(sk::hash_blocks(k), sk::hash_blocks(sk::Kernel::kPortable));
    EXPECT_FALSE(sk::force(k));
  }
}

TEST(Sha256Kernels, CompressMatchesPortableAcrossBlockCountsAndAlignments) {
  Rng rng(0x5eedULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t blocks = 1 + rng.next_below(8);
    const std::size_t offset = rng.next_below(16);
    std::vector<std::uint8_t> buf(offset + blocks * 64);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());

    std::uint32_t want[8];
    std::memcpy(want, kIv, sizeof(want));
    sk::detail::compress_portable(want, buf.data() + offset, blocks);

    for (sk::Kernel k : kAll) {
      if (!sk::available(k)) continue;
      std::uint32_t got[8];
      std::memcpy(got, kIv, sizeof(got));
      sk::compress(k)(got, buf.data() + offset, blocks);
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(got[i], want[i])
            << sk::name(k) << " word " << i << " blocks=" << blocks
            << " offset=" << offset << " trial=" << trial;
      }
    }
  }
}

TEST(Sha256Kernels, HashPairsMatchesPortableAcrossBatchSizes) {
  Rng rng(0xabcdULL);
  // Every count from 0 to 40: the two-stream SHA-NI odd remainder and
  // every AVX2 eight-lane remainder.
  for (std::size_t count = 0; count <= 40; ++count) {
    std::vector<std::uint8_t> msgs(count * 64 + 1);
    for (auto& b : msgs) b = static_cast<std::uint8_t>(rng.next());
    std::vector<Hash32> want(count + 1);
    sk::detail::hash_pairs_portable(msgs.data(), count, want.data());
    for (sk::Kernel k : kAll) {
      if (!sk::available(k)) continue;
      std::vector<Hash32> got(count + 1);
      sk::hash_pairs(k)(msgs.data(), count, got.data());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[i], want[i])
            << sk::name(k) << " pair " << i << " of " << count;
      }
    }
  }
}

TEST(Sha256Kernels, HashPairsMatchesIncrementalHasher) {
  // End-to-end: the batch entry point equals Sha256::hash of the same
  // 64 bytes, for every kernel (pins padding-block construction).
  Rng rng(0x1234ULL);
  std::uint8_t msg[64];
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  const Hash32 want = Sha256::hash(BytesView{msg, sizeof(msg)});
  for (sk::Kernel k : kAll) {
    if (!sk::available(k)) continue;
    Hash32 got;
    sk::hash_pairs(k)(msg, 1, &got);
    EXPECT_EQ(got, want) << sk::name(k);
  }
}

TEST(Sha256Kernels, HashPairsSupportsAliasedOutput) {
  // The Merkle level-halving loop writes out[i] into the front of the
  // msgs buffer; the contract says that is safe for every kernel.
  Rng rng(0x77ULL);
  const std::size_t count = 19;
  std::vector<std::uint8_t> msgs(count * 64);
  for (auto& b : msgs) b = static_cast<std::uint8_t>(rng.next());
  std::vector<Hash32> want(count);
  sk::detail::hash_pairs_portable(msgs.data(), count, want.data());
  for (sk::Kernel k : kAll) {
    if (!sk::available(k)) continue;
    std::vector<std::uint8_t> aliased(msgs);
    // predis-lint: allow(D5): the aliasing contract under test IS "out overlays msgs".
    Hash32* const out_alias = reinterpret_cast<Hash32*>(aliased.data());
    sk::hash_pairs(k)(aliased.data(), count, out_alias);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(0, std::memcmp(aliased.data() + i * 32, want[i].data(), 32))
          << sk::name(k) << " pair " << i;
    }
  }
}

TEST(Sha256Kernels, HashBlocksMatchesPortableAcrossBatchSizes) {
  // Every count from 0 to 40: the two-stream SHA-NI odd remainder and
  // every AVX2 eight-lane remainder.
  Rng rng(0xb10cULL);
  for (std::size_t count = 0; count <= 40; ++count) {
    std::vector<std::uint8_t> blocks(count * 64 + 1);
    for (auto& b : blocks) b = static_cast<std::uint8_t>(rng.next());
    std::vector<Hash32> want(count);
    sk::detail::hash_blocks_portable(blocks.data(), count, want.data());
    for (sk::Kernel k : kAll) {
      if (!sk::available(k)) continue;
      std::vector<Hash32> got(count + 1, kZeroHash);
      sk::hash_blocks(k)(blocks.data(), count, got.data());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[i], want[i])
            << sk::name(k) << " block " << i << " of " << count;
      }
      EXPECT_EQ(got[count], kZeroHash) << sk::name(k) << " count=" << count;
    }
  }
}

TEST(Sha256Kernels, HashBlocksMatchesOneShotOfPaddedMessages) {
  // A padded block of an L-byte message (L <= 55) hashes to SHA-256 of
  // the message, under every kernel and through hash_padded_blocks().
  Rng rng(0x9adULL);
  constexpr std::size_t kMaxLen = 55;
  std::vector<std::uint8_t> blocks((kMaxLen + 1) * 64, 0);
  std::vector<Hash32> want(kMaxLen + 1);
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    std::uint8_t* b = blocks.data() + len * 64;
    for (std::size_t i = 0; i < len; ++i) {
      b[i] = static_cast<std::uint8_t>(rng.next());
    }
    b[len] = 0x80;
    const std::uint64_t bits = len * 8;
    for (int i = 0; i < 8; ++i) {
      b[63 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
    want[len] = Sha256::hash(BytesView{b, len});
  }
  for (sk::Kernel k : kAll) {
    if (!sk::available(k)) continue;
    std::vector<Hash32> got(kMaxLen + 1);
    sk::hash_blocks(k)(blocks.data(), got.size(), got.data());
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(got[len], want[len]) << sk::name(k) << " len=" << len;
    }
  }
  std::vector<Hash32> got(kMaxLen + 1);
  hash_padded_blocks(blocks.data(), got.size(), got.data());
  EXPECT_EQ(got, want);
}

TEST(Sha256Kernels, NistVectorsUnderEveryKernel) {
  const sk::Kernel before = sk::active();
  for (sk::Kernel k : kAll) {
    if (!sk::force(k)) continue;
    EXPECT_EQ(to_hex(Sha256::hash(as_bytes(std::string()))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << sk::name(k);
    EXPECT_EQ(to_hex(Sha256::hash(as_bytes(std::string("abc")))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << sk::name(k);
    EXPECT_EQ(
        to_hex(Sha256::hash(as_bytes(std::string(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << sk::name(k);
  }
  ASSERT_TRUE(sk::force(before));
}

// --- Merkle: batched levels vs sequential fold -------------------------

/// The pre-batching reference: hash_pair level by level, duplicating
/// the last node of odd levels.
Hash32 sequential_merkle_root(std::vector<Hash32> level) {
  while (level.size() > 1) {
    if (level.size() % 2 != 0) level.push_back(level.back());
    std::vector<Hash32> next(level.size() / 2);
    for (std::size_t i = 0; i < next.size(); ++i) {
      next[i] = hash_pair(level[2 * i], level[2 * i + 1]);
    }
    level = std::move(next);
  }
  return level.front();
}

TEST(Sha256Kernels, MerkleBatchedRootMatchesSequential) {
  Rng rng(0x31337ULL);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{7}, std::size_t{8}, std::size_t{9},
                        std::size_t{16}, std::size_t{17}, std::size_t{50},
                        std::size_t{333}}) {
    std::vector<Hash32> leaves(n);
    for (auto& leaf : leaves) {
      for (auto& b : leaf) b = static_cast<std::uint8_t>(rng.next());
    }
    const Hash32 want = sequential_merkle_root(leaves);
    EXPECT_EQ(MerkleTree(leaves).root(), want) << "tree, n=" << n;
    EXPECT_EQ(MerkleTree::root_of(leaves), want) << "root_of, n=" << n;
  }
}

// --- Signature batch verification parity -------------------------------

TEST(Sha256Kernels, BatchVerifyMatchesSingleVerify) {
  const KeyPair alice = KeyPair::from_seed(1);
  const KeyPair bob = KeyPair::from_seed(2);
  const std::string t1 = "transfer 10 to bob";
  const std::string t2 = "transfer 99 to eve";
  const BytesView m1 = as_bytes(t1);
  const BytesView m2 = as_bytes(t2);

  const Signature s1 = alice.sign(m1);
  const Signature s2 = bob.sign(m2);
  Signature forged = s1;
  forged[0] ^= 0x01;
  PublicKey unknown{};
  unknown[0] = 0xee;

  const PublicKey& ka = alice.public_key();
  const PublicKey& kb = bob.public_key();
  const std::vector<SigCheck> items = {
      {&ka, m1, &s1},       // good
      {&kb, m2, &s2},       // good
      {&ka, m2, &s1},       // wrong message
      {&kb, m1, &s1},       // wrong key
      {&ka, m1, &forged},   // bit-flipped signature
      {&unknown, m1, &s1},  // unregistered key
  };

  std::vector<bool> want(items.size());
  std::size_t want_passed = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    want[i] = verify(*items[i].key, items[i].message, *items[i].signature);
    want_passed += want[i] ? 1 : 0;
  }
  ASSERT_EQ(want_passed, 2u);  // exactly the two honest items

  bool ok[6] = {true, true, true, true, true, true};
  const std::size_t passed = verify_batch(items.data(), items.size(), ok);
  EXPECT_EQ(passed, want_passed);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(ok[i], want[i]) << "item " << i;
  }
}

TEST(Sha256Kernels, BatchVerifyEmptyBatch) {
  EXPECT_EQ(verify_batch(nullptr, 0, nullptr), 0u);
}

}  // namespace
}  // namespace predis
