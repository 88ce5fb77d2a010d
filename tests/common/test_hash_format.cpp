// Hash-format pins for the allocation-free hashing path: the one-shot
// SHA-256, the per-thread scratch encoder behind hash_of(), and the
// encode_signed() field lists must all reproduce the digests a plain
// Writer + streaming Sha256 gives. Built into crypto_kernel_tests, so
// every check runs once per forced SHA-256 kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bundle/predis_block.hpp"
#include "common/rng.hpp"
#include "core/ledger.hpp"

namespace predis {
namespace {

Hash32 streamed(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.digest();
}

Hash32 random_hash(Rng& rng) {
  Hash32 h;
  for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
  return h;
}

Transaction random_tx(Rng& rng) {
  Transaction tx;
  tx.client = static_cast<NodeId>(rng.next());
  tx.seq = rng.next();
  tx.size = static_cast<std::uint32_t>(rng.next());
  tx.submitted_at = static_cast<SimTime>(rng.next());
  tx.payload_seed = rng.next();
  tx.target_consensus = static_cast<NodeId>(rng.next());
  return tx;
}

BundleHeader random_header(Rng& rng) {
  BundleHeader h;
  h.producer = static_cast<NodeId>(rng.next());
  h.height = rng.next();
  h.parent_hash = random_hash(rng);
  h.tip_list.resize(rng.next_below(12));
  for (auto& t : h.tip_list) t = rng.next();
  h.tx_root = random_hash(rng);
  h.stripe_root = random_hash(rng);
  for (auto& b : h.signature) b = static_cast<std::uint8_t>(rng.next());
  return h;
}

PredisBlock random_block(Rng& rng) {
  PredisBlock b;
  b.height = rng.next();
  b.parent_hash = random_hash(rng);
  b.leader = static_cast<NodeId>(rng.next());
  b.view = rng.next();
  const std::size_t n = rng.next_below(12);
  for (std::size_t i = 0; i < n; ++i) {
    b.prev_heights.push_back(rng.next());
    b.cut_heights.push_back(rng.next());
    if (rng.chance(0.5)) b.header_hashes.push_back(random_hash(rng));
  }
  b.tx_root = random_hash(rng);
  for (auto& byte : b.signature) byte = static_cast<std::uint8_t>(rng.next());
  return b;
}

// Reference encodings, written field by field so they do not share
// code with the encode() / encode_signed() they check.

Hash32 reference_tx_id(const Transaction& tx) {
  Writer w;
  w.u32(tx.client);
  w.u64(tx.seq);
  w.u32(tx.size);
  w.i64(tx.submitted_at);
  w.u64(tx.payload_seed);
  w.u32(tx.target_consensus);
  return streamed(w.data());
}

Hash32 reference_header_hash(const BundleHeader& h) {
  Writer w;
  w.u32(h.producer);
  w.u64(h.height);
  w.hash(h.parent_hash);
  w.u32(static_cast<std::uint32_t>(h.tip_list.size()));
  for (auto t : h.tip_list) w.u64(t);
  w.hash(h.tx_root);
  w.hash(h.stripe_root);
  return streamed(w.data());
}

Hash32 reference_block_hash(const PredisBlock& b) {
  Writer w;
  w.u64(b.height);
  w.hash(b.parent_hash);
  w.u32(b.leader);
  w.u64(b.view);
  w.u32(static_cast<std::uint32_t>(b.prev_heights.size()));
  for (auto h : b.prev_heights) w.u64(h);
  w.u32(static_cast<std::uint32_t>(b.cut_heights.size()));
  for (auto h : b.cut_heights) w.u64(h);
  w.u32(static_cast<std::uint32_t>(b.header_hashes.size()));
  for (const auto& h : b.header_hashes) w.hash(h);
  w.hash(b.tx_root);
  return streamed(w.data());
}

Hash32 reference_record_hash(const core::LedgerEntry& e) {
  Writer w;
  w.u64(e.height);
  w.hash(e.parent);
  w.hash(e.payload_digest);
  w.hash(e.tx_root);
  w.u64(e.tx_count);
  return streamed(w.data());
}

TEST(Sha256OneShot, MatchesStreamingForEveryLengthUpTo200) {
  // Every split of the input into whole blocks handed to the kernel
  // plus a padded tail: 55/56 (length field fits or spills into a
  // second block), 63/64 (exact block), 119/120 and beyond.
  Rng rng(3);
  Bytes data(200);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const BytesView view{data.data(), len};
    ASSERT_EQ(Sha256::hash(view), streamed(view)) << "length " << len;
  }
}

TEST(Sha256OneShot, KnownAnswersAtPaddingBoundaries) {
  // The one-shot and streaming paths share their padding code, so the
  // comparison above cannot catch a padding bug; these digests of
  // n x 'a' come from an independent SHA-256 implementation.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
      {128,
       "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"},
  };
  for (const auto& [len, hex] : cases) {
    const std::string input(len, 'a');
    EXPECT_EQ(to_hex(Sha256::hash(as_bytes(input))), hex) << len;
    EXPECT_EQ(to_hex(streamed(as_bytes(input))), hex) << len;
  }
}

TEST(HashFormat, TransactionIdIsSha256OfReferenceEncoding) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const Transaction tx = random_tx(rng);
    ASSERT_EQ(tx.id(), reference_tx_id(tx));
  }
}

TEST(HashFormat, BundleHeaderHashIsSha256OfReferenceEncoding) {
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const BundleHeader h = random_header(rng);
    ASSERT_EQ(h.hash(), reference_header_hash(h));
    ASSERT_EQ(h.hash(), streamed(h.signing_bytes()));
  }
}

TEST(HashFormat, PredisBlockHashIsSha256OfReferenceEncoding) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const PredisBlock b = random_block(rng);
    ASSERT_EQ(b.hash(), reference_block_hash(b));
    ASSERT_EQ(b.hash(), streamed(b.signing_bytes()));
  }
}

TEST(HashFormat, LedgerRecordHashIsSha256OfReferenceEncoding) {
  Rng rng(14);
  for (int i = 0; i < 200; ++i) {
    core::LedgerEntry e;
    e.height = rng.next();
    e.parent = random_hash(rng);
    e.payload_digest = random_hash(rng);
    e.tx_root = random_hash(rng);
    e.tx_count = rng.next();
    e.committed_at = static_cast<SimTime>(rng.next());
    ASSERT_EQ(e.record_hash(), reference_record_hash(e));
  }
}

TEST(HashFormat, EncodedSignedPortionIsAPrefixOfTheWireEncoding) {
  Rng rng(15);
  const BundleHeader h = random_header(rng);
  Writer wire;
  h.encode(wire);
  const Bytes signed_part = h.signing_bytes();
  ASSERT_EQ(wire.size(), signed_part.size() + h.signature.size());
  EXPECT_TRUE(std::equal(signed_part.begin(), signed_part.end(),
                         wire.data().begin()));

  const PredisBlock b = random_block(rng);
  Writer block_wire;
  b.encode(block_wire);
  Reader r(block_wire.data());
  EXPECT_EQ(PredisBlock::decode(r), b);
  EXPECT_TRUE(r.done());
}

/// A structure whose encoding embeds the hash of a child — hash_of
/// re-enters itself while the outer call holds the thread's scratch.
struct Nested {
  std::vector<Transaction> children;
  void encode(Writer& w) const {
    w.u32(static_cast<std::uint32_t>(children.size()));
    for (const auto& tx : children) w.hash(hash_of(tx));
  }
};

TEST(HashFormat, NestedHashOfInsideEncodeGivesTheCorrectDigest) {
  Rng rng(16);
  Nested outer;
  for (int i = 0; i < 5; ++i) outer.children.push_back(random_tx(rng));

  Writer reference;
  reference.u32(5);
  for (const auto& tx : outer.children) reference.hash(reference_tx_id(tx));
  const Hash32 expected = streamed(reference.data());

  EXPECT_EQ(hash_of(outer), expected);
  // The scratch handed back by the nested calls must not leak into the
  // next top-level digest either.
  EXPECT_EQ(hash_of(outer), expected);
  EXPECT_EQ(outer.children[2].id(), reference_tx_id(outer.children[2]));
}

TEST(HashFormat, OversizedEncodingIsHashedCorrectlyAndLaterOnesStillAre) {
  // Past the scratch keep limit the buffer is dropped after use; the
  // digests on either side of that must not change.
  Rng rng(17);
  BundleHeader big = random_header(rng);
  big.tip_list.assign(2000, 7);  // ~16 KB signed portion
  const Transaction tx = random_tx(rng);
  EXPECT_EQ(tx.id(), reference_tx_id(tx));
  EXPECT_EQ(big.hash(), reference_header_hash(big));
  EXPECT_EQ(tx.id(), reference_tx_id(tx));
}

TEST(HashFormat, ConcurrentHashingMatchesSequentialResults) {
  Rng rng(18);
  std::vector<Transaction> txs;
  std::vector<BundleHeader> headers;
  for (int i = 0; i < 300; ++i) {
    txs.push_back(random_tx(rng));
    headers.push_back(random_header(rng));
  }
  std::vector<Hash32> expected;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    expected.push_back(txs[i].id());
    expected.push_back(headers[i].hash());
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<Hash32>> got(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        got[t].clear();
        for (std::size_t i = 0; i < txs.size(); ++i) {
          got[t].push_back(txs[i].id());
          got[t].push_back(headers[i].hash());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected);
}

}  // namespace
}  // namespace predis
