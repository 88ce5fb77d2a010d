// End-to-end byte-level stripe path: bundle -> serialize -> RS encode
// -> stripe loss/tampering -> verify -> decode -> identical bundle.
#include "erasure/stripe_codec.hpp"

#include <gtest/gtest.h>

namespace predis::erasure {
namespace {

Bundle make_test_bundle(std::size_t tx_count, std::uint64_t tag) {
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < tx_count; ++i) {
    Transaction tx;
    tx.client = 3;
    tx.seq = tag * 1000 + i;
    tx.payload_seed = tag ^ (i * 0x9e3779b97f4a7c15ULL);
    txs.push_back(tx);
  }
  return make_bundle(1, 7, Sha256::hash(as_bytes(std::string("parent"))),
                     {4, 7, 2, 9}, std::move(txs), KeyPair::from_seed(881));
}

TEST(StripeCodec, SerializeRoundTrip) {
  const Bundle b = make_test_bundle(50, 1);
  const Bytes bytes = StripeCodec::serialize_bundle(b);
  EXPECT_EQ(StripeCodec::deserialize_bundle(bytes), b);
}

TEST(StripeCodec, DeserializeRejectsTrailingGarbage) {
  Bytes bytes = StripeCodec::serialize_bundle(make_test_bundle(3, 2));
  bytes.push_back(0xff);
  EXPECT_THROW(StripeCodec::deserialize_bundle(bytes), CodecError);
}

TEST(StripeCodec, EncodeDecodeAllStripes) {
  const StripeCodec codec(3, 4);  // n_c = 4, f = 1
  const Bundle b = make_test_bundle(50, 3);
  const auto encoded = codec.encode(b);
  ASSERT_EQ(encoded.stripes.size(), 4u);

  std::vector<std::optional<Stripe>> input(encoded.stripes.begin(),
                                           encoded.stripes.end());
  EXPECT_EQ(codec.try_decode(input).value(), b);
}

TEST(StripeCodec, DecodesFromAnyKSubset) {
  const StripeCodec codec(3, 4);
  const Bundle b = make_test_bundle(20, 4);
  const auto encoded = codec.encode(b);

  for (std::size_t drop = 0; drop < 4; ++drop) {
    std::vector<std::optional<Stripe>> input(encoded.stripes.begin(),
                                             encoded.stripes.end());
    input[drop].reset();
    EXPECT_EQ(codec.try_decode(input).value(), b)
        << "dropped stripe " << drop;
  }
}

TEST(StripeCodec, EveryStripeVerifiesAgainstRoot) {
  const StripeCodec codec(6, 8);  // n_c = 8, f = 2
  const auto encoded = codec.encode(make_test_bundle(50, 5));
  for (const Stripe& stripe : encoded.stripes) {
    EXPECT_TRUE(StripeCodec::verify(stripe, encoded.stripe_root))
        << "stripe " << stripe.index;
  }
}

TEST(StripeCodec, TamperedStripeFailsVerification) {
  const StripeCodec codec(3, 4);
  auto encoded = codec.encode(make_test_bundle(10, 6));
  encoded.stripes[2].data[5] ^= 0x01;
  EXPECT_FALSE(StripeCodec::verify(encoded.stripes[2],
                                   encoded.stripe_root));
}

TEST(StripeCodec, MisindexedStripeFailsVerification) {
  const StripeCodec codec(3, 4);
  auto encoded = codec.encode(make_test_bundle(10, 7));
  encoded.stripes[1].index = 2;  // claims to be a different stripe
  EXPECT_FALSE(StripeCodec::verify(encoded.stripes[1],
                                   encoded.stripe_root));
}

TEST(StripeCodec, TooFewStripesThrow) {
  const StripeCodec codec(3, 4);
  const auto encoded = codec.encode(make_test_bundle(10, 8));
  std::vector<std::optional<Stripe>> input(4);
  input[0] = encoded.stripes[0];
  input[3] = encoded.stripes[3];
  EXPECT_EQ(codec.try_decode(input).error().code,
            CodecErrorCode::kNotEnoughShards);
}

TEST(StripeCodec, TryDecodeRoundTrips) {
  const StripeCodec codec(3, 4);
  const Bundle b = make_test_bundle(20, 12);
  const auto encoded = codec.encode(b);
  std::vector<std::optional<Stripe>> input(encoded.stripes.begin(),
                                           encoded.stripes.end());
  input[1].reset();
  auto result = codec.try_decode(input);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), b);
}

TEST(StripeCodec, TryDecodeNeverThrowsOnBadInput) {
  const StripeCodec codec(3, 4);
  const auto encoded = codec.encode(make_test_bundle(10, 13));

  {  // Too few stripes.
    std::vector<std::optional<Stripe>> input(4);
    input[0] = encoded.stripes[0];
    const auto result = codec.try_decode(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, CodecErrorCode::kNotEnoughShards);
  }
  {  // Out-of-range stripe index.
    std::vector<std::optional<Stripe>> input(encoded.stripes.begin(),
                                             encoded.stripes.end());
    input[2]->index = 99;
    const auto result = codec.try_decode(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, CodecErrorCode::kBadStripeIndex);
  }
  {  // Corrupted shard bytes: either the length prefix breaks or the
    // payload no longer deserializes as a bundle — both are reported,
    // not thrown.
    std::vector<std::optional<Stripe>> input(encoded.stripes.begin(),
                                             encoded.stripes.end());
    for (auto& stripe : input) {
      for (auto& byte : stripe->data) byte ^= 0x5a;
    }
    const auto result = codec.try_decode(input);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.error().code == CodecErrorCode::kCorruptPayload ||
                result.error().code == CodecErrorCode::kMalformedBundle)
        << to_string(result.error().code);
  }
}

TEST(StripeCodec, EncodeIntoReusesArenaAcrossBundles) {
  const StripeCodec codec(3, 4);
  StripeCodec::Encoded arena;
  for (std::uint64_t tag = 20; tag < 24; ++tag) {
    const Bundle b = make_test_bundle(15, tag);
    codec.encode_into(b, arena);
    // The arena result must be indistinguishable from a fresh encode.
    const auto fresh = codec.encode(b);
    EXPECT_EQ(arena.stripe_root, fresh.stripe_root);
    ASSERT_EQ(arena.stripes.size(), fresh.stripes.size());
    for (std::size_t i = 0; i < fresh.stripes.size(); ++i) {
      EXPECT_EQ(arena.stripes[i].index, fresh.stripes[i].index);
      EXPECT_EQ(arena.stripes[i].data, fresh.stripes[i].data);
      EXPECT_EQ(arena.stripes[i].proof.leaf_index,
                fresh.stripes[i].proof.leaf_index);
      EXPECT_EQ(arena.stripes[i].proof.siblings,
                fresh.stripes[i].proof.siblings);
    }
    std::vector<std::optional<Stripe>> input(arena.stripes.begin(),
                                             arena.stripes.end());
    input[tag % 4].reset();
    auto decoded = codec.try_decode(input);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), b);
  }
}

TEST(StripeCodec, StripeRootBindsIntoSignedHeader) {
  // The producer workflow: encode first, commit the stripe root in the
  // header, then sign. Receivers verify stripes against the root from
  // the *signed* header, so a tampered stripe is detected before decode.
  const StripeCodec codec(3, 4);
  Bundle b = make_test_bundle(25, 9);
  const auto encoded = codec.encode(b);
  b.header.stripe_root = encoded.stripe_root;
  const KeyPair key = KeyPair::from_seed(882);
  b.header.signature = key.sign(BytesView{b.header.signing_bytes()});
  EXPECT_TRUE(verify_bundle_signature(b.header, key.public_key()));
  for (const Stripe& s : encoded.stripes) {
    EXPECT_TRUE(StripeCodec::verify(s, b.header.stripe_root));
  }
}

class StripeCodecShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(StripeCodecShapes, LossyRoundTripAtEveryShape) {
  const auto [k, n] = GetParam();
  const StripeCodec codec(k, n);
  const Bundle b = make_test_bundle(50, k * 100 + n);
  const auto encoded = codec.encode(b);

  // Drop the maximum tolerable number of stripes (prefix pattern).
  std::vector<std::optional<Stripe>> input(encoded.stripes.begin(),
                                           encoded.stripes.end());
  for (std::size_t i = 0; i < n - k; ++i) input[i].reset();
  EXPECT_EQ(codec.try_decode(input).value(), b);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StripeCodecShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{3, 4},
                      std::pair<std::size_t, std::size_t>{6, 8},
                      std::pair<std::size_t, std::size_t>{11, 16},
                      std::pair<std::size_t, std::size_t>{22, 32}));

}  // namespace
}  // namespace predis::erasure
