#include "erasure/reed_solomon.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace predis::erasure {
namespace {

Bytes random_payload(std::size_t size, std::uint64_t seed) {
  predis::Rng rng(seed);
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(ReedSolomon, RoundTripAllShardsPresent) {
  const ReedSolomon rs(4, 6);
  const Bytes payload = random_payload(1000, 1);
  const auto shards = rs.encode(payload);
  ASSERT_EQ(shards.size(), 6u);

  std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
  EXPECT_EQ(rs.try_decode(input).value(), payload);
}

TEST(ReedSolomon, SystematicPrefixIsPayload) {
  const ReedSolomon rs(4, 6);
  const Bytes payload = random_payload(396, 2);  // 4+396 = 400 = 4*100
  const auto shards = rs.encode(payload);
  // Data shards hold the length-prefixed payload verbatim.
  Bytes joined;
  for (std::size_t i = 0; i < 4; ++i) {
    joined.insert(joined.end(), shards[i].begin(), shards[i].end());
  }
  EXPECT_EQ(Bytes(joined.begin() + 4, joined.end()), payload);
}

/// Parameterized over (data shards, total shards).
class RsParamTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(RsParamTest, RecoversFromEveryMaximalLossPattern) {
  const auto [k, n] = GetParam();
  const ReedSolomon rs(k, n);
  const Bytes payload = random_payload(777, k * 31 + n);
  const auto shards = rs.encode(payload);

  // Drop every combination of n-k shards (bitmask sweep; n <= 10 here).
  const std::size_t m = n - k;
  std::vector<std::size_t> drop(m);
  std::function<void(std::size_t, std::size_t)> sweep =
      [&](std::size_t start, std::size_t depth) {
        if (depth == m) {
          std::vector<std::optional<Bytes>> input(shards.begin(),
                                                  shards.end());
          for (std::size_t d : drop) input[d].reset();
          EXPECT_EQ(rs.try_decode(input).value(), payload);
          return;
        }
        for (std::size_t i = start; i < n; ++i) {
          drop[depth] = i;
          sweep(i + 1, depth + 1);
        }
      };
  sweep(0, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RsParamTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 2},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{3, 4},   // n_c=4,f=1
                      std::pair<std::size_t, std::size_t>{6, 8},   // n_c=8,f=2
                      std::pair<std::size_t, std::size_t>{4, 7},
                      std::pair<std::size_t, std::size_t>{5, 10}));

TEST(ReedSolomon, PaperConfiguration16Nodes) {
  // n_c = 16, f = 5: any 11 of 16 stripes rebuild the bundle.
  const ReedSolomon rs(11, 16);
  const Bytes payload = random_payload(25'600, 99);  // 50 txs x 512 B
  auto shards = rs.encode(payload);
  std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
  // Drop five parity + zero data, five data, and a mix.
  for (std::size_t d : {0u, 3u, 7u, 12u, 15u}) input[d].reset();
  EXPECT_EQ(rs.try_decode(input).value(), payload);
}

TEST(ReedSolomon, TooFewShardsThrows) {
  const ReedSolomon rs(3, 5);
  const auto shards = rs.encode(random_payload(100, 5));
  std::vector<std::optional<Bytes>> input(5);
  input[0] = shards[0];
  input[4] = shards[4];
  EXPECT_EQ(rs.try_decode(input).error().code,
            CodecErrorCode::kNotEnoughShards);
}

TEST(ReedSolomon, MismatchedShardSizesThrow) {
  const ReedSolomon rs(2, 4);
  auto shards = rs.encode(random_payload(100, 6));
  std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
  input[1]->push_back(0);
  EXPECT_EQ(rs.try_decode(input).error().code,
            CodecErrorCode::kShardSizeMismatch);
}

TEST(ReedSolomon, WrongShardCountThrows) {
  const ReedSolomon rs(2, 4);
  std::vector<std::optional<Bytes>> input(3);
  EXPECT_EQ(rs.try_decode(input).error().code,
            CodecErrorCode::kWrongShardCount);
}

TEST(ReedSolomon, InvalidParametersThrow) {
  EXPECT_THROW(ReedSolomon(0, 4), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(5, 4), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(4, 300), std::invalid_argument);
}

TEST(ReedSolomon, EmptyPayloadRoundTrips) {
  const ReedSolomon rs(3, 5);
  const auto shards = rs.encode(Bytes{});
  std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
  input[0].reset();
  input[2].reset();
  EXPECT_TRUE(rs.try_decode(input).value().empty());
}

TEST(ReedSolomon, LargePayloadRoundTrip) {
  const ReedSolomon rs(6, 8);
  const Bytes payload = random_payload(1 << 20, 11);  // 1 MB
  auto shards = rs.encode(payload);
  std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
  input[0].reset();
  input[5].reset();
  EXPECT_EQ(rs.try_decode(input).value(), payload);
}

TEST(ReedSolomon, CodingMatrixIsSystematic) {
  const ReedSolomon rs(4, 7);
  const Matrix& m = rs.coding_matrix();
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(m.at(r, c), r == c ? 1 : 0);
    }
  }
}

TEST(ReedSolomon, RoundTripEveryShapeUpTo16) {
  // Regression across the full (k, n) grid with 1 <= k <= n <= 16:
  // encode, drop n-k shards (worst case), decode, compare.
  for (std::size_t n = 1; n <= 16; ++n) {
    for (std::size_t k = 1; k <= n; ++k) {
      const ReedSolomon rs(k, n);
      const Bytes payload = random_payload(257, n * 100 + k);
      const auto shards = rs.encode(payload);
      ASSERT_EQ(shards.size(), n);
      for (const Bytes& shard : shards) {
        ASSERT_EQ(shard.size(), rs.shard_size(payload.size()));
      }
      std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
      // Drop the first n-k shards — forces the inverted-matrix path
      // whenever parity exists.
      for (std::size_t d = 0; d < n - k; ++d) input[d].reset();
      ASSERT_EQ(rs.try_decode(input).value(), payload)
          << "k=" << k << " n=" << n;
    }
  }
}

TEST(ReedSolomon, EncodeIntoMatchesEncode) {
  const ReedSolomon rs(5, 9);
  const Bytes payload = random_payload(1234, 21);
  const auto expected = rs.encode(payload);

  const std::size_t size = rs.shard_size(payload.size());
  std::vector<Bytes> buffers(9, Bytes(size, 0xcc));  // dirty on purpose
  std::vector<MutBytesView> views(9);
  for (std::size_t i = 0; i < 9; ++i) views[i] = MutBytesView(buffers[i]);
  rs.encode_into(payload, views);
  EXPECT_EQ(buffers, expected);
}

TEST(ReedSolomon, EncodeIntoRejectsWrongBufferShapes) {
  const ReedSolomon rs(2, 4);
  const Bytes payload = random_payload(64, 3);
  const std::size_t size = rs.shard_size(payload.size());

  std::vector<Bytes> buffers(3, Bytes(size));
  std::vector<MutBytesView> views(3);
  for (std::size_t i = 0; i < 3; ++i) views[i] = MutBytesView(buffers[i]);
  EXPECT_THROW(rs.encode_into(payload, views), std::invalid_argument);

  std::vector<Bytes> wrong(4, Bytes(size + 1));
  std::vector<MutBytesView> wrong_views(4);
  for (std::size_t i = 0; i < 4; ++i) wrong_views[i] = MutBytesView(wrong[i]);
  EXPECT_THROW(rs.encode_into(payload, wrong_views), std::invalid_argument);
}

TEST(ReedSolomon, TryDecodeRoundTrips) {
  const ReedSolomon rs(4, 6);
  const Bytes payload = random_payload(500, 31);
  const auto shards = rs.encode(payload);
  std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
  input[1].reset();
  input[3].reset();
  auto result = rs.try_decode(input);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), payload);
}

TEST(ReedSolomon, TryDecodeReportsErrorsWithoutThrowing) {
  const ReedSolomon rs(3, 5);
  const auto shards = rs.encode(random_payload(100, 41));

  {  // Not enough shards.
    std::vector<std::optional<Bytes>> input(5);
    input[0] = shards[0];
    const auto result = rs.try_decode(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, CodecErrorCode::kNotEnoughShards);
  }
  {  // Wrong slot count.
    std::vector<std::optional<Bytes>> input(4);
    const auto result = rs.try_decode(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, CodecErrorCode::kWrongShardCount);
  }
  {  // Mismatched sizes.
    std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
    input[2]->push_back(0);
    const auto result = rs.try_decode(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, CodecErrorCode::kShardSizeMismatch);
  }
  {  // Corrupt length prefix (shard 0 carries it).
    std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
    (*input[0])[0] = 0xff;
    (*input[0])[1] = 0xff;
    (*input[0])[2] = 0xff;
    (*input[0])[3] = 0xff;
    const auto result = rs.try_decode(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, CodecErrorCode::kCorruptPayload);
  }
}

TEST(ReedSolomon, TryDecodeAcceptsViews) {
  const ReedSolomon rs(3, 5);
  const Bytes payload = random_payload(300, 55);
  const auto shards = rs.encode(payload);
  std::vector<std::optional<BytesView>> views(5);
  // Give it exactly k shards, skipping shard 0 (non-systematic path).
  views[1] = BytesView(shards[1]);
  views[2] = BytesView(shards[2]);
  views[4] = BytesView(shards[4]);
  auto result = rs.try_decode(views);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), payload);
}

}  // namespace
}  // namespace predis::erasure
