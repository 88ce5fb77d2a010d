#include "erasure/reed_solomon.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "common/codec.hpp"

namespace predis::erasure {

namespace {

/// Bridge vector<optional<Bytes>> (owning API) to the span-of-views
/// core without copying shard bytes.
std::vector<std::optional<BytesView>> as_views(
    const std::vector<std::optional<Bytes>>& shards) {
  std::vector<std::optional<BytesView>> views(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].has_value()) views[i] = BytesView(*shards[i]);
  }
  return views;
}

}  // namespace

ReedSolomon::ReedSolomon(std::size_t data_shards, std::size_t total_shards)
    : k_(data_shards), n_(total_shards), coding_(1, 1) {
  if (k_ == 0 || k_ > n_ || n_ > 256) {
    throw std::invalid_argument("ReedSolomon: invalid (k, n)");
  }
  const Matrix vm = Matrix::vandermonde(n_, k_);
  const Matrix top = vm.sub_rows(0, k_);
  coding_ = vm.multiply(top.inverted());
}

void ReedSolomon::encode_into(BytesView payload,
                              std::span<const MutBytesView> shards) const {
  const std::size_t size = shard_size(payload.size());
  if (shards.size() != n_) {
    throw std::invalid_argument("ReedSolomon::encode_into: wrong shard count");
  }
  for (const MutBytesView& shard : shards) {
    if (shard.size() != size) {
      throw std::invalid_argument(
          "ReedSolomon::encode_into: wrong shard size");
    }
  }

  // Write the 4-byte little-endian length prefix, payload, and zero
  // padding straight into the k data shards — no staging buffer.
  const std::array<std::uint8_t, 4> prefix = {
      static_cast<std::uint8_t>(payload.size()),
      static_cast<std::uint8_t>(payload.size() >> 8),
      static_cast<std::uint8_t>(payload.size() >> 16),
      static_cast<std::uint8_t>(payload.size() >> 24),
  };
  const std::uint8_t* src = payload.data();
  std::size_t remaining = payload.size();
  std::size_t prefix_left = prefix.size();
  for (std::size_t i = 0; i < k_; ++i) {
    std::uint8_t* out = shards[i].data();
    std::size_t space = size;
    if (prefix_left > 0) {
      const std::size_t take = prefix_left < space ? prefix_left : space;
      std::memcpy(out, prefix.data() + (prefix.size() - prefix_left), take);
      out += take;
      space -= take;
      prefix_left -= take;
    }
    const std::size_t take = remaining < space ? remaining : space;
    if (take > 0) {
      std::memcpy(out, src, take);
      src += take;
      out += take;
      space -= take;
      remaining -= take;
    }
    if (space > 0) std::memset(out, 0, space);
  }

  // Parity shards = coding rows k..n-1 times the data shards, one
  // fused row-kernel call per (row, data shard) pair.
  for (std::size_t r = k_; r < n_; ++r) {
    std::uint8_t* out = shards[r].data();
    std::memset(out, 0, size);
    const GF* row = coding_.row(r);
    for (std::size_t c = 0; c < k_; ++c) {
      GF256::mul_row_add(out, shards[c].data(), row[c], size);
    }
  }
}

std::vector<Bytes> ReedSolomon::encode(BytesView payload) const {
  const std::size_t size = shard_size(payload.size());
  std::vector<Bytes> shards(n_, Bytes(size));
  std::vector<MutBytesView> views(n_);
  for (std::size_t i = 0; i < n_; ++i) views[i] = MutBytesView(shards[i]);
  encode_into(payload, views);
  return shards;
}

std::optional<CodecFailure> ReedSolomon::select_present(
    std::span<const std::optional<BytesView>> shards,
    std::vector<std::size_t>& present, std::size_t& size) const {
  if (shards.size() != n_) {
    return CodecFailure{CodecErrorCode::kWrongShardCount,
                        "ReedSolomon::decode: wrong shard count"};
  }
  present.clear();
  size = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!shards[i].has_value()) continue;
    if (present.empty()) {
      size = shards[i]->size();
    } else if (shards[i]->size() != size) {
      return CodecFailure{CodecErrorCode::kShardSizeMismatch,
                          "ReedSolomon::decode: shard size mismatch"};
    }
    present.push_back(i);
    if (present.size() == k_) break;
  }
  if (present.size() < k_) {
    return CodecFailure{CodecErrorCode::kNotEnoughShards,
                        "ReedSolomon::decode: not enough shards"};
  }
  return std::nullopt;
}

std::optional<CodecFailure> ReedSolomon::recover_prefixed(
    std::span<const std::optional<BytesView>> shards, Bytes& prefixed) const {
  std::vector<std::size_t> present;
  std::size_t size = 0;
  if (auto failure = select_present(shards, present, size)) return failure;

  prefixed.clear();
  prefixed.resize(size * k_);

  // Fast path: all k data shards available — pure memcpy.
  bool systematic = true;
  for (std::size_t i = 0; i < k_; ++i) {
    if (present[i] != i) {
      systematic = false;
      break;
    }
  }
  if (systematic) {
    for (std::size_t i = 0; i < k_; ++i) {
      std::memcpy(prefixed.data() + i * size, shards[i]->data(), size);
    }
    return std::nullopt;
  }

  Matrix decode_matrix(1, 1);
  try {
    decode_matrix = coding_.select_rows(present).inverted();
  } catch (const std::domain_error& err) {
    return CodecFailure{CodecErrorCode::kSingularMatrix, err.what()};
  }
  for (std::size_t r = 0; r < k_; ++r) {
    std::uint8_t* out = prefixed.data() + r * size;
    const GF* row = decode_matrix.row(r);
    for (std::size_t c = 0; c < k_; ++c) {
      GF256::mul_row_add(out, shards[present[c]]->data(), row[c], size);
    }
  }
  return std::nullopt;
}

Expected<Bytes> ReedSolomon::try_decode(
    std::span<const std::optional<BytesView>> shards) const {
  Bytes prefixed;
  if (auto failure = recover_prefixed(shards, prefixed)) {
    return std::move(*failure);
  }
  if (prefixed.size() < 4) {
    return CodecFailure{CodecErrorCode::kCorruptPayload,
                        "ReedSolomon::decode: truncated prefix"};
  }
  const std::size_t len = static_cast<std::size_t>(prefixed[0]) |
                          (static_cast<std::size_t>(prefixed[1]) << 8) |
                          (static_cast<std::size_t>(prefixed[2]) << 16) |
                          (static_cast<std::size_t>(prefixed[3]) << 24);
  if (4 + len > prefixed.size()) {
    return CodecFailure{CodecErrorCode::kCorruptPayload,
                        "ReedSolomon::decode: corrupt length prefix"};
  }
  // Slide the payload to the front and trim in place — no second buffer.
  std::memmove(prefixed.data(), prefixed.data() + 4, len);
  prefixed.resize(len);
  return prefixed;
}

Expected<Bytes> ReedSolomon::try_decode(
    const std::vector<std::optional<Bytes>>& shards) const {
  return try_decode(as_views(shards));
}

}  // namespace predis::erasure
