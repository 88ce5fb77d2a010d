// Systematic Reed-Solomon erasure coding over GF(2^8).
//
// Multi-Zone encodes every bundle into n_c stripes such that any
// n_c − f of them reconstruct the bundle (§IV-D of the paper). This
// module provides exactly that: a (k = data shards, n = total shards)
// code where the first k output shards are the data itself (systematic)
// and the remaining n − k are parity.
//
// Construction follows the Backblaze JavaReedSolomon approach the paper
// used: take an n × k Vandermonde matrix, normalize its top k × k block
// to the identity (multiplying by the block's inverse preserves the
// any-k-rows-invertible property), and use the result as the coding
// matrix.
//
// The byte path streams coding-matrix rows over contiguous shard
// buffers with GF256::mul_row_add — one kernel call per (row, shard)
// pair instead of one table lookup per byte. encode_into/try_decode
// form the allocation-free, non-throwing core; encode is a convenience
// wrapper that allocates the shards.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "erasure/codec_result.hpp"
#include "erasure/gf256.hpp"

namespace predis::erasure {

class ReedSolomon {
 public:
  /// k data shards, n total shards; requires 0 < k <= n <= 256.
  ReedSolomon(std::size_t data_shards, std::size_t total_shards);

  std::size_t data_shards() const { return k_; }
  std::size_t total_shards() const { return n_; }

  /// Size of each shard for a payload of `payload_size` bytes:
  /// ceil((4 + payload_size) / k) — 4-byte length prefix included.
  std::size_t shard_size(std::size_t payload_size) const {
    return (4 + payload_size + k_ - 1) / k_;
  }

  /// Split `payload` into n shards (each of equal size). The payload is
  /// length-prefixed and zero-padded so decode can recover the exact
  /// original bytes. Shard size is ceil((4 + |payload|) / k).
  std::vector<Bytes> encode(BytesView payload) const;

  /// Zero-copy encode: write the n shards into caller-provided buffers.
  /// Each of the n views must be exactly shard_size(payload.size())
  /// bytes; throws std::invalid_argument otherwise. The prefix+payload
  /// bytes land directly in the first k buffers (no staging copy) and
  /// parity is accumulated into the rest via the row kernels.
  void encode_into(BytesView payload,
                   std::span<const MutBytesView> shards) const;

  /// Reconstruct the payload from any subset of >= k shards (missing
  /// shards are nullopt). All present shards must have equal size.
  /// Fewer than k shards, inconsistent sizes, a singular decode matrix
  /// or a malformed recovered prefix (e.g. corrupted shards) come back
  /// as a CodecFailure value.
  [[nodiscard]] Expected<Bytes> try_decode(
      std::span<const std::optional<BytesView>> shards) const;
  [[nodiscard]] Expected<Bytes> try_decode(
      const std::vector<std::optional<Bytes>>& shards) const;

  const Matrix& coding_matrix() const { return coding_; }

 private:
  /// Pick the first k present shards, validating count and sizes.
  /// On success fills `present` (k indices) and `size` (common size).
  std::optional<CodecFailure> select_present(
      std::span<const std::optional<BytesView>> shards,
      std::vector<std::size_t>& present, std::size_t& size) const;

  /// Recover the concatenated k data shards (prefix + payload + pad)
  /// into `prefixed`, which is resized to k * shard size.
  std::optional<CodecFailure> recover_prefixed(
      std::span<const std::optional<BytesView>> shards,
      Bytes& prefixed) const;

  std::size_t k_;
  std::size_t n_;
  Matrix coding_;  // n x k, top k x k == identity
};

}  // namespace predis::erasure
