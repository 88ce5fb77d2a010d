// From-scratch SHA-256 (FIPS 180-4). Used as the collision-resistant hash
// D of the paper (§III-C): bundle hashes, Merkle trees, block hashes and
// the simulated signature scheme are all built on it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"

namespace predis {

/// 32-byte digest.
using Hash32 = std::array<std::uint8_t, 32>;

/// Hasher for unordered containers keyed by a digest: a digest's bytes
/// are already uniform, so its first word is the bucket hash.
struct Hash32Hasher {
  std::size_t operator()(const Hash32& h) const {
    std::size_t v = 0;
    static_assert(sizeof(v) <= sizeof(Hash32));
    std::memcpy(&v, h.data(), sizeof(v));
    return v;
  }
};

/// Incremental SHA-256 context. Feed data with update(), finish with
/// digest(). A context can hash arbitrarily large inputs in chunks.
class Sha256 {
 public:
  Sha256();

  /// Absorb more input.
  void update(BytesView data);

  /// Finalize and return the digest. The context must not be reused
  /// afterwards (construct a fresh one instead).
  Hash32 digest();

  /// One-shot hash, no streaming context: whole blocks go straight to
  /// the kernel and the padded tail is built on the stack, so an input
  /// under 56 bytes costs a single compression call.
  static Hash32 hash(BytesView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t bit_length_ = 0;
  std::size_t buffer_len_ = 0;
};

/// Hash the concatenation of two digests — the Merkle-tree inner-node rule.
Hash32 hash_pair(const Hash32& left, const Hash32& right);

/// Batched inner-node rule: out[i] = SHA-256(pairs[2i] || pairs[2i+1]).
/// `pairs` holds 2*pair_count contiguous digests. Routed through the
/// multi-buffer kernel when one is active (see sha256_kernels.hpp), so
/// hashing a whole Merkle level costs far less than pair_count calls
/// to hash_pair. `out` may alias the front of `pairs` (out[i] is
/// written only after pair i is read) — the in-place level halving the
/// Merkle builder uses.
void hash_pairs(const Hash32* pairs, std::size_t pair_count, Hash32* out);

/// Batched one-block hashing: out[i] = SHA-256 of the message of at
/// most 55 bytes whose padded 64-byte block (message, 0x80, zeros,
/// 64-bit big-endian bit length) the caller wrote at blocks + 64*i.
/// One kernel call for the whole batch, which the SHA-NI kernel runs
/// two messages at a time and the AVX2 kernel eight at a time — the
/// transaction-id leaf path (tx_ids in txpool/transaction.hpp).
void hash_padded_blocks(const std::uint8_t* blocks, std::size_t count,
                        Hash32* out);

/// All-zero digest, used as "null hash" (genesis parents etc.).
inline constexpr Hash32 kZeroHash{};

/// Short printable prefix of a hash for logs ("a1b2c3d4").
std::string short_hex(const Hash32& h);

/// Full hex of a hash.
std::string to_hex(const Hash32& h);

}  // namespace predis
