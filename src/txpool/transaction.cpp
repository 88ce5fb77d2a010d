#include "txpool/transaction.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace predis {

namespace {

// Blocks hashed per kernel call: a 2 KiB stack chunk.
constexpr std::size_t kChunk = 32;

// Bytes of Transaction::encode(): six fixed-width fields.
constexpr std::size_t kEncodedSize = 4 + 8 + 4 + 8 + 8 + 4;
static_assert(kEncodedSize <= 55, "a transaction id must be one block");

template <typename T>
void put_le(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

// The padded SHA-256 block of tx.encode(): the fields in encode()
// order, little-endian, then 0x80, zeros and the bit length (288)
// big-endian in the last eight bytes.
void write_block(const Transaction& tx, std::uint8_t* b) {
  put_le<std::uint32_t>(b + 0, tx.client);
  put_le<std::uint64_t>(b + 4, tx.seq);
  put_le<std::uint32_t>(b + 12, tx.size);
  put_le<std::uint64_t>(b + 16, static_cast<std::uint64_t>(tx.submitted_at));
  put_le<std::uint64_t>(b + 24, tx.payload_seed);
  put_le<std::uint32_t>(b + 32, tx.target_consensus);
  constexpr std::size_t kBits = kEncodedSize * 8;
  b[kEncodedSize] = 0x80;
  std::memset(b + kEncodedSize + 1, 0, 64 - (kEncodedSize + 1));
  b[62] = static_cast<std::uint8_t>(kBits >> 8);
  b[63] = static_cast<std::uint8_t>(kBits);
}

}  // namespace

Hash32 Transaction::id() const {
  Hash32 out;
  tx_ids(this, 1, &out);
  return out;
}

void tx_ids(const Transaction* txs, std::size_t n, Hash32* out) {
  alignas(64) std::uint8_t blocks[kChunk * 64];
  for (std::size_t done = 0; done < n; done += kChunk) {
    const std::size_t m = std::min(kChunk, n - done);
    for (std::size_t i = 0; i < m; ++i) {
      write_block(txs[done + i], blocks + i * 64);
    }
    hash_padded_blocks(blocks, m, out + done);
  }
}

namespace detail {

Hash32* tx_leaf_buffer(std::size_t count) {
  thread_local std::vector<Hash32> leaves;
  if (leaves.size() < count + 1) leaves.resize(count + 1);
  return leaves.data();
}

}  // namespace detail

}  // namespace predis
