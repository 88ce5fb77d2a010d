#include "common/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/sha256_kernels.hpp"

// The compression rounds themselves live in sha256_kernels.cpp (and
// the SHA-NI / AVX2 translation units it dispatches to); this file
// keeps the streaming context — buffering, padding, finalization —
// and the one-shot hash(), both kernel-independent.

namespace predis {

namespace {

constexpr std::uint32_t kInitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Big-endian stores as one byte swap plus one move. GCC assembles the
// shift-per-byte spelling of these in registers, which for a one-block
// message cost about half as much again as the compression itself.
void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

// Pads the final partial block (`len` < 64 bytes at `tail`) of a
// message of `bit_length` bits — 0x80, zeros, 64-bit big-endian length —
// on the stack and folds the resulting one or two blocks into `state`
// with a single kernel call.
void compress_tail(sha256_kernels::CompressFn compress, std::uint32_t* state,
                   const std::uint8_t* tail, std::size_t len,
                   std::uint64_t bit_length) {
  const std::size_t blocks = len < 56 ? 1 : 2;
  std::uint8_t block[128];
  if (len > 0) std::memcpy(block, tail, len);
  block[len] = 0x80;
  std::memset(block + len + 1, 0, blocks * 64 - 8 - (len + 1));
  store_be64(block + blocks * 64 - 8, bit_length);
  compress(state, block, blocks);
}

Hash32 store_digest(const std::uint32_t* state) {
  Hash32 out;
  for (std::size_t i = 0; i < 8; ++i) store_be32(out.data() + i * 4, state[i]);
  return out;
}

}  // namespace

Sha256::Sha256() {
  std::copy(kInitialState, kInitialState + 8, state_.begin());
}

void Sha256::update(BytesView data) {
  const sha256_kernels::CompressFn compress = sha256_kernels::compress();
  bit_length_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }

  // Whole blocks go to the kernel in one call so a multi-block run is
  // a single dispatch, not a per-block loop here.
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    compress(state_.data(), data.data() + offset, whole);
    offset += whole * 64;
  }

  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Hash32 Sha256::digest() {
  compress_tail(sha256_kernels::compress(), state_.data(), buffer_.data(),
                buffer_len_, bit_length_);
  return store_digest(state_.data());
}

Hash32 Sha256::hash(BytesView data) {
  // Whole blocks go straight from the input to the kernel; only the
  // padded tail is copied. No streaming context, one dispatch lookup.
  const sha256_kernels::CompressFn compress = sha256_kernels::compress();
  std::uint32_t state[8];
  std::memcpy(state, kInitialState, sizeof(state));
  const std::size_t whole = data.size() / 64;
  if (whole > 0) compress(state, data.data(), whole);
  compress_tail(compress, state, data.data() + whole * 64,
                data.size() - whole * 64,
                static_cast<std::uint64_t>(data.size()) * 8);
  return store_digest(state);
}

Hash32 hash_pair(const Hash32& left, const Hash32& right) {
  std::uint8_t msg[64];
  std::memcpy(msg, left.data(), 32);
  std::memcpy(msg + 32, right.data(), 32);
  Hash32 out;
  sha256_kernels::hash_pairs()(msg, 1, &out);
  return out;
}

void hash_pairs(const Hash32* pairs, std::size_t pair_count, Hash32* out) {
  static_assert(sizeof(Hash32) == 32, "Hash32 must be packed");
  sha256_kernels::hash_pairs()(
      reinterpret_cast<const std::uint8_t*>(pairs), pair_count, out);
}

std::string short_hex(const Hash32& h) {
  return to_hex(BytesView{h.data(), 4});
}

std::string to_hex(const Hash32& h) {
  return to_hex(BytesView{h.data(), h.size()});
}

}  // namespace predis
