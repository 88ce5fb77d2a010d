// AVX2 multi-buffer SHA-256 kernel: the only translation unit
// compiled with -mavx2 (see src/common/CMakeLists.txt). Unlike
// SHA-NI, AVX2 has no hash instructions — the win is width: eight
// independent 64-byte messages ride the eight 32-bit lanes of a ymm
// register through the same scalar round formulas, one message per
// lane. That is exactly the shape of the batch entries (a Merkle
// level's digest pairs, a bundle's transaction-id leaves), so only
// those exist here; single-stream hashing under a forced avx2 kernel
// stays portable.
#if defined(PREDIS_HAVE_AVX2)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/sha256.hpp"

namespace predis::sha256_kernels::detail {

void hash_pairs_portable(const std::uint8_t* msgs, std::size_t count,
                         Hash32* out);
void hash_blocks_portable(const std::uint8_t* blocks, std::size_t count,
                          Hash32* out);

namespace {

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline __m256i rotr(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n),
                         _mm256_slli_epi32(x, 32 - n));
}

// Big-endian word load / store as one move plus one byte swap.
inline std::uint32_t bswap_be(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline int be32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return static_cast<int>(bswap_be(v));
}

/// One 64-round compression over eight lanes. `w` holds the first 16
/// schedule words per lane and is expanded in place as a ring buffer;
/// `s` is the running state, updated with the feed-forward add.
void rounds8(__m256i s[8], __m256i w[16]) {
  __m256i a = s[0], b = s[1], c = s[2], d = s[3];
  __m256i e = s[4], f = s[5], g = s[6], h = s[7];

  for (int i = 0; i < 64; ++i) {
    const int j = i & 15;
    if (i >= 16) {
      const __m256i w15 = w[(j + 1) & 15];
      const __m256i w2 = w[(j + 14) & 15];
      const __m256i s0 = _mm256_xor_si256(
          _mm256_xor_si256(rotr(w15, 7), rotr(w15, 18)),
          _mm256_srli_epi32(w15, 3));
      const __m256i s1 = _mm256_xor_si256(
          _mm256_xor_si256(rotr(w2, 17), rotr(w2, 19)),
          _mm256_srli_epi32(w2, 10));
      w[j] = _mm256_add_epi32(
          _mm256_add_epi32(w[j], s0),
          _mm256_add_epi32(w[(j + 9) & 15], s1));
    }
    const __m256i big_s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr(e, 6), rotr(e, 11)), rotr(e, 25));
    const __m256i ch = _mm256_xor_si256(_mm256_and_si256(e, f),
                                        _mm256_andnot_si256(e, g));
    const __m256i t1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, big_s1), ch),
        _mm256_add_epi32(_mm256_set1_epi32(
                             static_cast<int>(kRound[i])),
                         w[j]));
    const __m256i big_s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr(a, 2), rotr(a, 13)), rotr(a, 22));
    // maj(a,b,c) == (a & b) | (c & (a | b))
    const __m256i maj = _mm256_or_si256(
        _mm256_and_si256(a, b),
        _mm256_and_si256(c, _mm256_or_si256(a, b)));
    const __m256i t2 = _mm256_add_epi32(big_s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(t1, t2);
  }

  s[0] = _mm256_add_epi32(s[0], a);
  s[1] = _mm256_add_epi32(s[1], b);
  s[2] = _mm256_add_epi32(s[2], c);
  s[3] = _mm256_add_epi32(s[3], d);
  s[4] = _mm256_add_epi32(s[4], e);
  s[5] = _mm256_add_epi32(s[5], f);
  s[6] = _mm256_add_epi32(s[6], g);
  s[7] = _mm256_add_epi32(s[7], h);
}

// SHA-256 of the eight one-block messages at base + 64*l, followed by
// the constant pad block of a 64-byte message when `pad_block`.
void hash8(const std::uint8_t* base, bool pad_block, Hash32* out) {
  __m256i s[8];
  for (int j = 0; j < 8; ++j) {
    s[j] = _mm256_set1_epi32(static_cast<int>(kInit[j]));
  }

  // Transpose: word t of messages 0..7 into the lanes of w[t].
  __m256i w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = _mm256_set_epi32(be32(base + 7 * 64 + 4 * t),
                            be32(base + 6 * 64 + 4 * t),
                            be32(base + 5 * 64 + 4 * t),
                            be32(base + 4 * 64 + 4 * t),
                            be32(base + 3 * 64 + 4 * t),
                            be32(base + 2 * 64 + 4 * t),
                            be32(base + 1 * 64 + 4 * t),
                            be32(base + 0 * 64 + 4 * t));
  }
  rounds8(s, w);

  if (pad_block) {
    // Second block: the padding constants, identical in every lane
    // (0x80 terminator then bit length 512).
    w[0] = _mm256_set1_epi32(static_cast<int>(0x80000000u));
    for (int t = 1; t < 15; ++t) w[t] = _mm256_setzero_si256();
    w[15] = _mm256_set1_epi32(512);
    rounds8(s, w);
  }

  // Lane l of s[j] is word j of digest l; write big-endian. These
  // stores happen only after all eight messages were read, so `out`
  // aliasing the front of the messages (the in-place Merkle halving)
  // is safe.
  alignas(32) std::uint32_t lanes[8][8];
  for (int j = 0; j < 8; ++j) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[j]), s[j]);
  }
  for (int l = 0; l < 8; ++l) {
    for (int j = 0; j < 8; ++j) {
      const std::uint32_t v = bswap_be(lanes[j][l]);
      std::memcpy(out[l].data() + j * 4, &v, sizeof(v));
    }
  }
}

}  // namespace

bool avx2_supported() { return __builtin_cpu_supports("avx2"); }

void hash_pairs_avx2(const std::uint8_t* msgs, std::size_t count,
                     Hash32* out) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) hash8(msgs + i * 64, true, out + i);
  if (i < count) hash_pairs_portable(msgs + i * 64, count - i, out + i);
}

void hash_blocks_avx2(const std::uint8_t* blocks, std::size_t count,
                      Hash32* out) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) hash8(blocks + i * 64, false, out + i);
  if (i < count) hash_blocks_portable(blocks + i * 64, count - i, out + i);
}

}  // namespace predis::sha256_kernels::detail

#endif  // PREDIS_HAVE_AVX2
