// SHA-NI SHA-256 kernel: the only translation unit compiled with
// -msha -msse4.1 (see src/common/CMakeLists.txt), selected at runtime
// via __builtin_cpu_supports. The x86 SHA extensions evaluate four
// rounds per sha256rnds2 pair and fold the message schedule into
// sha256msg1/sha256msg2, which is where the single-stream speedup
// comes from.
//
// Register layout follows the standard packing for these
// instructions: the eight state words live in two xmm registers as
// ABEF / CDGH, converted from and back to the linear ABCD EFGH layout
// at entry and exit.
//
// One 64-round block body serves both shapes. compress() runs it on
// one stream. The batch entries (Merkle pairs, transaction-id leaves)
// run it on two independent messages at once with their instructions
// interleaved: each stream's rounds form one long dependency chain
// through sha256rnds2, so a second chain fills the SHA unit's idle
// issue slots.
#if defined(PREDIS_HAVE_SHA_NI)

#include <immintrin.h>

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/sha256.hpp"

#define PREDIS_SHA_INLINE inline __attribute__((always_inline))

// Put before each loop over the streams s = 0..N-1 (N <= 2): full
// unrolling keeps every per-stream array below in registers.
#define PREDIS_UNROLL_STREAMS _Pragma("GCC unroll 2")

namespace predis::sha256_kernels::detail {

namespace {

alignas(16) constexpr std::uint32_t kRound[64] = {
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

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t rotr32(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// W[i] + K[i] for the constant second block of every 64-byte message
// (0x80 terminator, zeros, bit length 512). Its schedule never changes,
// so the pair batch runs that block as bare sha256rnds2 pairs.
constexpr std::array<std::uint32_t, 64> pad_block_wk() {
  std::array<std::uint32_t, 64> w{};
  w[0] = 0x80000000u;
  w[15] = 512;
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  for (int i = 0; i < 64; ++i) w[i] += kRound[i];
  return w;
}
alignas(16) constexpr std::array<std::uint32_t, 64> kPadWk = pad_block_wk();

PREDIS_SHA_INLINE __m128i load4(const std::uint32_t* p) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
}

// Byte order swap within each 32-bit word: big-endian word loads and
// digest stores.
PREDIS_SHA_INLINE __m128i bswap_words() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
}

// Linear state words (ABCD EFGH) to the ABEF / CDGH register pair.
PREDIS_SHA_INLINE void load_state(const std::uint32_t* state, __m128i& abef,
                                  __m128i& cdgh) {
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i efgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);    // CDAB
  efgh = _mm_shuffle_epi32(efgh, 0x1B);  // EFGH
  abef = _mm_alignr_epi8(tmp, efgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(efgh, tmp, 0xF0);  // CDGH
}

// The register pair back to linear order: lo = ABCD, hi = EFGH.
PREDIS_SHA_INLINE void linear_state(__m128i abef, __m128i cdgh, __m128i& lo,
                                    __m128i& hi) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  lo = _mm_blend_epi16(feba, dchg, 0xF0);  // DCBA
  hi = _mm_alignr_epi8(dchg, feba, 8);     // HGFE
}

// The finished state as the 32 big-endian digest bytes.
PREDIS_SHA_INLINE void store_digest(__m128i abef, __m128i cdgh, Hash32& out) {
  __m128i lo, hi;
  linear_state(abef, cdgh, lo, hi);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()),
                   _mm_shuffle_epi8(lo, bswap_words()));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + 16),
                   _mm_shuffle_epi8(hi, bswap_words()));
}

// Four rounds on the W+K words in `wk`.
PREDIS_SHA_INLINE void rounds4(__m128i& abef, __m128i& cdgh, __m128i wk) {
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Four rounds on W[i..i+3] (in mc) with schedule expansion: mn gains
// its msg2 fold toward W[i+4..i+7] from mc and mp (W[i-4..i-1]), and,
// when `fold`, mp starts its own msg1 fold for the round after next.
template <int N>
PREDIS_SHA_INLINE void schedule_rounds4(__m128i (&abef)[N], __m128i (&cdgh)[N],
                                        __m128i (&mc)[N], __m128i (&mn)[N],
                                        __m128i (&mp)[N], int i, bool fold) {
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    const __m128i wk = _mm_add_epi32(mc[s], load4(&kRound[i]));
    cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], wk);
    mn[s] = _mm_add_epi32(mn[s], _mm_alignr_epi8(mc[s], mp[s], 4));
    mn[s] = _mm_sha256msg2_epu32(mn[s], mc[s]);
    abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s],
                                    _mm_shuffle_epi32(wk, 0x0E));
    if (fold) mp[s] = _mm_sha256msg1_epu32(mp[s], mc[s]);
  }
}

// One 64-round compression, with feed-forward, of the 64-byte block
// data[s] into stream s's register pair, for N independent streams.
template <int N>
PREDIS_SHA_INLINE void compress_block(__m128i (&abef)[N], __m128i (&cdgh)[N],
                                      const std::uint8_t* const (&data)[N]) {
  __m128i abef_save[N], cdgh_save[N];
  __m128i m0[N], m1[N], m2[N], m3[N];
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    abef_save[s] = abef[s];
    cdgh_save[s] = cdgh[s];
    const auto* p = reinterpret_cast<const __m128i*>(data[s]);
    m0[s] = _mm_shuffle_epi8(_mm_loadu_si128(p + 0), bswap_words());
    m1[s] = _mm_shuffle_epi8(_mm_loadu_si128(p + 1), bswap_words());
    m2[s] = _mm_shuffle_epi8(_mm_loadu_si128(p + 2), bswap_words());
    m3[s] = _mm_shuffle_epi8(_mm_loadu_si128(p + 3), bswap_words());
  }

  // Rounds 0-11: schedule words come straight from the message; msg1
  // folding starts as soon as two words exist.
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    rounds4(abef[s], cdgh[s], _mm_add_epi32(m0[s], load4(&kRound[0])));
  }
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    rounds4(abef[s], cdgh[s], _mm_add_epi32(m1[s], load4(&kRound[4])));
    m0[s] = _mm_sha256msg1_epu32(m0[s], m1[s]);
  }
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    rounds4(abef[s], cdgh[s], _mm_add_epi32(m2[s], load4(&kRound[8])));
    m1[s] = _mm_sha256msg1_epu32(m1[s], m2[s]);
  }

  schedule_rounds4<N>(abef, cdgh, m3, m0, m2, 12, true);
  schedule_rounds4<N>(abef, cdgh, m0, m1, m3, 16, true);
  schedule_rounds4<N>(abef, cdgh, m1, m2, m0, 20, true);
  schedule_rounds4<N>(abef, cdgh, m2, m3, m1, 24, true);
  schedule_rounds4<N>(abef, cdgh, m3, m0, m2, 28, true);
  schedule_rounds4<N>(abef, cdgh, m0, m1, m3, 32, true);
  schedule_rounds4<N>(abef, cdgh, m1, m2, m0, 36, true);
  schedule_rounds4<N>(abef, cdgh, m2, m3, m1, 40, true);
  schedule_rounds4<N>(abef, cdgh, m3, m0, m2, 44, true);
  // Round 48 still folds msg1 (m3's partials feed W60-63 at round 56);
  // only the last two expansions have no downstream consumer.
  schedule_rounds4<N>(abef, cdgh, m0, m1, m3, 48, true);
  schedule_rounds4<N>(abef, cdgh, m1, m2, m0, 52, false);
  schedule_rounds4<N>(abef, cdgh, m2, m3, m1, 56, false);

  // Rounds 60-63: schedule complete.
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    rounds4(abef[s], cdgh[s], _mm_add_epi32(m3[s], load4(&kRound[60])));
    abef[s] = _mm_add_epi32(abef[s], abef_save[s]);
    cdgh[s] = _mm_add_epi32(cdgh[s], cdgh_save[s]);
  }
}

// The constant padding block of a 64-byte message, for N streams.
template <int N>
PREDIS_SHA_INLINE void compress_pad_block(__m128i (&abef)[N],
                                          __m128i (&cdgh)[N]) {
  __m128i abef_save[N], cdgh_save[N];
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    abef_save[s] = abef[s];
    cdgh_save[s] = cdgh[s];
  }
  for (int i = 0; i < 64; i += 4) {
    const __m128i wk = load4(&kPadWk[i]);
    PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
      rounds4(abef[s], cdgh[s], wk);
    }
  }
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    abef[s] = _mm_add_epi32(abef[s], abef_save[s]);
    cdgh[s] = _mm_add_epi32(cdgh[s], cdgh_save[s]);
  }
}

// SHA-256 of N independent messages whose 64-byte blocks sit back to
// back at `msgs`: each block is a whole padded message, or, with
// kPadBlock, a 64-byte message followed by the constant pad block.
template <int N, bool kPadBlock>
PREDIS_SHA_INLINE void hash_streams(const std::uint8_t* msgs, Hash32* out) {
  __m128i abef[N], cdgh[N];
  const std::uint8_t* data[N];
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    load_state(kInit, abef[s], cdgh[s]);
    data[s] = msgs + 64 * static_cast<std::size_t>(s);
  }
  compress_block<N>(abef, cdgh, data);
  if constexpr (kPadBlock) compress_pad_block<N>(abef, cdgh);
  PREDIS_UNROLL_STREAMS for (int s = 0; s < N; ++s) {
    store_digest(abef[s], cdgh[s], out[s]);
  }
}

// The messages two at a time; an odd last one runs alone. Both
// messages of a step are read before either digest is written, so
// `out` may alias the front of `msgs`.
template <bool kPadBlock>
void hash_batch(const std::uint8_t* msgs, std::size_t count, Hash32* out) {
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    hash_streams<2, kPadBlock>(msgs + i * 64, out + i);
  }
  if (i < count) hash_streams<1, kPadBlock>(msgs + i * 64, out + i);
}

}  // namespace

bool sha_ni_supported() {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

void compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) {
  __m128i abef[1], cdgh[1];
  load_state(state, abef[0], cdgh[0]);
  for (; blocks > 0; --blocks, data += 64) {
    const std::uint8_t* block[1] = {data};
    compress_block<1>(abef, cdgh, block);
  }
  __m128i lo, hi;
  linear_state(abef[0], cdgh[0], lo, hi);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), lo);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hi);
}

void hash_pairs_sha_ni(const std::uint8_t* msgs, std::size_t count,
                       Hash32* out) {
  hash_batch<true>(msgs, count, out);
}

void hash_blocks_sha_ni(const std::uint8_t* blocks, std::size_t count,
                        Hash32* out) {
  hash_batch<false>(blocks, count, out);
}

}  // namespace predis::sha256_kernels::detail

#undef PREDIS_UNROLL_STREAMS
#undef PREDIS_SHA_INLINE

#endif  // PREDIS_HAVE_SHA_NI
