// Portable SHA-256 kernels and the runtime dispatcher. The vector
// kernels live in sha256_sha_ni.cpp / sha256_avx2.cpp (each the only
// TU built with its -m flags); this file owns selection: compiled-in
// check, __builtin_cpu_supports probe, PREDIS_SHA256_FORCE_KERNEL
// override, and the resolved function-pointer tables.
#include "common/sha256_kernels.hpp"

#include <bit>
#include <cstdlib>
#include <cstring>

namespace predis::sha256_kernels {

namespace detail {
#if defined(PREDIS_HAVE_SHA_NI)
bool sha_ni_supported();
void compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks);
void hash_pairs_sha_ni(const std::uint8_t* msgs, std::size_t count,
                       Hash32* out);
void hash_blocks_sha_ni(const std::uint8_t* blocks, std::size_t count,
                        Hash32* out);
#endif
#if defined(PREDIS_HAVE_AVX2)
bool avx2_supported();
void hash_pairs_avx2(const std::uint8_t* msgs, std::size_t count,
                     Hash32* out);
void hash_blocks_avx2(const std::uint8_t* blocks, std::size_t count,
                      Hash32* out);
#endif
}  // namespace detail

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

constexpr std::uint32_t rotr32(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// The constant second block of every 64-byte message: 0x80 terminator,
// zeros, then the 64-bit big-endian bit length (512 = 0x0200).
struct PadBlock {
  std::uint8_t b[64];
  PadBlock() {
    std::memset(b, 0, sizeof(b));
    b[0] = 0x80;
    b[62] = 0x02;
  }
};
const PadBlock kPadBlock;

// Big-endian digest store as one byte swap plus one move (GCC keeps
// the shift-per-byte spelling as separate byte stores).
void store_digest(const std::uint32_t* state, Hash32& out) {
  for (int j = 0; j < 8; ++j) {
    std::uint32_t v = state[j];
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap32(v);
    }
    std::memcpy(out.data() + j * 4, &v, sizeof(v));
  }
}

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  while (blocks-- > 0) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
    data += 64;
  }
}

void hash_pairs_portable(const std::uint8_t* msgs, std::size_t count,
                         Hash32* out) {
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t st[8];
    std::memcpy(st, kInit, sizeof(st));
    compress_portable(st, msgs + i * 64, 1);
    compress_portable(st, kPadBlock.b, 1);
    store_digest(st, out[i]);
  }
}

void hash_blocks_portable(const std::uint8_t* blocks, std::size_t count,
                          Hash32* out) {
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t st[8];
    std::memcpy(st, kInit, sizeof(st));
    compress_portable(st, blocks + i * 64, 1);
    store_digest(st, out[i]);
  }
}

}  // namespace detail

namespace {

struct KernelFns {
  CompressFn compress;
  PairBatchFn hash_pairs;
  BlockBatchFn hash_blocks;
};

KernelFns fns_for(Kernel k) {
  switch (k) {
#if defined(PREDIS_HAVE_SHA_NI)
    case Kernel::kShaNi:
      if (detail::sha_ni_supported()) {
        return {&detail::compress_sha_ni, &detail::hash_pairs_sha_ni,
                &detail::hash_blocks_sha_ni};
      }
      break;
#endif
#if defined(PREDIS_HAVE_AVX2)
    case Kernel::kAvx2:
      // No single-stream AVX2 kernel: multi-buffer parallelism needs
      // independent messages, so compress() stays portable here.
      if (detail::avx2_supported()) {
        return {&detail::compress_portable, &detail::hash_pairs_avx2,
                &detail::hash_blocks_avx2};
      }
      break;
#endif
    default:
      break;
  }
  return {&detail::compress_portable, &detail::hash_pairs_portable,
          &detail::hash_blocks_portable};
}

Kernel parse_name(const char* s) {
  if (std::strcmp(s, "sha_ni") == 0) return Kernel::kShaNi;
  if (std::strcmp(s, "avx2") == 0) return Kernel::kAvx2;
  return Kernel::kPortable;
}

Kernel resolve_default() {
  if (const char* env = std::getenv("PREDIS_SHA256_FORCE_KERNEL")) {
    const Kernel forced = parse_name(env);
    return available(forced) ? forced : Kernel::kPortable;
  }
  if (available(Kernel::kShaNi)) return Kernel::kShaNi;
  if (available(Kernel::kAvx2)) return Kernel::kAvx2;
  return Kernel::kPortable;
}

struct Dispatch {
  Kernel kernel;
  KernelFns fns;
  Dispatch() : kernel(resolve_default()), fns(fns_for(kernel)) {}
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

}  // namespace

const char* name(Kernel k) {
  switch (k) {
    case Kernel::kShaNi:
      return "sha_ni";
    case Kernel::kAvx2:
      return "avx2";
    default:
      return "portable";
  }
}

bool available(Kernel k) {
  switch (k) {
    case Kernel::kPortable:
      return true;
    case Kernel::kShaNi:
#if defined(PREDIS_HAVE_SHA_NI)
      return detail::sha_ni_supported();
#else
      return false;
#endif
    case Kernel::kAvx2:
#if defined(PREDIS_HAVE_AVX2)
      return detail::avx2_supported();
#else
      return false;
#endif
  }
  return false;
}

Kernel active() { return dispatch().kernel; }

bool force(Kernel k) {
  if (!available(k)) return false;
  Dispatch& d = dispatch();
  d.kernel = k;
  d.fns = fns_for(k);
  return true;
}

CompressFn compress() { return dispatch().fns.compress; }
PairBatchFn hash_pairs() { return dispatch().fns.hash_pairs; }
BlockBatchFn hash_blocks() { return dispatch().fns.hash_blocks; }

CompressFn compress(Kernel k) { return fns_for(k).compress; }
PairBatchFn hash_pairs(Kernel k) { return fns_for(k).hash_pairs; }
BlockBatchFn hash_blocks(Kernel k) { return fns_for(k).hash_blocks; }

}  // namespace predis::sha256_kernels
