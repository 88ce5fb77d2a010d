// Runtime-dispatched SHA-256 compression kernels.
//
// Mirrors the GF(2^8) SSSE3 seam in src/erasure: each vector kernel
// lives in its own translation unit compiled with only that kernel's
// -m flags (so no other code can emit those instructions), CMake gates
// each TU behind a compiler check + option, and the dispatcher picks
// the best kernel the CPU reports at runtime. Every kernel is
// bit-exact with the portable one — tests enforce this, and CI runs
// the hash/Merkle test labels once per forced kernel.
//
// Three kernels:
//  * portable — the from-scratch FIPS 180-4 rounds (always built);
//  * sha_ni   — SHA-NI (x86 SHA extensions), ~5-10x: one stream for
//               compress(), two independent messages with their
//               instructions interleaved for the batch entries;
//  * avx2     — 8-way multi-buffer for the batch entries (Merkle inner
//               levels, transaction-id leaves); single-stream calls
//               fall back to portable under this kernel.
//
// Selection: best available (sha_ni > avx2 > portable), overridable
// with the PREDIS_SHA256_FORCE_KERNEL environment variable
// ("portable" | "sha_ni" | "avx2"; unavailable names fall back to
// portable so forced CI legs pass on any machine) or force() below.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/sha256.hpp"

namespace predis::sha256_kernels {

enum class Kernel { kPortable = 0, kShaNi = 1, kAvx2 = 2 };

/// Single-stream compression: folds `blocks` consecutive 64-byte
/// message blocks into `state` (8 words, host order).
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

/// Batch hash of independent 64-byte messages: out[i] = SHA-256 of the
/// 64 bytes at msgs + 64*i. This is the Merkle inner-node shape (two
/// concatenated digests), where the multi-buffer kernel earns its keep.
/// `out` may alias the front of `msgs` (out[i] is written only after
/// message i is read), which is what the in-place level-halving Merkle
/// builder relies on.
using PairBatchFn = void (*)(const std::uint8_t* msgs, std::size_t count,
                             Hash32* out);

/// Batch hash of independent one-block messages: out[i] = SHA-256 of
/// the message of at most 55 bytes whose already padded 64-byte block
/// (message, 0x80, zeros, 64-bit big-endian bit length) sits at
/// blocks + 64*i. This is the transaction-id leaf shape: the caller
/// writes the fixed encoding straight into padded blocks and a whole
/// bundle's or block's leaves cost one call.
using BlockBatchFn = void (*)(const std::uint8_t* blocks, std::size_t count,
                              Hash32* out);

/// Human-readable kernel name ("portable", "sha_ni", "avx2").
const char* name(Kernel k);

/// Whether `k` was compiled in AND the CPU supports it at runtime.
bool available(Kernel k);

/// The kernel current dispatch resolves to. Resolved once on first
/// use (environment override, then best available).
Kernel active();

/// Force a kernel (tests / benches). Returns false and leaves the
/// active kernel unchanged when `k` is unavailable.
bool force(Kernel k);

/// Resolved entry points for the active kernel.
CompressFn compress();
PairBatchFn hash_pairs();
BlockBatchFn hash_blocks();

/// Entry points for an explicit kernel — cross-kernel bit-exactness
/// tests and benchmark sweeps. Unavailable kernels resolve to the
/// portable functions.
CompressFn compress(Kernel k);
PairBatchFn hash_pairs(Kernel k);
BlockBatchFn hash_blocks(Kernel k);

namespace detail {
/// The portable kernels, always present (remainder path for the
/// multi-buffer kernel, fallback for everything else).
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks);
void hash_pairs_portable(const std::uint8_t* msgs, std::size_t count,
                         Hash32* out);
void hash_blocks_portable(const std::uint8_t* blocks, std::size_t count,
                          Hash32* out);
}  // namespace detail

}  // namespace predis::sha256_kernels
