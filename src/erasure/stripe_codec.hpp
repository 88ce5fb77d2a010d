// End-to-end stripe codec: the real-bytes path behind Multi-Zone's
// simulated stripe streams.
//
// A bundle is serialized with the deterministic codec, Reed-Solomon
// encoded into n stripes (any k reconstruct), and each stripe ships
// with a Merkle proof against the *stripe root* that the producer
// commits to in the bundle header (the "Merkle Stripe hash" of Fig. 1).
// Receivers verify each stripe against the signed header before
// spending memory on it, decode once k verified stripes are present,
// and obtain the exact original bundle.
//
// Hot-path design: encode_into() reuses an Encoded value as a scratch
// arena — serialized payload, shard buffers, leaf hashes, and proof
// sibling vectors all keep their capacity across bundles, so a steady
// stream of same-sized bundles encodes with zero per-stripe heap
// allocations. encode() is the allocate-fresh wrapper.
#pragma once

#include <optional>

#include "bundle/bundle.hpp"
#include "erasure/reed_solomon.hpp"

namespace predis::erasure {

/// One verifiable stripe of an encoded bundle.
struct Stripe {
  std::uint32_t index = 0;     ///< 0 .. n-1.
  Bytes data;                  ///< RS shard bytes.
  MerkleProof proof;           ///< Inclusion proof against stripe_root.

  /// Bytes on the wire: shard + proof hashes + framing.
  std::size_t wire_size() const {
    return data.size() + proof.siblings.size() * 32 + 16;
  }
};

/// Encoder/decoder for one (k, n) configuration.
class StripeCodec {
 public:
  /// k = n_c − f data shards, n = n_c total stripes.
  StripeCodec(std::size_t data_shards, std::size_t total_shards)
      : rs_(data_shards, total_shards) {}

  /// Result of encode — and, when passed back into encode_into, the
  /// reusable scratch arena for the next bundle.
  struct Encoded {
    std::vector<Stripe> stripes;
    Hash32 stripe_root = kZeroHash;

    // Scratch reused across encode_into calls (exposed only so the
    // arena survives in the caller's Encoded between bundles).
    Bytes payload_scratch;
    std::vector<Hash32> leaf_scratch;
  };

  /// Serialize the bundle (header + transactions) and cut it into n
  /// verifiable stripes. Returns the stripes and the stripe root the
  /// producer must commit to in header.stripe_root before signing.
  Encoded encode(const Bundle& bundle) const;

  /// Same, writing into `out` and reusing every buffer it already
  /// holds. Steady state (same bundle shape) performs no per-stripe
  /// allocations.
  void encode_into(const Bundle& bundle, Encoded& out) const;

  /// Check one stripe against a committed stripe root. Cheap: one
  /// SHA-256 of the shard plus a log(n)-length Merkle walk.
  static bool verify(const Stripe& stripe, const Hash32& stripe_root);

  /// Reconstruct the bundle from >= k verified stripes (missing =
  /// nullopt). Failures — bad indices, too few stripes, corrupt
  /// payload, malformed bundle bytes — come back as a CodecFailure
  /// value instead of an exception.
  [[nodiscard]] Expected<Bundle> try_decode(
      const std::vector<std::optional<Stripe>>& stripes) const;

  /// Span-of-views variant: shard bytes indexed by stripe index (entry
  /// i is stripe i's data or nullopt). No copies of shard bytes.
  [[nodiscard]] Expected<Bundle> try_decode(
      std::span<const std::optional<BytesView>> shards) const;

  std::size_t data_shards() const { return rs_.data_shards(); }
  std::size_t total_shards() const { return rs_.total_shards(); }

  /// Deterministic serialization used by encode/decode (exposed for
  /// tests and alternative transports).
  static Bytes serialize_bundle(const Bundle& bundle);
  static Bundle deserialize_bundle(BytesView bytes);

 private:
  ReedSolomon rs_;
};

}  // namespace predis::erasure
