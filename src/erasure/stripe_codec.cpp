#include "erasure/stripe_codec.hpp"

#include <array>
#include <span>
#include <stdexcept>

namespace predis::erasure {

Bytes StripeCodec::serialize_bundle(const Bundle& bundle) {
  Writer w;
  bundle.header.encode(w);
  w.vec(bundle.txs);
  return std::move(w).take();
}

Bundle StripeCodec::deserialize_bundle(BytesView bytes) {
  Reader r(bytes);
  Bundle b;
  b.header = BundleHeader::decode(r);
  b.txs = r.vec<Transaction>();
  if (!r.done()) {
    throw CodecError("StripeCodec: trailing bytes after bundle");
  }
  return b;
}

void StripeCodec::encode_into(const Bundle& bundle, Encoded& out) const {
  const std::size_t n = rs_.total_shards();

  // Serialize into the reusable payload buffer (Writer adopts and
  // returns it, keeping its capacity).
  Writer w(std::move(out.payload_scratch));
  bundle.header.encode(w);
  w.vec(bundle.txs);
  out.payload_scratch = std::move(w).take();

  // Cut into shards, writing directly into the retained stripe data
  // buffers. resize() keeps existing Bytes elements (and their heap
  // blocks) when the count is unchanged.
  const std::size_t size = rs_.shard_size(out.payload_scratch.size());
  out.stripes.resize(n);
  std::array<MutBytesView, 256> views;  // n <= 256 by construction
  for (std::size_t i = 0; i < n; ++i) {
    out.stripes[i].index = static_cast<std::uint32_t>(i);
    out.stripes[i].data.resize(size);
    views[i] = MutBytesView(out.stripes[i].data);
  }
  rs_.encode_into(out.payload_scratch,
                  std::span<const MutBytesView>(views.data(), n));

  // Merkle tree over the shard hashes — the producer signs its root.
  out.leaf_scratch.clear();
  out.leaf_scratch.reserve(n);
  for (const Stripe& stripe : out.stripes) {
    out.leaf_scratch.push_back(Sha256::hash(stripe.data));
  }
  const MerkleTree tree(out.leaf_scratch);
  out.stripe_root = tree.root();
  for (std::size_t i = 0; i < n; ++i) {
    tree.prove_into(i, out.stripes[i].proof);
  }
}

StripeCodec::Encoded StripeCodec::encode(const Bundle& bundle) const {
  Encoded out;
  encode_into(bundle, out);
  return out;
}

bool StripeCodec::verify(const Stripe& stripe, const Hash32& stripe_root) {
  if (stripe.proof.leaf_index != stripe.index) return false;
  return MerkleTree::verify(stripe_root, Sha256::hash(stripe.data),
                            stripe.proof);
}

Expected<Bundle> StripeCodec::try_decode(
    const std::vector<std::optional<Stripe>>& stripes) const {
  std::vector<std::optional<BytesView>> shards(rs_.total_shards());
  for (const auto& stripe : stripes) {
    if (!stripe.has_value()) continue;
    if (stripe->index >= shards.size()) {
      return CodecFailure{CodecErrorCode::kBadStripeIndex,
                          "StripeCodec::decode: bad stripe index"};
    }
    shards[stripe->index] = BytesView(stripe->data);
  }
  return try_decode(std::span<const std::optional<BytesView>>(shards));
}

Expected<Bundle> StripeCodec::try_decode(
    std::span<const std::optional<BytesView>> shards) const {
  Expected<Bytes> payload = rs_.try_decode(shards);
  if (!payload.ok()) return payload.error();
  try {
    return deserialize_bundle(payload.value());
  } catch (const std::exception& err) {
    // Reader underruns, trailing bytes, any decode-side validation: the
    // stripes reassembled but the payload is not a bundle.
    return CodecFailure{CodecErrorCode::kMalformedBundle, err.what()};
  }
}

}  // namespace predis::erasure
