#include "bundle/bundle.hpp"

namespace predis {

void BundleHeader::encode_signed(Writer& w) const {
  w.u32(producer);
  w.u64(height);
  w.hash(parent_hash);
  w.vec_u64(tip_list);
  w.hash(tx_root);
  w.hash(stripe_root);
}

Bytes BundleHeader::signing_bytes() const {
  Writer w;
  encode_signed(w);
  return std::move(w).take();
}

Hash32 BundleHeader::hash() const {
  return with_encoding([this](Writer& w) { encode_signed(w); },
                       &Sha256::hash);
}

void BundleHeader::encode(Writer& w) const {
  encode_signed(w);
  w.raw(BytesView{signature.data(), signature.size()});
}

BundleHeader BundleHeader::decode(Reader& r) {
  BundleHeader h;
  h.producer = r.u32();
  h.height = r.u64();
  h.parent_hash = r.hash();
  h.tip_list = r.vec_u64();
  h.tx_root = r.hash();
  h.stripe_root = r.hash();
  for (auto& byte : h.signature) byte = r.u8();
  return h;
}

Hash32 Bundle::tx_root_of(const std::vector<Transaction>& txs) {
  return tx_merkle_root(txs);
}

Bundle make_bundle(NodeId producer, BundleHeight height,
                   const Hash32& parent_hash,
                   std::vector<BundleHeight> tip_list,
                   std::vector<Transaction> txs, const KeyPair& key) {
  Bundle b;
  b.header.producer = producer;
  b.header.height = height;
  b.header.parent_hash = parent_hash;
  b.header.tip_list = std::move(tip_list);
  b.header.tx_root = Bundle::tx_root_of(txs);
  b.txs = std::move(txs);
  b.header.signature = with_encoding(
      [&b](Writer& w) { b.header.encode_signed(w); },
      [&key](BytesView m) { return key.sign(m); });
  return b;
}

bool verify_bundle_signature(const BundleHeader& header,
                             const PublicKey& producer_key) {
  return with_encoding(
      [&header](Writer& w) { header.encode_signed(w); },
      [&](BytesView m) { return verify(producer_key, m, header.signature); });
}

std::size_t verify_bundle_signatures(const std::vector<HeaderSigCheck>& checks,
                                     bool* ok) {
  // Every header's signed portion goes back to back into one scratch
  // buffer; the message views are cut only once it has stopped growing.
  std::vector<std::size_t> ends;
  ends.reserve(checks.size());
  return with_encoding(
      [&](Writer& w) {
        for (const HeaderSigCheck& c : checks) {
          c.header->encode_signed(w);
          ends.push_back(w.size());
        }
      },
      [&](BytesView all) {
        std::vector<SigCheck> items;
        items.reserve(checks.size());
        std::size_t begin = 0;
        for (std::size_t i = 0; i < checks.size(); ++i) {
          items.push_back({checks[i].key, all.subspan(begin, ends[i] - begin),
                           &checks[i].header->signature});
          begin = ends[i];
        }
        return verify_batch(items.data(), items.size(), ok);
      });
}

}  // namespace predis
