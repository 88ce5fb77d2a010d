#include "common/merkle.hpp"

#include <stdexcept>

namespace predis {

namespace {

/// Level width after materializing the Bitcoin-style duplicate (only
/// levels above width 1 are padded; the root level stays single).
constexpr std::size_t padded(std::size_t width) {
  return width > 1 && width % 2 != 0 ? width + 1 : width;
}

}  // namespace

MerkleTree::MerkleTree(std::vector<Hash32> leaves) {
  if (leaves.empty()) {
    throw std::invalid_argument("MerkleTree: empty leaf set");
  }
  leaf_count_ = leaves.size();

  // Size the whole arena up front: one allocation for every level.
  std::size_t total = 0;
  for (std::size_t w = leaf_count_;; w = padded(w) / 2) {
    offset_.push_back(total);
    total += padded(w);
    if (w == 1) break;
  }
  nodes_.resize(total);
  std::copy(leaves.begin(), leaves.end(), nodes_.begin());

  std::size_t w = leaf_count_;
  for (std::size_t level = 0; w > 1; ++level) {
    const std::size_t base = offset_[level];
    if (w % 2 != 0) nodes_[base + w] = nodes_[base + w - 1];
    const std::size_t next_w = padded(w) / 2;
    hash_pairs(&nodes_[base], next_w, &nodes_[offset_[level + 1]]);
    w = next_w;
  }
}

MerkleProof MerkleTree::prove(std::size_t index) const {
  MerkleProof proof;
  prove_into(index, proof);
  return proof;
}

void MerkleTree::prove_into(std::size_t index, MerkleProof& out) const {
  if (index >= leaf_count()) {
    throw std::out_of_range("MerkleTree::prove: index out of range");
  }
  out.leaf_index = index;
  out.siblings.clear();
  std::size_t i = index;
  for (std::size_t level = 0; level + 1 < offset_.size(); ++level) {
    // The duplicate node is materialized, so the sibling slot always
    // exists inside the padded level.
    out.siblings.push_back(nodes_[offset_[level] + (i ^ 1)]);
    i /= 2;
  }
}

Hash32 MerkleTree::root_of(const std::vector<Hash32>& leaves) {
  if (leaves.empty()) {
    throw std::invalid_argument("MerkleTree: empty leaf set");
  }
  if (leaves.size() == 1) return leaves.front();
  thread_local std::vector<Hash32> scratch;
  scratch.resize(padded(leaves.size()));
  std::copy(leaves.begin(), leaves.end(), scratch.begin());
  return root_in_place(scratch.data(), leaves.size());
}

Hash32 MerkleTree::root_in_place(Hash32* nodes, std::size_t count) {
  if (count == 0) {
    throw std::invalid_argument("MerkleTree: empty leaf set");
  }
  // out[i] of the pair batch lands at or before pair i, which
  // hash_pairs() explicitly permits.
  std::size_t w = count;
  while (w > 1) {
    if (w % 2 != 0) nodes[w] = nodes[w - 1];
    const std::size_t next_w = padded(w) / 2;
    hash_pairs(nodes, next_w, nodes);
    w = next_w;
  }
  return nodes[0];
}

bool MerkleTree::verify(const Hash32& root, const Hash32& leaf,
                        const MerkleProof& proof) {
  Hash32 acc = leaf;
  std::size_t i = proof.leaf_index;
  for (const Hash32& sibling : proof.siblings) {
    acc = (i % 2 == 0) ? hash_pair(acc, sibling) : hash_pair(sibling, acc);
    i /= 2;
  }
  return acc == root;
}

}  // namespace predis
