#include "bundle/mempool.hpp"

#include <algorithm>
#include <stdexcept>

namespace predis {

const char* to_string(AddBundleResult r) {
  switch (r) {
    case AddBundleResult::kAdded:
      return "added";
    case AddBundleResult::kDuplicate:
      return "duplicate";
    case AddBundleResult::kMissingParent:
      return "missing-parent";
    case AddBundleResult::kConflict:
      return "conflict";
    case AddBundleResult::kBannedProducer:
      return "banned-producer";
    case AddBundleResult::kStaleTips:
      return "stale-tips";
    case AddBundleResult::kBadSignature:
      return "bad-signature";
    case AddBundleResult::kBadTxRoot:
      return "bad-tx-root";
    case AddBundleResult::kInvalid:
      return "invalid";
  }
  return "?";
}

const Bundle* BundleChain::get(BundleHeight h) const {
  const auto it = bundles_.find(h);
  return it == bundles_.end() ? nullptr : &it->second;
}

const Bundle* BundleChain::latest() const { return get(contiguous_); }

void BundleChain::insert(Bundle b) {
  const BundleHeight h = b.header.height;
  bundles_.emplace(h, std::move(b));
  while (bundles_.count(contiguous_ + 1) != 0) ++contiguous_;
}

void BundleChain::erase_above(BundleHeight h) {
  while (!bundles_.empty() && bundles_.rbegin()->first > h) {
    bundles_.erase(std::prev(bundles_.end()));
  }
  contiguous_ = std::min(contiguous_, h);
}

void BundleChain::prune_below(BundleHeight h) {
  while (!bundles_.empty() && bundles_.begin()->first < h) {
    gc_bytes_ += bundles_.begin()->second.wire_size();
    gc_items_ += 1;
    bundles_.erase(bundles_.begin());
  }
  pruned_below_ = std::max(pruned_below_, h);
}

Mempool::Mempool(std::size_t n_chains, std::vector<PublicKey> producer_keys)
    : chains_(n_chains),
      keys_(std::move(producer_keys)),
      confirmed_(n_chains, 0),
      pending_(n_chains) {
  if (keys_.size() != n_chains) {
    throw std::invalid_argument("Mempool: one key per chain required");
  }
}

AddBundleResult Mempool::add(const Bundle& bundle,
                             ConflictEvidence* evidence,
                             VerifiedChecks verified) {
  const AddBundleResult result =
      validate_and_insert(bundle, evidence, verified);
  if (result == AddBundleResult::kAdded) {
    retry_pending(bundle.header.producer);
  }
  return result;
}

AddBundleResult Mempool::validate_and_insert(const Bundle& bundle,
                                             ConflictEvidence* evidence,
                                             VerifiedChecks verified) {
  const BundleHeader& h = bundle.header;
  if (h.producer >= chains_.size() || h.height == 0 ||
      h.tip_list.size() != chains_.size()) {
    return AddBundleResult::kInvalid;
  }
  if (is_banned(h.producer)) return AddBundleResult::kBannedProducer;

  BundleChain& chain = chains_[h.producer];
  if (const Bundle* existing = chain.get(h.height)) {
    if (existing->header == h) return AddBundleResult::kDuplicate;
    // Same height, different header. If they share a parent this is the
    // canonical conflict of §III-A; a mismatched parent is equally
    // damning evidence of equivocation on this chain.
    ConflictEvidence ev;
    ev.first = existing->header;
    ev.second = h;
    if (evidence != nullptr) *evidence = ev;
    ban(h.producer);
    if (on_conflict) on_conflict(h.producer, ev);
    return AddBundleResult::kConflict;
  }

  // Rule: signature must verify (producers cannot be impersonated).
  if (!verified.signature &&
      !verify_bundle_signature(h, keys_[h.producer])) {
    return AddBundleResult::kBadSignature;
  }

  // Rule 2: transactions valid — here, the Merkle root must match.
  if (!verified.tx_root && Bundle::tx_root_of(bundle.txs) != h.tx_root) {
    return AddBundleResult::kBadTxRoot;
  }

  // Rule 1: parent must be present and valid (height 1 has the null
  // parent; an armed rejoin slot lets a new genesis chain from the
  // confirmed height). Out-of-order bundles are buffered for retry.
  const Bundle* parent = nullptr;
  const auto rejoin = rejoin_base_.find(h.producer);
  const bool rejoin_genesis = rejoin != rejoin_base_.end() &&
                              h.height == rejoin->second + 1 &&
                              h.parent_hash == kZeroHash;
  if (rejoin_genesis) {
    // Accepted parent-free; the slot is consumed below on insert.
  } else if (h.height == 1) {
    if (h.parent_hash != kZeroHash) return AddBundleResult::kInvalid;
  } else {
    parent = chain.get(h.height - 1);
    if (parent == nullptr) {
      if (h.height <= confirmed_[h.producer]) {
        // Below the confirmed watermark the prefix was already
        // validated and GC'd; accept without the parent link.
      } else {
        pending_[h.producer].emplace(h.height, bundle);
        return AddBundleResult::kMissingParent;
      }
    } else if (parent->header.hash() != h.parent_hash) {
      ConflictEvidence ev;
      ev.first = parent->header;
      ev.second = h;
      if (evidence != nullptr) *evidence = ev;
      ban(h.producer);
      if (on_conflict) on_conflict(h.producer, ev);
      return AddBundleResult::kConflict;
    }
  }

  // Rule 3: tip list must be componentwise >= the parent's tip list.
  if (parent != nullptr) {
    for (std::size_t i = 0; i < h.tip_list.size(); ++i) {
      if (h.tip_list[i] < parent->header.tip_list[i]) {
        return AddBundleResult::kStaleTips;
      }
    }
  }

  chain.insert(bundle);
  if (rejoin_genesis) rejoin_base_.erase(h.producer);
  return AddBundleResult::kAdded;
}

void Mempool::retry_pending(std::size_t chain_index) {
  auto& waiting = pending_[chain_index];
  BundleChain& chain = chains_[chain_index];
  while (!waiting.empty()) {
    const BundleHeight next = chain.contiguous_height() + 1;
    const auto it = waiting.find(next);
    if (it == waiting.end()) break;
    Bundle b = std::move(it->second);
    waiting.erase(it);
    // Buffered bundles passed the signature and root checks before
    // they were parked (buffering happens after both), so the retry
    // skips the recomputation.
    if (validate_and_insert(b, nullptr,
                            {.signature = true, .tx_root = true}) !=
        AddBundleResult::kAdded) {
      break;
    }
  }
  // Drop buffered entries that can never apply (below contiguous).
  while (!waiting.empty() &&
         waiting.begin()->first <= chain.contiguous_height()) {
    waiting.erase(waiting.begin());
  }
}

std::vector<BundleHeight> Mempool::tip_list() const {
  std::vector<BundleHeight> tips(chains_.size(), 0);
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    tips[i] = chains_[i].contiguous_height();
  }
  return tips;
}

std::vector<std::vector<BundleHeight>> Mempool::tip_matrix() const {
  std::vector<std::vector<BundleHeight>> matrix;
  matrix.reserve(chains_.size());
  for (const auto& chain : chains_) {
    const Bundle* latest = chain.latest();
    if (latest == nullptr) {
      matrix.emplace_back(chains_.size(), 0);
    } else {
      matrix.push_back(latest->header.tip_list);
    }
  }
  return matrix;
}

void Mempool::confirm(const std::vector<BundleHeight>& heights) {
  if (heights.size() != chains_.size()) {
    throw std::invalid_argument("Mempool::confirm: wrong size");
  }
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    confirmed_[i] = std::max(confirmed_[i], heights[i]);
    if (gc_retention_ > 0 && confirmed_[i] > gc_retention_) {
      chains_[i].prune_below(confirmed_[i] - gc_retention_);
    }
  }
}

void Mempool::ban(NodeId producer) {
  if (banned_.insert(producer).second && on_ban) on_ban(producer);
}

void Mempool::unban(NodeId producer) {
  if (banned_.erase(producer) != 0 && on_unban) on_unban(producer);
}

void Mempool::allow_rejoin(NodeId producer) {
  if (producer >= chains_.size()) return;
  unban(producer);
  chains_[producer].erase_above(confirmed_[producer]);
  pending_[producer].clear();
  rejoin_base_[producer] = confirmed_[producer];
}

std::size_t Mempool::pending_count(std::size_t chain) const {
  return pending_[chain].size();
}

std::vector<BundleHeight> compute_cut(const Mempool& mempool, NodeId leader,
                                      std::size_t f) {
  const std::size_t n = mempool.chain_count();
  const auto matrix = mempool.tip_matrix();
  const auto own = mempool.tip_list();
  const auto& confirmed = mempool.confirmed();

  std::vector<BundleHeight> cut(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (mempool.is_banned(static_cast<NodeId>(i))) {
      cut[i] = confirmed[i];
      continue;
    }
    // Reported height of chain i per node j; the leader's row is its
    // actual local knowledge.
    std::vector<BundleHeight> reported(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      reported[j] = (j == leader) ? own[i] : matrix[j][i];
    }
    std::sort(reported.begin(), reported.end(),
              std::greater<BundleHeight>());
    // Height reached by the fastest n - f nodes.
    const BundleHeight quorum_height = reported[n - f - 1];
    // Leader can only include bundles it actually holds.
    cut[i] = std::max(confirmed[i], std::min(quorum_height, own[i]));
  }
  return cut;
}

}  // namespace predis
