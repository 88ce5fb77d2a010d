#include "core/ledger.hpp"

#include <stdexcept>

namespace predis::core {

void Ledger::append(LedgerEntry entry) {
  const Hash32 expected_parent = head_hash();
  const BlockHeight expected_height = entries_.size() + 1;
  if (entry.height != expected_height) {
    throw std::logic_error("Ledger::append: non-consecutive height");
  }
  if (entry.parent != expected_parent) {
    throw std::logic_error("Ledger::append: parent hash mismatch");
  }
  total_txs_ += entry.tx_count;
  entries_.push_back(std::move(entry));
}

const LedgerEntry& Ledger::append_block(const Hash32& payload_digest,
                                        const Hash32& tx_root,
                                        std::size_t tx_count,
                                        SimTime committed_at) {
  LedgerEntry entry;
  entry.height = entries_.size() + 1;
  entry.parent = head_hash();
  entry.payload_digest = payload_digest;
  entry.tx_root = tx_root;
  entry.tx_count = tx_count;
  entry.committed_at = committed_at;
  append(entry);
  return entries_.back();
}

const LedgerEntry* Ledger::at(BlockHeight height) const {
  if (height == 0 || height > entries_.size()) return nullptr;
  return &entries_[height - 1];
}

bool Ledger::verify_chain() const {
  Hash32 parent = kZeroHash;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const LedgerEntry& e = entries_[i];
    if (e.height != i + 1 || e.parent != parent) return false;
    parent = e.record_hash();
  }
  return true;
}

bool Ledger::prefix_consistent_with(const Ledger& other) const {
  // Compare record hashes: they bind every decision field but not the
  // local commit timestamp, which legitimately differs across nodes.
  const std::size_t common = std::min(entries_.size(), other.entries_.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (entries_[i].record_hash() != other.entries_[i].record_hash()) {
      return false;
    }
  }
  return true;
}

Bytes Ledger::export_range(BlockHeight from, BlockHeight to) const {
  if (from == 0 || to > entries_.size() || from > to) {
    throw std::out_of_range("Ledger::export_range: bad range");
  }
  Writer w;
  w.u32(static_cast<std::uint32_t>(to - from + 1));
  for (BlockHeight h = from; h <= to; ++h) {
    entries_[h - 1].encode(w);
  }
  return std::move(w).take();
}

std::size_t Ledger::import_range(BytesView bytes) {
  Reader r(bytes);
  const std::uint32_t count = r.u32();
  std::size_t adopted = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    LedgerEntry entry = LedgerEntry::decode(r);
    if (entry.height <= entries_.size()) {
      if (entries_[entry.height - 1].record_hash() != entry.record_hash()) {
        throw std::logic_error("Ledger::import_range: divergent history");
      }
      continue;
    }
    append(std::move(entry));
    ++adopted;
  }
  return adopted;
}

}  // namespace predis::core
