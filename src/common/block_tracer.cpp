#include "common/block_tracer.hpp"

#include <algorithm>
#include <functional>

#include "common/codec.hpp"

namespace predis {

const char* to_string(TraceStage stage) {
  switch (stage) {
    case TraceStage::kTxEnqueued:
      return "tx-enqueued";
    case TraceStage::kBundleProduced:
      return "bundle-produced";
    case TraceStage::kBundleStoredQuorum:
      return "bundle-stored-quorum";
    case TraceStage::kCutProposed:
      return "cut-proposed";
    case TraceStage::kBlockCommitted:
      return "block-committed";
    case TraceStage::kStripesSent:
      return "stripes-sent";
    case TraceStage::kBundleDecoded:
      return "bundle-decoded";
    case TraceStage::kBlockReconstructed:
      return "block-reconstructed";
  }
  return "?";
}

Hash32 trace_key(std::uint64_t id) {
  Writer w;
  w.u64(id);
  return Sha256::hash(BytesView{w.data()});
}

std::string TraceAnomaly::describe() const {
  char tmp[160];
  switch (kind) {
    case Kind::kStalledBlock:
      std::snprintf(tmp, sizeof(tmp),
                    "stalled block %s: committed, never reconstructed",
                    short_hex(key).c_str());
      break;
    case Kind::kRebanStorm:
      std::snprintf(tmp, sizeof(tmp),
                    "re-ban storm: node %u banned producer %u %zu times",
                    node, producer, count);
      break;
    case Kind::kPullSpiral:
      std::snprintf(tmp, sizeof(tmp),
                    "pull spiral: node %u pulled block %s %zu times", node,
                    short_hex(key).c_str(), count);
      break;
    case Kind::kUnclosedProposal:
      std::snprintf(tmp, sizeof(tmp),
                    "unclosed proposal %s: cut proposed, never committed",
                    short_hex(key).c_str());
      break;
  }
  return tmp;
}

void BlockTracer::record(TraceStage stage, const Hash32& key, SimTime when,
                         NodeId node) {
  Entry& e = entry(key);
  auto& slot = e.first[static_cast<std::size_t>(stage)];
  slot = std::min(slot, when);
  if (node == kNoNode) return;
  if (stage == TraceStage::kBundleDecoded) {
    e.decoded.emplace(node, when);
  } else if (stage == TraceStage::kBlockReconstructed) {
    e.reconstructed.emplace(node, when);
  }
}

void BlockTracer::record_store(const Hash32& bundle, SimTime when,
                               NodeId node) {
  if (store_quorum_ == 0) return;
  Entry& e = entry(bundle);
  if (!e.stores.emplace(node, when).second) return;
  if (e.stores.size() == store_quorum_) {
    record(TraceStage::kBundleStoredQuorum, bundle, when);
  }
}

void BlockTracer::record_ban(NodeId observer, NodeId producer, SimTime when) {
  bans_[{observer, producer}].push_back(when);
}

void BlockTracer::record_unban(NodeId observer, NodeId producer,
                               SimTime /*when*/) {
  ++unbans_[{observer, producer}];
}

void BlockTracer::record_pull(const Hash32& block, NodeId node,
                              SimTime /*when*/) {
  ++pulls_[{block, node}];
}

SimTime BlockTracer::first(TraceStage stage, const Hash32& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return kSimTimeNever;
  return it->second.first[static_cast<std::size_t>(stage)];
}

std::size_t BlockTracer::ban_count(NodeId observer, NodeId producer) const {
  const auto it = bans_.find({observer, producer});
  return it == bans_.end() ? 0 : it->second.size();
}

std::size_t BlockTracer::pull_count(const Hash32& block, NodeId node) const {
  const auto it = pulls_.find({block, node});
  return it == pulls_.end() ? 0 : it->second;
}

bool BlockTracer::causally_ordered(const Hash32& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return true;
  const auto& f = it->second.first;
  const auto at = [&f](TraceStage s) {
    return f[static_cast<std::size_t>(s)];
  };
  const auto ordered = [&at](TraceStage a, TraceStage b) {
    return at(a) == kSimTimeNever || at(b) == kSimTimeNever ||
           at(a) <= at(b);
  };
  return ordered(TraceStage::kTxEnqueued, TraceStage::kBundleProduced) &&
         ordered(TraceStage::kBundleProduced,
                 TraceStage::kBundleStoredQuorum) &&
         ordered(TraceStage::kBundleProduced, TraceStage::kStripesSent) &&
         ordered(TraceStage::kBundleProduced, TraceStage::kBundleDecoded) &&
         ordered(TraceStage::kCutProposed, TraceStage::kBlockCommitted) &&
         ordered(TraceStage::kBlockCommitted,
                 TraceStage::kBlockReconstructed);
}

template <typename Fn>
void BlockTracer::for_each_interval(Fn&& fn) const {
  const auto interval = [&fn](const char* name, const Hash32& key,
                              NodeId node, SimTime from, SimTime to) {
    if (from == kSimTimeNever || to == kSimTimeNever || to < from) return;
    fn(name, key, node, from, to);
  };
  for (const auto& [key, e] : entries_) {
    const auto at = [&e](TraceStage s) {
      return e.first[static_cast<std::size_t>(s)];
    };
    interval("tx_wait", key, kNoNode, at(TraceStage::kTxEnqueued),
             at(TraceStage::kBundleProduced));
    interval("bundle_quorum", key, kNoNode, at(TraceStage::kBundleProduced),
             at(TraceStage::kBundleStoredQuorum));
    interval("stripes_sent", key, kNoNode, at(TraceStage::kBundleProduced),
             at(TraceStage::kStripesSent));
    for (const auto& [node, when] : e.decoded) {
      interval("pre_distribution", key, node,
               at(TraceStage::kBundleProduced), when);
    }
    interval("production", key, kNoNode, at(TraceStage::kCutProposed),
             at(TraceStage::kBlockCommitted));
    for (const auto& [node, when] : e.reconstructed) {
      interval("distribution", key, node, at(TraceStage::kBlockCommitted),
               when);
      interval("end_to_end", key, node, at(TraceStage::kCutProposed), when);
    }
  }
}

std::map<std::string, Percentiles> BlockTracer::stage_samples() const {
  std::map<std::string, Percentiles> out;
  for_each_interval([&out](const char* name, const Hash32&, NodeId,
                           SimTime from, SimTime to) {
    out[name].add(to_milliseconds(to - from));
  });
  return out;
}

std::vector<TraceStageStats> BlockTracer::stage_breakdown() const {
  std::vector<TraceStageStats> out;
  for (const auto& [name, samples] : stage_samples()) {
    TraceStageStats row;
    row.name = name;
    row.count = samples.count();
    row.mean_ms = samples.mean();
    row.p50_ms = samples.percentile(50);
    row.p95_ms = samples.percentile(95);
    row.p99_ms = samples.percentile(99);
    row.p999_ms = samples.percentile(99.9);
    std::vector<double> sorted = samples.samples();
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    row.max_ms = sorted.empty() ? 0.0 : sorted.front();
    const std::size_t k = std::min<std::size_t>(sorted.size(), 5);
    row.top_ms.assign(sorted.begin(), sorted.begin() + k);
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<TraceIntervalSample> BlockTracer::top_samples(
    const std::string& stage, std::size_t k) const {
  std::vector<TraceIntervalSample> all;
  for_each_interval([&](const char* name, const Hash32& key, NodeId node,
                        SimTime from, SimTime to) {
    if (stage != name) return;
    TraceIntervalSample s;
    s.key = key;
    s.node = node;
    s.from = from;
    s.to = to;
    s.ms = to_milliseconds(to - from);
    all.push_back(s);
  });
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceIntervalSample& a,
                      const TraceIntervalSample& b) { return a.ms > b.ms; });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<Hash32> BlockTracer::keys_missing(TraceStage have,
                                              TraceStage missing) const {
  std::vector<Hash32> out;
  for (const auto& [key, e] : entries_) {
    if (e.first[static_cast<std::size_t>(have)] == kSimTimeNever) continue;
    if (e.first[static_cast<std::size_t>(missing)] != kSimTimeNever) continue;
    out.push_back(key);
  }
  return out;
}

std::size_t BlockTracer::total_bans() const {
  std::size_t total = 0;
  for (const auto& [key, times] : bans_) {
    (void)key;
    total += times.size();
  }
  return total;
}

std::size_t BlockTracer::total_pulls() const {
  std::size_t total = 0;
  for (const auto& [key, n] : pulls_) {
    (void)key;
    total += n;
  }
  return total;
}

std::vector<TraceAnomaly> BlockTracer::anomalies(
    SimTime now, const AnomalyConfig& cfg) const {
  std::vector<TraceAnomaly> out;

  // Stalled blocks: committed long ago, reconstructed nowhere. Only
  // meaningful when the run had a distribution layer at all.
  bool any_reconstruction = expect_reconstruction_;
  for (const auto& [key, e] : entries_) {
    (void)key;
    if (!e.reconstructed.empty()) {
      any_reconstruction = true;
      break;
    }
  }
  if (any_reconstruction) {
    for (const auto& [key, e] : entries_) {
      const SimTime committed =
          e.first[static_cast<std::size_t>(TraceStage::kBlockCommitted)];
      if (committed == kSimTimeNever || !e.reconstructed.empty()) continue;
      if (now - committed < cfg.stall_after) continue;
      TraceAnomaly a;
      a.kind = TraceAnomaly::Kind::kStalledBlock;
      a.key = key;
      out.push_back(a);
    }
  }

  // Unclosed proposals: a cut was proposed but consensus never decided
  // it. This is the blind spot the stalled-block detector had — it only
  // looked downstream of commit, so a proposal whose commit recording
  // was lost (or that genuinely never committed) went unflagged.
  for (const auto& [key, e] : entries_) {
    const SimTime proposed =
        e.first[static_cast<std::size_t>(TraceStage::kCutProposed)];
    const SimTime committed =
        e.first[static_cast<std::size_t>(TraceStage::kBlockCommitted)];
    if (proposed == kSimTimeNever || committed != kSimTimeNever) continue;
    if (now - proposed < cfg.stall_after) continue;
    TraceAnomaly a;
    a.kind = TraceAnomaly::Kind::kUnclosedProposal;
    a.key = key;
    out.push_back(a);
  }

  for (const auto& [pair, times] : bans_) {
    if (times.size() < cfg.reban_threshold) continue;
    TraceAnomaly a;
    a.kind = TraceAnomaly::Kind::kRebanStorm;
    a.node = pair.first;
    a.producer = pair.second;
    a.count = times.size();
    out.push_back(a);
  }

  for (const auto& [pair, n] : pulls_) {
    if (n < cfg.pull_spiral_threshold) continue;
    TraceAnomaly a;
    a.kind = TraceAnomaly::Kind::kPullSpiral;
    a.key = pair.first;
    a.node = pair.second;
    a.count = n;
    out.push_back(a);
  }
  return out;
}

Hash32 BlockTracer::digest() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [key, e] : entries_) {
    w.hash(key);
    for (SimTime t : e.first) w.i64(t);
    w.u32(static_cast<std::uint32_t>(e.stores.size()));
    for (const auto& [node, t] : e.stores) {
      w.u32(node);
      w.i64(t);
    }
    w.u32(static_cast<std::uint32_t>(e.decoded.size()));
    for (const auto& [node, t] : e.decoded) {
      w.u32(node);
      w.i64(t);
    }
    w.u32(static_cast<std::uint32_t>(e.reconstructed.size()));
    for (const auto& [node, t] : e.reconstructed) {
      w.u32(node);
      w.i64(t);
    }
  }
  w.u32(static_cast<std::uint32_t>(bans_.size()));
  for (const auto& [pair, times] : bans_) {
    w.u32(pair.first);
    w.u32(pair.second);
    w.u32(static_cast<std::uint32_t>(times.size()));
    for (SimTime t : times) w.i64(t);
  }
  w.u32(static_cast<std::uint32_t>(pulls_.size()));
  for (const auto& [pair, n] : pulls_) {
    w.hash(pair.first);
    w.u32(pair.second);
    w.u64(n);
  }
  return Sha256::hash(BytesView{w.data()});
}

}  // namespace predis
