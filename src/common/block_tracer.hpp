// Causal block-lifecycle tracer: one shared instance per simulation
// timestamps every stage a transaction's bytes pass through on the way
// from a txpool to a reconstructed block at a full node —
//
//   tx enqueue -> bundle produced -> bundle stored at quorum
//      -> cut proposed -> block committed
//      -> stripes sent -> bundle decoded -> block reconstructed
//
// keyed by bundle/block hash. The first observation per (key, stage)
// wins (the simulation-global birth time of that stage); fan-out stages
// (decode, reconstruction) additionally keep one first-observation per
// node, so distribution latency is a distribution over full nodes, not
// a single point. Ban/unban and repair-pull events feed the anomaly
// detectors: stalled blocks, re-ban storms and pull spirals — the
// observable signatures of the ban-rejoin and gossip-stall bugs this
// layer was built to expose.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sha256.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace predis {

enum class TraceStage : std::uint8_t {
  kTxEnqueued = 0,       ///< Oldest client tx packed into the bundle.
  kBundleProduced,       ///< Producer signed + multicast the bundle.
  kBundleStoredQuorum,   ///< Stored by a quorum of consensus nodes.
  kCutProposed,          ///< Leader cut a block referencing it.
  kBlockCommitted,       ///< Consensus decided the block (first node).
  kStripesSent,          ///< Erasure stripes left a consensus node.
  kBundleDecoded,        ///< A full node recovered the bundle.
  kBlockReconstructed,   ///< A full node holds block + every bundle.
};
inline constexpr std::size_t kTraceStageCount = 8;

const char* to_string(TraceStage stage);

/// Hash key for trace entries identified by a small integer (gossip
/// block ids, star-topology block heights).
Hash32 trace_key(std::uint64_t id);

struct TraceAnomaly {
  enum class Kind {
    kStalledBlock,      ///< Committed but never reconstructed anywhere.
    kRebanStorm,        ///< One observer banned one producer repeatedly.
    kPullSpiral,        ///< One node pulled one block past the threshold.
    kUnclosedProposal,  ///< Cut proposed but never committed.
  };
  Kind kind = Kind::kStalledBlock;
  Hash32 key = kZeroHash;     ///< Block hash (stall / spiral).
  NodeId node = kNoNode;      ///< Observing node (storm / spiral).
  NodeId producer = kNoNode;  ///< Banned producer (storm).
  std::size_t count = 0;      ///< Ban count / pull attempts.

  std::string describe() const;
};

/// One named stage interval's latency distribution (milliseconds).
/// Percentiles are exact (computed from every sample); max_ms/top_ms
/// expose the extreme tail directly so a handful of multi-second
/// stragglers can never hide behind a healthy-looking p99.
struct TraceStageStats {
  std::string name;
  std::size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  std::vector<double> top_ms;  ///< Largest samples, descending (<= 5).
};

/// One interval sample with its identity: which block/bundle, which
/// observing node (kNoNode for key-level intervals), and the bounding
/// trace timestamps. Returned by BlockTracer::top_samples so tail
/// outliers can be attributed, not just counted.
struct TraceIntervalSample {
  Hash32 key = kZeroHash;
  NodeId node = kNoNode;
  SimTime from = 0;
  SimTime to = 0;
  double ms = 0.0;
};

class BlockTracer {
 public:
  /// `store_quorum`: distinct storing nodes that flip a bundle to
  /// kBundleStoredQuorum (0 disables quorum tracking).
  explicit BlockTracer(std::size_t store_quorum = 0)
      : store_quorum_(store_quorum) {}

  /// Record one stage observation. Keeps the earliest time per
  /// (key, stage); for kBundleDecoded / kBlockReconstructed also the
  /// earliest per (key, stage, node) when `node` is given.
  void record(TraceStage stage, const Hash32& key, SimTime when,
              NodeId node = kNoNode);

  /// A consensus node stored the bundle; the `store_quorum`-th distinct
  /// node sets kBundleStoredQuorum at its store time.
  void record_store(const Hash32& bundle, SimTime when, NodeId node);

  void record_ban(NodeId observer, NodeId producer, SimTime when);
  void record_unban(NodeId observer, NodeId producer, SimTime when);
  void record_pull(const Hash32& block, NodeId node, SimTime when);

  // --- Queries ----------------------------------------------------------

  /// Earliest time the stage was observed for `key`; kSimTimeNever if
  /// never observed.
  SimTime first(TraceStage stage, const Hash32& key) const;
  bool has(TraceStage stage, const Hash32& key) const {
    return first(stage, key) != kSimTimeNever;
  }
  std::size_t pull_count(const Hash32& block, NodeId node) const;
  std::size_t entry_count() const { return entries_.size(); }
  /// Every recorded ban, over all (observer, producer) pairs.
  std::size_t total_bans() const;
  /// Every recorded repair pull, over all (block, node) pairs.
  std::size_t total_pulls() const;

  /// Stage-ordering invariant: among the stages observed for `key`,
  /// production stages (enqueue <= produced <= {quorum, stripes,
  /// decode}) and block stages (proposed <= committed <= reconstructed)
  /// must be causally ordered.
  bool causally_ordered(const Hash32& key) const;

  // --- Aggregation ------------------------------------------------------

  /// Named interval samples derived from the trace, in milliseconds:
  ///   tx_wait            enqueue -> bundle produced
  ///   bundle_quorum      produced -> stored at quorum
  ///   stripes_sent       produced -> stripes sent
  ///   pre_distribution   produced -> decoded (one sample per node)
  ///   production         cut proposed -> committed
  ///   distribution       committed -> reconstructed (per node)
  ///   end_to_end         cut proposed -> reconstructed (per node)
  std::map<std::string, Percentiles> stage_samples() const;

  /// stage_samples() reduced to count/mean/p50/p95/p99/p999/max rows
  /// (plus the top-k raw samples per stage).
  std::vector<TraceStageStats> stage_breakdown() const;

  /// The `k` largest samples of one named interval, descending by
  /// duration, each attributed to its (key, node, timestamps).
  std::vector<TraceIntervalSample> top_samples(const std::string& stage,
                                               std::size_t k) const;

  /// Keys that reached stage `have` but never reached stage `missing` —
  /// e.g. proposed-but-never-committed entries.
  std::vector<Hash32> keys_missing(TraceStage have, TraceStage missing) const;

  struct AnomalyConfig {
    /// A committed block is stalled if unreconstructed this long after
    /// commit (only when the trace saw any reconstruction at all, or
    /// expect_reconstruction was forced).
    SimTime stall_after = seconds(3);
    std::size_t reban_threshold = 3;
    std::size_t pull_spiral_threshold = 12;
  };

  /// Force stalled-block detection even if no block ever reconstructed
  /// (by default a trace with no distribution layer is exempt).
  void expect_reconstruction(bool expect) { expect_reconstruction_ = expect; }

  std::vector<TraceAnomaly> anomalies(SimTime now,
                                      const AnomalyConfig& cfg) const;
  std::vector<TraceAnomaly> anomalies(SimTime now) const {
    return anomalies(now, AnomalyConfig{});
  }

  /// SHA-256 over the full deterministic trace content (timestamps,
  /// per-node observations, ban and pull events).
  Hash32 digest() const;

 private:
  struct Entry {
    std::array<SimTime, kTraceStageCount> first;
    std::map<NodeId, SimTime> stores;         ///< Distinct storing nodes.
    std::map<NodeId, SimTime> decoded;        ///< Per-node first decode.
    std::map<NodeId, SimTime> reconstructed;  ///< Per-node first rebuild.
    Entry() { first.fill(kSimTimeNever); }
  };

  Entry& entry(const Hash32& key) { return entries_[key]; }

  /// Visit every derived interval as (name, key, node, from, to); the
  /// single source of truth behind stage_samples() and top_samples().
  template <typename Fn>
  void for_each_interval(Fn&& fn) const;

  std::size_t store_quorum_;
  bool expect_reconstruction_ = false;
  std::map<Hash32, Entry> entries_;
  std::map<std::pair<NodeId, NodeId>, std::vector<SimTime>> bans_;
  std::map<std::pair<NodeId, NodeId>, std::size_t> unbans_;
  std::map<std::pair<Hash32, NodeId>, std::size_t> pulls_;
};

}  // namespace predis
