// Runners for the Multi-Zone experiments:
//  * run_distribution_cluster — Fig. 7: consensus-layer throughput under
//    distribution load (star vs Multi-Zone) as full nodes scale;
//  * run_propagation — Fig. 8: block propagation latency of star,
//    random(FEG) and Multi-Zone topologies vs block size.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "common/block_tracer.hpp"
#include "common/types.hpp"
#include "core/experiment.hpp"
#include "runtime/run_context.hpp"

namespace predis::multizone {

enum class Topology { kStar, kRandom, kMultiZone };

const char* to_string(Topology t);

// ---------------------------------------------------------------------
// Fig. 7 — throughput of the consensus layer under distribution load.
// ---------------------------------------------------------------------

struct ThroughputConfig {
  /// kStar or kMultiZone (random is throughput-unbounded by tunable
  /// connection count, which is why the paper compares only these two).
  Topology topology = Topology::kMultiZone;
  std::size_t n_consensus = 4;
  std::size_t f = 1;
  std::size_t n_full = 24;
  std::size_t n_zones = 3;
  double offered_load_tps = 26'000.0;  ///< Paper's fixed generation rate.
  std::size_t n_clients = 8;
  std::size_t bundle_size = 50;
  SimTime duration = seconds(12);
  SimTime warmup = seconds(5);
  /// Post-duration drain: proposals stop at `duration`, the run keeps
  /// going this much longer so in-flight blocks commit and full nodes
  /// finish reconstructing them (closing every trace entry).
  SimTime drain = milliseconds(1500);
  std::uint64_t seed = 1;
  /// Ship real erasure-coded stripe bytes (see
  /// MultiZoneConfig::real_stripe_payloads). Multi-Zone topology only.
  bool real_stripe_payloads = false;
  /// Cross-cutting run plumbing (tracer, backend override, pre-start
  /// topology hook). ctx.on_network_ready fires once the whole topology
  /// is built, immediately before the network starts — adversary
  /// campaigns attach fault schedules and hostile injectors there
  /// (runtime, consensus node ids, full node ids). Anything captured
  /// must outlive the run; the runner blocks until it completes.
  runtime::RunContext ctx;
};

struct ThroughputResult : core::RunReport {
  /// Aggregate wire bytes over consensus nodes (Metrics byte counters).
  std::uint64_t consensus_bytes_sent = 0;
  std::uint64_t consensus_bytes_received = 0;
  /// Fraction of announced blocks fully reconstructed by full nodes.
  double full_node_coverage = 0.0;
  std::size_t relayers_seen = 0;  ///< Relayers active at the end.
  std::uint64_t view_changes = 0;       ///< Summed over consensus nodes.
  std::uint64_t last_executed_min = 0;  ///< Slowest node's executed slot.
  std::uint64_t last_executed_max = 0;
};

/// When the clients start: once the Multi-Zone join churn has settled
/// (full nodes join 120 ms apart), so every measured window sees an
/// established topology; 0 for star. Load stops `duration` later.
SimTime load_start(const ThroughputConfig& config);

ThroughputResult run_distribution_cluster(const ThroughputConfig& config);

// ---------------------------------------------------------------------
// Fig. 8 — block propagation latency.
// ---------------------------------------------------------------------

struct PropagationConfig {
  Topology topology = Topology::kMultiZone;
  std::size_t n_consensus = 8;  ///< Paper: 8 consensus, 100 full nodes.
  std::size_t f = 2;
  std::size_t n_full = 100;
  std::size_t n_zones = 3;      ///< Multi-Zone only (3 or 12 in paper).
  std::size_t peers = 8;        ///< Random topology connections.
  std::size_t fanout = 4;       ///< FEG push fanout.
  std::size_t max_subscribers = 24;  ///< Fairness cap (paper).
  std::size_t block_bytes = 1 << 20;
  /// Granularity of Multi-Zone pre-distribution. The paper uses
  /// 50-tx (25.6 KB) bundles; larger synthetic bundles keep the event
  /// count tractable at 40 MB blocks without changing byte flow.
  std::size_t bundle_bytes = 128 << 10;
  std::size_t n_blocks = 4;     ///< Blocks averaged over.
  SimTime setup_time = seconds(4);  ///< Topology convergence time.
  std::uint64_t seed = 1;
  /// Cross-cutting run plumbing (tracer, backend override, hook).
  runtime::RunContext ctx;
};

struct PropagationResult {
  /// Average time (ms from block production) for the block to reach a
  /// given fraction of full nodes.
  std::map<double, double> latency_ms_at_fraction;
  double full_coverage_fraction = 0.0;  ///< Nodes reached on average.
  /// Filled when config.ctx.tracer was set: per-stage breakdowns.
  std::vector<TraceStageStats> stage_latency;
};

PropagationResult run_propagation(const PropagationConfig& config);

}  // namespace predis::multizone
