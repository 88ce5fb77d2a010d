// Public experiment API: assemble a simulated permissioned-blockchain
// cluster for any of the six protocols the paper evaluates, drive it
// with an open-loop client workload, and report throughput / latency /
// bandwidth — the quantities behind Figs. 4-6.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/block_tracer.hpp"
#include "common/types.hpp"
#include "consensus/predis/predis_engine.hpp"
#include "runtime/run_context.hpp"

namespace predis::core {

enum class Protocol {
  kPbft,            ///< Baseline PBFT (batch proposals).
  kHotStuff,        ///< Baseline chained HotStuff (batch proposals).
  kPredisPbft,      ///< P-PBFT (paper §III).
  kPredisHotStuff,  ///< P-HS.
  kNarwhal,         ///< Narwhal-style certified shared mempool.
  kStratus,         ///< Stratus-style PAB shared mempool.
};

const char* to_string(Protocol p);

struct ClusterConfig {
  Protocol protocol = Protocol::kPredisPbft;
  std::size_t n_consensus = 4;
  std::size_t f = 1;
  /// WAN: four paper regions; LAN: uniform 25 ms / 100 Mbps.
  bool wan = true;

  double offered_load_tps = 10'000.0;  ///< Aggregate client load.
  std::size_t n_clients = 8;
  std::uint32_t tx_size = 512;  ///< Paper: 512-byte transactions.

  std::size_t batch_size = 800;   ///< Baseline block size (txs).
  std::size_t bundle_size = 50;   ///< Predis bundle / SOTA microblock txs.
  SimTime bundle_interval = milliseconds(25);
  /// Cutting-rule ablation (see PredisConfig::cut_f_override).
  std::size_t cut_f_override = static_cast<std::size_t>(-1);
  /// Baseline-PBFT pipelining ablation (slots in flight; 1 = paper's
  /// serialized model).
  SeqNum pbft_pipeline_window = 1;
  std::size_t microblock_id_cap = 1000;  ///< Narwhal/Stratus proposal cap.

  SimTime view_timeout = milliseconds(2000);
  SimTime duration = seconds(15);
  SimTime warmup = seconds(5);
  /// Post-duration drain: leaders stop cutting payloads at `duration`
  /// and the run continues this much longer so every in-flight
  /// proposal reaches commit (HotStuff needs two extra chained rounds;
  /// a WAN round is ~150-400 ms). Keeps the block trace closed: every
  /// cut-proposed entry ends with a commit.
  SimTime drain = milliseconds(1500);
  std::uint64_t seed = 1;

  /// Fig. 6 fault injection: the *last* `n_faulty` consensus nodes run
  /// the configured Byzantine behaviour.
  std::size_t n_faulty = 0;
  consensus::predis::FaultMode fault_mode =
      consensus::predis::FaultMode::kNone;

  /// Cross-cutting run plumbing shared by every experiment config:
  /// optional block tracer (ctx.tracer fills `stage_latency` and is
  /// left populated for anomaly scans), delivery-trace hasher, backend
  /// override (run on an external Runtime instead of the internal
  /// simulator) and the pre-start topology hook.
  runtime::RunContext ctx;
};

struct ClusterResult {
  double throughput_tps = 0.0;   ///< Committed tx/s in [warmup, end].
  double avg_latency_ms = 0.0;   ///< Client-observed, post-warmup.
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Latency samples behind the three figures above; 0 means they are
  /// undefined (reports print null / "no samples"), not 0 ms.
  std::uint64_t latency_samples = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t submitted_txs = 0;
  std::size_t commit_events = 0;  ///< Blocks/batches decided.
  bool consistent = true;         ///< No two nodes decided differently.
  /// Per-node hash-chained ledgers agreed on every common height.
  bool ledgers_consistent = true;
  std::uint64_t ledger_blocks_min = 0;  ///< Slowest node's chain length.
  std::uint64_t ledger_blocks_max = 0;
  /// Mean consensus-node uplink use (runtime::mean_uplink_mbps).
  double consensus_uplink_mbps = 0.0;
  std::uint64_t leader_proposal_bytes = 0;  ///< Proposal traffic (node 0).
  /// Filled when config.ctx.tracer was set: per-stage latency breakdowns.
  std::vector<TraceStageStats> stage_latency;
  /// SHA-256 over every node's final hash-chained ledger (lengths +
  /// head hashes) and the committed-tx count. Two runs that decided the
  /// same blocks in the same order agree on this string; the
  /// golden-digest tests pin it for a fixed scenario.
  std::string commit_digest;
};

/// Run one cluster simulation to completion and report.
ClusterResult run_cluster(const ClusterConfig& config);

}  // namespace predis::core
