// The benchmark's workloads. Each runs one public runner
// (core::run_cluster or multizone::run_distribution_cluster) on a
// ProbeRuntime wrapped around the workload's backend, with open-loop
// clients and the seed passed in.
//
//   ppbft-wall          P-PBFT, 4 nodes, LAN shape, ThreadRuntime in wall
//                       mode with 3 workers, 300 k tx/s offered.
//   ppbft-sim-overload  P-PBFT, 4 nodes, LAN, deterministic sim,
//                       30 k tx/s offered (1.5x the ~20 k knee).
//   multizone-sim       P-PBFT + Multi-Zone, 4 consensus + 12 full nodes
//                       in 3 zones, 8 k tx/s, real stripe payloads, a
//                       BlockTracer attached.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "probe_runtime.hpp"

namespace perfbench {

struct WorkloadInfo {
  const char* name;
  bool wall;               ///< Wall-clock backend (else deterministic sim).
  bool multizone;          ///< run_distribution_cluster (else run_cluster).
  double offered_tps;
  std::size_t workers;     ///< Worker threads of the backend.
  /// Nominal wall seconds of one repetition (sim workloads): a run of
  /// --seconds S makes floor(S / rep_seconds) repetitions, a count that
  /// does not depend on the host's speed.
  double rep_seconds;
  /// Wall workload: repetitions sharing --seconds of load generation
  /// (the median over them keeps one scheduling hiccup out of the tail).
  std::size_t wall_reps;
};

/// nullopt for an unknown name.
std::optional<WorkloadInfo> find_workload(const std::string& name);

/// One repetition of a workload.
struct RepResult {
  bool consistent = false;  ///< Runner's safety + ledger checks.
  double commit_tps = 0.0;  ///< Runner's committed tx/s over the window.
  std::uint64_t submitted = 0;  ///< Transactions the clients sent.
  std::uint64_t replied = 0;    ///< Distinct transactions replied to.
  LatencySummary commit;        ///< Client latency after warmup.
  /// Runner's own p50 (run_cluster only) for the probe cross-check.
  std::optional<double> runner_p50_ms;
  /// Fingerprint of every model-time result (sim backends): the
  /// traced/untraced and repeat-determinism checks compare these.
  std::string model_digest;
  LatencySummary reconstruct;          ///< Commit → rebuilt, per node.
  std::optional<double> coverage;      ///< Full-node coverage.
  std::uint64_t blocks = 0;            ///< Committed blocks (max node).
  double offered_tps = 0.0;
  double load_window_s = 0.0;          ///< Clients' generation window.
  double setup_s = 0.0;
  double cpu_s = 0.0;
  double run_wall_s = 0.0;
  double collect_s = 0.0;
  std::uint64_t sim_events = 0;
  double model_s = 0.0;                ///< Backend time run (sim).
  double uplink_backlog_max_ms = 0.0;  ///< Consensus nodes, sampled.
  /// Peak resident memory during the repetition (set by the caller,
  /// which owns the process-wide reset).
  std::optional<double> peak_rss_mb;
  std::optional<TraceData> trace;      ///< Traced reps only.
};

struct RepOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< Wall workload: this repetition's load window.
  bool traced = false;
  /// Stop at start(): measures set-up only (RepResult::setup_s).
  bool setup_only = false;
  /// Override the workload's offered load (sweep mode only).
  std::optional<double> offered_tps;
};

RepResult run_rep(const WorkloadInfo& w, const RepOptions& opt);

/// Per-layer metrics of one traced rep: name → value (nullopt where the
/// layer is not exercised or has no samples).
std::map<std::string, std::optional<double>> layer_metrics(
    const WorkloadInfo& w, const RepResult& rep);

/// erasure.* and common.* probes: the layers' public functions timed on
/// the workloads' input shapes ((k=3, n=4), 50 x 512-byte bundle).
std::map<std::string, std::optional<double>> kernel_probes();

/// Write the spans of a traced rep as CSV (id, parent, nested, layer,
/// name, node, start_ns, end_ns, self_ns).
bool write_spans_csv(const TraceData& trace, const std::string& path);

}  // namespace perfbench
