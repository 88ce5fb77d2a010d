// Fault-schedule swarm harness: run one seeded cluster simulation under
// a deterministic fault plan (runtime/faults.hpp) with every safety
// invariant armed (core/invariants.hpp), and report violations plus a
// trace digest that makes same-seed runs verifiably byte-identical.
//
// One seed fully determines the run: the client workload, the fault
// plan (crashes, partitions, jitter, drops, equivocation) and every
// protocol-level random choice. A violating seed is therefore a
// one-line repro: `swarm --protocol <p> --seed-base <s> --seeds 1`.
#pragma once

#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/experiment.hpp"
#include "core/invariants.hpp"
#include "runtime/faults.hpp"

namespace predis::core {

struct SwarmCaseConfig {
  Protocol protocol = Protocol::kPredisPbft;
  std::size_t n_consensus = 4;
  std::size_t f = 1;
  bool wan = true;

  double offered_load_tps = 2'000.0;
  std::size_t n_clients = 4;
  std::uint32_t tx_size = 512;
  SimTime duration = seconds(8);

  /// Master seed: drives workload, protocol randomness and fault plan.
  std::uint64_t seed = 1;

  /// Fault-plan shape; `seed` and (for equivocation) `max_equivocators`
  /// are overridden per case. Equivocation only fires for Predis-family
  /// protocols (the hook needs a bundle producer to corrupt).
  runtime::FaultPlanConfig faults;

  /// When not kNone, the fault plan is reshaped into a single-attack
  /// adversary campaign (configure_attack): baseline fault kinds are
  /// disabled, the attack is pinned onto the initial leader, and the
  /// hostile-injector / withholding hooks are wired. `faults.events`
  /// still controls how many strikes the plan schedules.
  AttackKind attack = AttackKind::kNone;

  InvariantConfig invariants;

  /// Log the fault plan even when the run is clean.
  bool verbose = false;
};

struct SwarmCaseResult {
  std::uint64_t seed = 0;
  bool ok = true;
  std::vector<Violation> violations;
  std::string report;        ///< InvariantChecker::report().
  std::string fault_plan;    ///< FaultScheduler::describe().

  Hash32 trace_digest = kZeroHash;  ///< Running hash of every delivery.
  std::uint64_t trace_events = 0;
  /// Digest over the block-lifecycle tracer, the committed count and
  /// the production p99. Same seed must yield the same digest
  /// (observability determinism).
  Hash32 metrics_digest = kZeroHash;

  std::uint64_t commits_checked = 0;
  std::size_t reconstructions_checked = 0;
  std::size_t faults_injected = 0;
  std::size_t committed_slots = 0;

  double throughput_tps = 0.0;  ///< Whole-run committed tx/s.
  /// Degradation metrics (compared against a clean AttackKind::kNone run
  /// of the same seed by `predis-sim campaign --kind adversary`).
  std::uint64_t committed_txs = 0;
  /// p99 of the proposal->commit interval from the block tracer, the
  /// consensus-layer end-to-end latency (0 when nothing committed).
  double production_p99_ms = 0.0;
  /// Hostile messages injected by the garbage campaign (0 otherwise).
  std::size_t hostile_msgs = 0;
  /// Committed tx/s after every windowed fault healed (0 when the fault
  /// plan extends to the end of the run). Informational: a short
  /// post-heal window may legitimately be empty while views re-sync.
  double post_heal_tps = 0.0;
  SimTime healed_by = 0;

  // --- Recovery metrics (crash/partition campaigns) --------------------
  /// Catch-up batches executed by consensus cores, summed over nodes.
  std::uint64_t catch_up_batches = 0;
  /// Certified state snapshots adopted (PBFT-family state transfer).
  std::size_t state_transfers = 0;
  /// Peer rotations of every retry loop (consensus catch-up, bundle and
  /// microblock-body fetch) after repeated unanswered retries.
  std::size_t sync_stalls = 0;
  /// Log bytes/items garbage-collected below stable checkpoints
  /// (consensus slot logs, block stores, mempool bundle bodies).
  std::uint64_t gc_bytes = 0;
  std::uint64_t gc_items = 0;
  /// Payloads committed at more than one slot (restart re-proposals);
  /// their transactions are counted once (see CommitLedger).
  std::size_t duplicate_payloads = 0;
  /// Worst-case catch-up time: the latest first-commit across nodes
  /// after every windowed fault healed, relative to the heal instant
  /// (ms). 0 when the plan is empty or nothing committed post-heal.
  double catch_up_ms = 0.0;
};

/// Run one fault-injected cluster simulation and check every invariant.
SwarmCaseResult run_swarm_case(const SwarmCaseConfig& config);

}  // namespace predis::core
