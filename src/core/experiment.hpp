// Public experiment API: assemble a simulated permissioned-blockchain
// cluster for any of the six protocols the paper evaluates, drive it
// with an open-loop client workload, and report throughput / latency /
// bandwidth — the quantities behind Figs. 4-6.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/block_tracer.hpp"
#include "common/types.hpp"
#include "consensus/predis/predis_engine.hpp"
#include "runtime/run_context.hpp"
#include "runtime/sim_runtime.hpp"

namespace predis::consensus {
namespace pbft {
class PbftCore;
}
namespace hotstuff {
class HotStuffCore;
}
namespace narwhal {
class SharedMempoolNode;
}
}  // namespace predis::consensus

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
/// Command-line spelling ("pbft", "p-pbft", ...); parse_protocol reads
/// it back and also accepts "predis" for P-PBFT.
const char* protocol_flag(Protocol p);
std::optional<Protocol> parse_protocol(const std::string& flag);

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

/// What every run reports, declared once: ClusterResult and
/// multizone::ThroughputResult extend it, and Deployment::report fills
/// it.
struct RunReport {
  double throughput_tps = 0.0;   ///< Committed tx/s in the measured window.
  double avg_latency_ms = 0.0;   ///< Client-observed, post-warmup.
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Latency samples behind the three figures above; 0 means they are
  /// undefined (reports print null / "no samples"), not 0 ms.
  std::uint64_t latency_samples = 0;
  std::uint64_t committed_txs = 0;  ///< Transactions, not blocks.
  bool consistent = true;           ///< No two nodes decided differently.
  /// Mean consensus-node uplink use (runtime::mean_uplink_mbps).
  double consensus_uplink_mbps = 0.0;
  /// Filled when ctx.tracer was set: per-stage latency breakdowns.
  std::vector<TraceStageStats> stage_latency;
};

struct ClusterResult : RunReport {
  std::uint64_t submitted_txs = 0;
  std::size_t commit_events = 0;  ///< Blocks/batches decided.
  /// Client transactions the shared-mempool producers (P-PBFT, P-HS,
  /// Narwhal, Stratus) shed at admission: uplink backlog past its limit,
  /// or admitted-but-unconfirmed transactions at the cap.
  std::uint64_t shed_uplink_txs = 0;
  std::uint64_t shed_unconfirmed_txs = 0;
  /// Per-node hash-chained ledgers agreed on every common height.
  bool ledgers_consistent = true;
  std::uint64_t ledger_blocks_min = 0;  ///< Slowest node's chain length.
  std::uint64_t ledger_blocks_max = 0;
  std::uint64_t leader_proposal_bytes = 0;  ///< Proposal traffic (node 0).
  /// SHA-256 over every node's final hash-chained ledger (lengths +
  /// head hashes) and the committed-tx count. Two runs that decided the
  /// same blocks in the same order agree on this string; the
  /// golden-digest tests pin it for a fixed scenario.
  std::string commit_digest;
};

/// The consensus layer of one run, built once: backend, trace hasher,
/// the n_c consensus node ids, their ConsensusConfig and keys, and the
/// commit metrics every runner reports from. Runners set their own
/// policy on `ccfg` (view timeout, proposal stop) before building nodes
/// with context(i), then add their other nodes and clients, in that
/// order, through net().
class Deployment {
  runtime::RunContext ctx_;
  runtime::SimRuntime sim_;
  runtime::Runtime& net_;

 public:
  /// Runs on ctx.backend when set, else on an internal SimRuntime over
  /// `latency`; installs ctx.trace; consensus node i sits in region
  /// i mod `regions`.
  Deployment(runtime::RunContext ctx, runtime::LatencyMatrix latency,
             std::size_t n_consensus, std::size_t f, std::size_t regions);

  runtime::Runtime& net() const { return net_; }
  const std::vector<NodeId>& consensus_ids() const { return ccfg.nodes; }
  /// Context of consensus node `i` under the current `ccfg`.
  consensus::NodeContext context(std::size_t i) const {
    return consensus::NodeContext(net_, ccfg.nodes[i], ccfg);
  }

  /// Fires ctx.on_network_ready(net, consensus ids, `others`), then
  /// starts the backend and runs it to `until`.
  void run(SimTime until, const std::vector<NodeId>& others);
  /// Throughput over [from, to], client latencies, committed
  /// transactions, commit agreement, consensus uplink and, with a
  /// tracer, the stage breakdown.
  RunReport report(SimTime from, SimTime to) const;

  consensus::ConsensusConfig ccfg;  ///< nodes: the consensus ids; f.
  std::vector<PublicKey> keys;      ///< consensus::producer_keys.
  Metrics metrics;
  consensus::CommitLedger ledger{metrics};
};

/// One consensus node and the typed handles harnesses read after a
/// run; a handle the protocol does not have is null.
struct ConsensusNode {
  std::unique_ptr<runtime::Actor> actor;
  consensus::predis::PredisEngine* engine = nullptr;  ///< P-PBFT, P-HS.
  consensus::pbft::PbftCore* pbft = nullptr;          ///< PBFT, P-PBFT.
  /// HotStuff, P-HS, Narwhal, Stratus.
  consensus::hotstuff::HotStuffCore* hotstuff = nullptr;
  /// Narwhal, Stratus.
  consensus::narwhal::SharedMempoolNode* pool = nullptr;
};

/// Build consensus node `index` of `cfg.protocol` and attach it to
/// ctx's runtime: the one place a Protocol picks a node type. Sizes,
/// seed and fault mode come from `cfg` (the last `cfg.n_faulty` nodes
/// run `cfg.fault_mode`); `keys` are the producer keys
/// (consensus::producer_keys). Every node records into `ledger`,
/// traces into `tracer` (may be null) and reports executed blocks to
/// `on_commit`.
ConsensusNode make_consensus_node(const ClusterConfig& cfg, std::size_t index,
                                  consensus::NodeContext ctx,
                                  const std::vector<PublicKey>& keys,
                                  consensus::CommitLedger& ledger,
                                  BlockTracer* tracer,
                                  consensus::CommittedBlockHook on_commit = {});

/// Clients of the baseline protocols (PBFT, HotStuff) broadcast to
/// every replica; shared-mempool clients send to one consensus node.
inline bool clients_broadcast(Protocol p) {
  return p == Protocol::kPbft || p == Protocol::kHotStuff;
}

/// Run one cluster simulation to completion and report.
ClusterResult run_cluster(const ClusterConfig& config);

}  // namespace predis::core
