#include "core/experiment.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/sha256.hpp"
#include "consensus/hotstuff/hotstuff_node.hpp"
#include "core/ledger.hpp"
#include "consensus/narwhal/shared_mempool.hpp"
#include "consensus/pbft/pbft_node.hpp"
#include "consensus/predis/predis_nodes.hpp"
#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"
#include "txpool/client.hpp"

namespace predis::core {

using namespace predis::consensus;

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kPbft:
      return "PBFT";
    case Protocol::kHotStuff:
      return "HotStuff";
    case Protocol::kPredisPbft:
      return "P-PBFT";
    case Protocol::kPredisHotStuff:
      return "P-HS";
    case Protocol::kNarwhal:
      return "Narwhal";
    case Protocol::kStratus:
      return "Stratus";
  }
  return "?";
}

namespace {

bool is_predis_style(Protocol p) {
  return p == Protocol::kPredisPbft || p == Protocol::kPredisHotStuff ||
         p == Protocol::kNarwhal || p == Protocol::kStratus;
}

}  // namespace

ClusterResult run_cluster(const ClusterConfig& cfg) {
  // Default backend: the deterministic discrete-event simulator. A
  // caller may swap in any other Runtime (e.g. ThreadRuntime) through
  // cfg.ctx.backend; the assembly below only speaks the Runtime seam.
  runtime::SimRuntime sim_backend(cfg.wan ? runtime::wan_latency()
                                          : runtime::lan_latency());
  runtime::Runtime& net =
      cfg.ctx.backend != nullptr ? *cfg.ctx.backend : sim_backend.runtime();
  if (cfg.ctx.trace != nullptr) net.set_tracer(cfg.ctx.trace);
  const std::size_t regions = cfg.wan ? runtime::kWanRegions : 1;

  // --- Consensus nodes -------------------------------------------------
  std::vector<NodeId> consensus_ids;
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    consensus_ids.push_back(net.add_node(
        runtime::node_100mbps(static_cast<std::uint32_t>(i % regions))));
  }

  ConsensusConfig ccfg;
  ccfg.nodes = consensus_ids;
  ccfg.f = cfg.f;
  ccfg.view_timeout = cfg.view_timeout;
  ccfg.propose_until = cfg.duration;

  // Producer keys are derived from network node ids (one convention
  // shared by every engine and verifier).
  std::vector<PublicKey> keys;
  for (NodeId id : consensus_ids) {
    keys.push_back(KeyPair::from_seed(id).public_key());
  }

  Metrics metrics;
  CommitLedger ledger(metrics);
  // One hash-chained ledger per consensus node (§II: full nodes keep
  // the history of the ledger); checked for prefix consistency below.
  std::vector<Ledger> ledgers(cfg.n_consensus);

  std::vector<std::unique_ptr<runtime::Actor>> actors;
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    NodeContext ctx(net, consensus_ids[i], ccfg);
    const bool faulty = i + cfg.n_faulty >= cfg.n_consensus &&
                        cfg.fault_mode != predis::FaultMode::kNone;
    auto record = [&ledgers, i](const Hash32& digest,
                                const std::vector<Transaction>& txs,
                                SimTime when) {
      ledgers[i].append_block(digest, txs, when);
    };

    switch (cfg.protocol) {
      case Protocol::kPbft: {
        pbft::PbftNodeConfig ncfg;
        ncfg.batch_size = cfg.batch_size;
        ncfg.pipeline_window = cfg.pbft_pipeline_window;
        auto node = std::make_unique<pbft::PbftNode>(ctx, ncfg, ledger);
        node->on_committed_block = record;
        node->core().set_tracer(cfg.ctx.tracer);
        actors.push_back(std::move(node));
        break;
      }
      case Protocol::kHotStuff: {
        hotstuff::HotStuffNodeConfig ncfg;
        ncfg.batch_size = cfg.batch_size;
        auto node =
            std::make_unique<hotstuff::HotStuffNode>(ctx, ncfg, ledger);
        node->on_committed_block = record;
        node->core().set_tracer(cfg.ctx.tracer);
        actors.push_back(std::move(node));
        break;
      }
      case Protocol::kPredisPbft:
      case Protocol::kPredisHotStuff: {
        predis::PredisConfig pcfg;
        pcfg.bundle_size = cfg.bundle_size;
        pcfg.bundle_interval = cfg.bundle_interval;
        pcfg.seed = cfg.seed;
        pcfg.cut_f_override = cfg.cut_f_override;
        pcfg.fault = faulty ? cfg.fault_mode : predis::FaultMode::kNone;
        KeyPair own = KeyPair::from_seed(consensus_ids[i]);
        if (cfg.protocol == Protocol::kPredisPbft) {
          auto node = std::make_unique<predis::PredisPbftNode>(
              ctx, pcfg, keys, own, ledger);
          node->on_committed_block = record;
          // The engine traces the full bundle + block lifecycle; the
          // core stays untraced to avoid double-counting proposals.
          node->engine().set_tracer(cfg.ctx.tracer);
          actors.push_back(std::move(node));
        } else {
          auto node = std::make_unique<predis::PredisHotStuffNode>(
              ctx, pcfg, keys, own, ledger);
          node->on_committed_block = record;
          node->engine().set_tracer(cfg.ctx.tracer);
          actors.push_back(std::move(node));
        }
        break;
      }
      case Protocol::kNarwhal:
      case Protocol::kStratus: {
        narwhal::SharedMempoolConfig ncfg;
        ncfg.microblock_size = cfg.bundle_size;
        ncfg.pack_interval = cfg.bundle_interval;
        ncfg.id_cap = cfg.microblock_id_cap;
        ncfg.seed = cfg.seed;
        ncfg.ack_quorum = cfg.protocol == Protocol::kNarwhal
                              ? cfg.n_consensus - cfg.f  // RBC
                              : cfg.f + 1;               // PAB
        auto node = std::make_unique<narwhal::SharedMempoolNode>(
            ctx, ncfg, ledger);
        node->on_committed_block = record;
        node->set_tracer(cfg.ctx.tracer);
        actors.push_back(std::move(node));
        break;
      }
    }
    net.attach(consensus_ids[i], actors.back().get());
  }

  // --- Clients ----------------------------------------------------------
  const double per_client = cfg.offered_load_tps /
                            static_cast<double>(cfg.n_clients);
  std::vector<std::unique_ptr<ClientActor>> clients;
  for (std::size_t c = 0; c < cfg.n_clients; ++c) {
    runtime::NodeConfig ncfg;
    ncfg.region = static_cast<std::uint32_t>(c % regions);
    // Clients are not the system under test: give them fat pipes so the
    // consensus layer is the bottleneck, as in the paper's testbed
    // (many client instances).
    ncfg.up_bw = 10 * runtime::kBandwidth100Mbps;
    ncfg.down_bw = 10 * runtime::kBandwidth100Mbps;
    const NodeId id = net.add_node(ncfg);

    ClientConfig ccfg2;
    ccfg2.self = id;
    if (is_predis_style(cfg.protocol)) {
      ccfg2.targets = {consensus_ids[c % cfg.n_consensus]};
    } else {
      ccfg2.targets = consensus_ids;  // broadcast, standard BFT client
    }
    ccfg2.tx_per_second = per_client;
    ccfg2.tx_size = cfg.tx_size;
    ccfg2.stop_at = cfg.duration;
    ccfg2.record_from = cfg.warmup;
    ccfg2.seed = cfg.seed * 1000 + c;
    clients.push_back(std::make_unique<ClientActor>(net, ccfg2, metrics));
    net.attach(id, clients.back().get());
  }

  // --- Run --------------------------------------------------------------
  std::vector<NodeId> client_ids;
  for (const auto& c : clients) client_ids.push_back(c->id());
  if (cfg.ctx.on_network_ready) {
    cfg.ctx.on_network_ready(net, consensus_ids, client_ids);
  }
  net.start();
  net.run_until(cfg.duration + cfg.drain);

  // --- Collect ------------------------------------------------------------
  ClusterResult result;
  result.throughput_tps = metrics.throughput_tps(cfg.warmup, cfg.duration);
  const Percentiles latencies = metrics.latencies();
  result.latency_samples = latencies.count();
  result.avg_latency_ms = latencies.mean();
  result.p50_latency_ms = latencies.percentile(50);
  result.p99_latency_ms = latencies.percentile(99);
  result.committed_txs = metrics.committed_txs();
  result.submitted_txs = metrics.submitted_txs();
  result.commit_events = metrics.commit_events();
  result.consistent = ledger.consistent();

  result.ledger_blocks_min = ledgers.empty() ? 0 : ledgers[0].size();
  for (const Ledger& l : ledgers) {
    result.ledgers_consistent =
        result.ledgers_consistent && l.verify_chain() &&
        l.prefix_consistent_with(ledgers[0]);
    result.ledger_blocks_min =
        std::min<std::uint64_t>(result.ledger_blocks_min, l.size());
    result.ledger_blocks_max =
        std::max<std::uint64_t>(result.ledger_blocks_max, l.size());
  }

  result.consensus_uplink_mbps = runtime::mean_uplink_mbps(net, consensus_ids);
  result.leader_proposal_bytes = net.stats(consensus_ids[0]).bytes_sent;
  if (cfg.ctx.tracer != nullptr) {
    result.stage_latency = cfg.ctx.tracer->stage_breakdown();
  }
  {
    Writer w;
    for (const Ledger& l : ledgers) {
      w.u64(l.size());
      w.hash(l.head_hash());
    }
    w.u64(metrics.committed_txs());
    result.commit_digest = to_hex(Sha256::hash(w.data()));
  }
  return result;
}

}  // namespace predis::core
