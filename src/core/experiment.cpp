#include "core/experiment.hpp"

#include <memory>
#include <vector>

#include "common/sha256.hpp"
#include "consensus/hotstuff/hotstuff_node.hpp"
#include "core/ledger.hpp"
#include "consensus/narwhal/shared_mempool.hpp"
#include "consensus/pbft/pbft_node.hpp"
#include "consensus/predis/predis_nodes.hpp"
#include "runtime/environments.hpp"
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

const char* protocol_flag(Protocol p) {
  switch (p) {
    case Protocol::kPbft:
      return "pbft";
    case Protocol::kHotStuff:
      return "hotstuff";
    case Protocol::kPredisPbft:
      return "p-pbft";
    case Protocol::kPredisHotStuff:
      return "p-hs";
    case Protocol::kNarwhal:
      return "narwhal";
    case Protocol::kStratus:
      return "stratus";
  }
  return "?";
}

std::optional<Protocol> parse_protocol(const std::string& flag) {
  if (flag == "predis") return Protocol::kPredisPbft;
  for (Protocol p : {Protocol::kPbft, Protocol::kHotStuff,
                     Protocol::kPredisPbft, Protocol::kPredisHotStuff,
                     Protocol::kNarwhal, Protocol::kStratus}) {
    if (flag == protocol_flag(p)) return p;
  }
  return std::nullopt;
}

ConsensusNode make_consensus_node(const ClusterConfig& cfg, std::size_t index,
                                  NodeContext ctx,
                                  const std::vector<PublicKey>& keys,
                                  CommitLedger& ledger, BlockTracer* tracer,
                                  CommittedBlockHook on_commit) {
  ConsensusNode out;
  // Hands the node to `out` and returns it typed, for the handles.
  auto install = [&](auto node) {
    node->on_committed_block = std::move(on_commit);
    auto* typed = node.get();
    out.actor = std::move(node);
    return typed;
  };
  switch (cfg.protocol) {
    case Protocol::kPbft: {
      pbft::PbftNodeConfig ncfg;
      ncfg.batch_size = cfg.batch_size;
      ncfg.pipeline_window = cfg.pbft_pipeline_window;
      auto* node = install(std::make_unique<pbft::PbftNode>(ctx, ncfg, ledger));
      out.pbft = &node->core();
      out.pbft->set_tracer(tracer);
      break;
    }
    case Protocol::kHotStuff: {
      hotstuff::HotStuffNodeConfig ncfg;
      ncfg.batch_size = cfg.batch_size;
      auto* node =
          install(std::make_unique<hotstuff::HotStuffNode>(ctx, ncfg, ledger));
      out.hotstuff = &node->core();
      out.hotstuff->set_tracer(tracer);
      break;
    }
    case Protocol::kPredisPbft:
    case Protocol::kPredisHotStuff: {
      predis::PredisConfig pcfg;
      pcfg.bundle_size = cfg.bundle_size;
      pcfg.bundle_interval = cfg.bundle_interval;
      pcfg.seed = cfg.seed;
      pcfg.cut_f_override = cfg.cut_f_override;
      if (index + cfg.n_faulty >= cfg.n_consensus) pcfg.fault = cfg.fault_mode;
      const KeyPair own = KeyPair::from_seed(ctx.self());
      if (cfg.protocol == Protocol::kPredisPbft) {
        auto* node = install(std::make_unique<predis::PredisPbftNode>(
            ctx, pcfg, keys, own, ledger));
        out.engine = &node->engine();
        out.pbft = &node->core();
      } else {
        auto* node = install(std::make_unique<predis::PredisHotStuffNode>(
            ctx, pcfg, keys, own, ledger));
        out.engine = &node->engine();
        out.hotstuff = &node->core();
      }
      // The engine traces the full bundle + block lifecycle; the core
      // stays untraced to avoid double-counting proposals.
      out.engine->set_tracer(tracer);
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
      out.pool = install(
          std::make_unique<narwhal::SharedMempoolNode>(ctx, ncfg, ledger));
      out.pool->set_tracer(tracer);
      out.hotstuff = &out.pool->core();
      break;
    }
  }
  ctx.net().attach(ctx.self(), out.actor.get());
  return out;
}

Deployment::Deployment(runtime::RunContext ctx, runtime::LatencyMatrix latency,
                       std::size_t n_consensus, std::size_t f,
                       std::size_t regions)
    : ctx_(std::move(ctx)),
      sim_(std::move(latency)),
      net_(ctx_.backend != nullptr ? *ctx_.backend : sim_.runtime()) {
  // Default backend: the deterministic discrete-event simulator. A
  // caller may swap in any other Runtime (e.g. ThreadRuntime) through
  // ctx.backend; runners only speak the Runtime seam.
  if (ctx_.trace != nullptr) net_.set_tracer(ctx_.trace);
  for (std::size_t i = 0; i < n_consensus; ++i) {
    ccfg.nodes.push_back(net_.add_node(
        runtime::node_100mbps(static_cast<std::uint32_t>(i % regions))));
  }
  ccfg.f = f;
  keys = producer_keys(ccfg.nodes);
}

void Deployment::run(SimTime until, const std::vector<NodeId>& others) {
  if (ctx_.on_network_ready) ctx_.on_network_ready(net_, ccfg.nodes, others);
  net_.start();
  net_.run_until(until);
}

RunReport Deployment::report(SimTime from, SimTime to) const {
  RunReport r;
  r.throughput_tps = metrics.throughput_tps(from, to);
  const Percentiles latencies = metrics.latencies();
  r.latency_samples = latencies.count();
  r.avg_latency_ms = latencies.mean();
  r.p50_latency_ms = latencies.percentile(50);
  r.p99_latency_ms = latencies.percentile(99);
  r.committed_txs = metrics.committed_txs();
  r.consistent = ledger.consistent();
  r.consensus_uplink_mbps = runtime::mean_uplink_mbps(net_, ccfg.nodes);
  if (ctx_.tracer != nullptr) r.stage_latency = ctx_.tracer->stage_breakdown();
  return r;
}

ClusterResult run_cluster(const ClusterConfig& cfg) {
  const std::size_t regions = cfg.wan ? runtime::kWanRegions : 1;
  Deployment d(cfg.ctx,
               cfg.wan ? runtime::wan_latency() : runtime::lan_latency(),
               cfg.n_consensus, cfg.f, regions);
  d.ccfg.view_timeout = cfg.view_timeout;
  d.ccfg.propose_until = cfg.duration;

  // One hash-chained ledger per consensus node (§II: full nodes keep
  // the history of the ledger); checked for prefix consistency below.
  std::vector<Ledger> ledgers(cfg.n_consensus);

  std::vector<ConsensusNode> nodes;
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    auto record = [&ledgers, i](const Hash32& digest, const Hash32& tx_root,
                                std::size_t tx_count, SimTime when) {
      ledgers[i].append_block(digest, tx_root, tx_count, when);
    };
    nodes.push_back(make_consensus_node(cfg, i, d.context(i), d.keys,
                                        d.ledger, cfg.ctx.tracer, record));
  }

  // --- Clients ----------------------------------------------------------
  ClientConfig shape;
  shape.tx_per_second =
      cfg.offered_load_tps / static_cast<double>(cfg.n_clients);
  shape.tx_size = cfg.tx_size;
  shape.stop_at = cfg.duration;
  shape.record_from = cfg.warmup;
  shape.seed = cfg.seed * 1000;
  const auto clients =
      add_clients(d.net(), d.consensus_ids(), cfg.n_clients, regions,
                  clients_broadcast(cfg.protocol), shape, d.metrics);

  // --- Run --------------------------------------------------------------
  std::vector<NodeId> client_ids;
  for (const auto& c : clients) client_ids.push_back(c->id());
  d.run(cfg.duration + cfg.drain, client_ids);

  // --- Collect ------------------------------------------------------------
  ClusterResult result;
  static_cast<RunReport&>(result) = d.report(cfg.warmup, cfg.duration);
  result.submitted_txs = d.metrics.submitted_txs();
  result.commit_events = d.metrics.commit_events();
  result.shed_uplink_txs = d.metrics.shed_txs(ShedReason::kUplinkBacklog);
  result.shed_unconfirmed_txs =
      d.metrics.shed_txs(ShedReason::kUnconfirmedCap);

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

  result.leader_proposal_bytes =
      d.net().stats(d.consensus_ids()[0]).bytes_sent;
  {
    Writer w;
    for (const Ledger& l : ledgers) {
      w.u64(l.size());
      w.hash(l.head_hash());
    }
    w.u64(result.committed_txs);
    result.commit_digest = to_hex(Sha256::hash(w.data()));
  }
  return result;
}

}  // namespace predis::core
