#include "core/swarm.hpp"

#include "common/thread_annotations.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/codec.hpp"
#include "core/recovery.hpp"
#include "consensus/hotstuff/hotstuff_node.hpp"
#include "consensus/narwhal/shared_mempool.hpp"
#include "consensus/pbft/pbft_node.hpp"
#include "consensus/predis/predis_nodes.hpp"
#include "runtime/environments.hpp"
#include "txpool/client.hpp"

namespace predis::core {

using namespace predis::consensus;

namespace {

bool has_predis_engine(Protocol p) {
  return p == Protocol::kPredisPbft || p == Protocol::kPredisHotStuff;
}

}  // namespace

SwarmCaseResult run_swarm_case(const SwarmCaseConfig& cfg) {
  runtime::TraceHasher tracer;
  runtime::RunContext ctx;
  ctx.trace = &tracer;
  const std::size_t regions = cfg.wan ? runtime::kWanRegions : 1;
  Deployment d(ctx, cfg.wan ? runtime::wan_latency() : runtime::lan_latency(),
               cfg.n_consensus, cfg.f, regions);
  runtime::Runtime& net = d.net();
  const std::vector<NodeId>& consensus_ids = d.consensus_ids();

  // Block-lifecycle tracer shared by every consensus node: its folded
  // metrics digest must be reproducible for a given seed, which the
  // swarm tool's --verify-determinism sweep asserts.
  BlockTracer block_tracer;

  // --- Fault schedule --------------------------------------------------
  runtime::FaultPlanConfig fplan = cfg.faults;
  fplan.seed = cfg.seed;
  if (cfg.attack != AttackKind::kNone) {
    configure_attack(fplan, cfg.attack, cfg.faults.events);
  }
  fplan.max_crashed = std::min(fplan.max_crashed, cfg.f);
  fplan.max_equivocators = std::min(fplan.max_equivocators, cfg.f);
  fplan.max_withholders = std::min(fplan.max_withholders, cfg.f);
  fplan.max_garbage = std::min(fplan.max_garbage, cfg.f);
  // Equivocation needs a bundle producer to corrupt.
  fplan.equivocation =
      fplan.equivocation && has_predis_engine(cfg.protocol);
  runtime::FaultScheduler faults(net, consensus_ids, fplan);

  InvariantConfig icfg = cfg.invariants;
  icfg.n_nodes = cfg.n_consensus;
  icfg.f = cfg.f;
  icfg.quiet_after = faults.healed_by();
  // Serialized P-PBFT proposers always build on the last committed
  // block, so consecutive executed blocks must hash-chain there.
  if (cfg.protocol == Protocol::kPredisPbft) icfg.check_chain_link = true;
  InvariantChecker inv(icfg);

  // Per-node first commit at-or-after the heal instant: the recovery
  // campaign's time-to-catch-up is the slowest node's gap to it.
  const SimTime healed_at = faults.healed_by();
  std::vector<SimTime> first_commit_after_heal(cfg.n_consensus, 0);
  d.ledger.set_observer([&inv, &first_commit_after_heal, healed_at](
                            std::size_t node_index, std::uint64_t slot,
                            const Hash32& digest, std::size_t /*tx_count*/,
                            SimTime when) {
    inv.on_commit(node_index, slot, digest, when);
    if (healed_at > 0 && when >= healed_at &&
        node_index < first_commit_after_heal.size() &&
        first_commit_after_heal[node_index] == 0) {
      first_commit_after_heal[node_index] = when;
    }
  });

  // A default ClusterConfig carries the node-config defaults; swarm sets
  // only protocol, size and seed. The typed handles let the collect
  // block read recovery counters (catch-up batches, stall escalations,
  // GC accounting) without reflection.
  ClusterConfig node_cfg;
  node_cfg.protocol = cfg.protocol;
  node_cfg.n_consensus = cfg.n_consensus;
  node_cfg.f = cfg.f;
  node_cfg.seed = cfg.seed;
  std::vector<ConsensusNode> nodes;
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    nodes.push_back(make_consensus_node(node_cfg, i, d.context(i), d.keys,
                                        d.ledger, &block_tracer));
    const std::uint64_t rseed = cfg.seed ^ ((i + 1) * 0x9e3779b9ULL);
    const ConsensusNode& node = nodes.back();
    if (node.pbft != nullptr) node.pbft->set_recovery_seed(rseed);
    if (node.hotstuff != nullptr) node.hotstuff->set_recovery_seed(rseed);

    if (predis::PredisEngine* engine = node.engine) {
      engine->on_block_executed =
          [&inv, &net, engine, i](const PredisBlock& block,
                                  const std::vector<Transaction>&) {
            inv.on_predis_executed(i, block, engine->mempool(), net.now());
          };
      engine->on_block_proposal = [&inv, &net, i](
                                      const PredisBlock& block) {
        inv.on_predis_proposed(i, block, net.now());
      };
      engine->mempool().on_ban = [&inv, &net, i](NodeId producer) {
        inv.on_ban(i, producer, net.now());
      };
      engine->mempool().on_unban = [&inv, i](NodeId producer) {
        inv.on_unban(i, producer);
      };
    }
  }

  faults.on_equivocate = [&](NodeId id) {
    for (std::size_t i = 0; i < consensus_ids.size(); ++i) {
      if (consensus_ids[i] != id) continue;
      inv.set_byzantine(i, true);
      if (nodes[i].engine != nullptr) nodes[i].engine->inject_equivocation();
    }
  };
  // Hostile-injector and withholding hooks. The injector sends garbage
  // *as* the attacker (its signature, its uplink); invariants excuse
  // the node because signed junk at absurd heights can legitimately get
  // it banned. A withholder looks like a silent producer to everyone
  // else, so it too is excused from producer-side invariants.
  HostileInjector injector(net, cfg.protocol, consensus_ids);
  auto excuse = [&](NodeId id) {
    for (std::size_t i = 0; i < consensus_ids.size(); ++i) {
      if (consensus_ids[i] == id) inv.set_byzantine(i, true);
    }
  };
  faults.on_garbage = [&](NodeId id, SimTime window) {
    excuse(id);
    // Spread a handful of bursts over the fault window.
    constexpr std::size_t kBursts = 4;
    for (std::size_t b = 0; b < kBursts; ++b) {
      PREDIS_FIRE_AND_FORGET(net.schedule_after(
          window * static_cast<SimTime>(b) / static_cast<SimTime>(kBursts),
          [&injector, id] { injector.burst(id); }));
    }
  };
  faults.on_withhold = excuse;
  faults.arm();

  // --- Clients ---------------------------------------------------------
  ClientConfig shape;
  shape.tx_per_second =
      cfg.offered_load_tps / static_cast<double>(cfg.n_clients);
  shape.tx_size = cfg.tx_size;
  shape.stop_at = cfg.duration;
  shape.seed = cfg.seed * 1000;
  const auto clients =
      add_clients(net, consensus_ids, cfg.n_clients, regions,
                  clients_broadcast(cfg.protocol), shape, d.metrics);

  // --- Run -------------------------------------------------------------
  d.run(cfg.duration + milliseconds(500), {});
  inv.finalize();

  // --- Collect ---------------------------------------------------------
  SwarmCaseResult result;
  result.seed = cfg.seed;
  result.ok = inv.ok();
  result.violations = inv.violations();
  result.report = inv.report();
  result.fault_plan = faults.describe();
  result.trace_digest = tracer.digest();
  result.trace_events = tracer.events();
  result.committed_txs = d.metrics.committed_txs();
  result.hostile_msgs = injector.injected();
  {
    const auto samples = block_tracer.stage_samples();
    const auto it = samples.find("production");
    if (it != samples.end() && it->second.count() > 0) {
      result.production_p99_ms = it->second.percentile(99.0);
    }
  }
  {
    // The tracer digest covers every stage timestamp, ban and pull. Fold
    // the degradation metrics in as well: a nondeterministic commit
    // count or latency tail must flip the digest even if the trace
    // content itself happened to collide.
    Writer w;
    w.hash(block_tracer.digest());
    w.u64(result.committed_txs);
    w.u64(static_cast<std::uint64_t>(result.production_p99_ms * 1000.0));
    result.metrics_digest = Sha256::hash(BytesView{w.data()});
  }
  result.commits_checked = inv.commits_checked();
  result.reconstructions_checked = inv.reconstructions_checked();
  result.faults_injected = faults.faults_injected();
  result.committed_slots = d.ledger.committed_slots();
  result.throughput_tps = d.metrics.throughput_tps(0, cfg.duration);
  result.healed_by = faults.healed_by();
  if (result.healed_by > 0 && result.healed_by < cfg.duration) {
    result.post_heal_tps =
        d.metrics.throughput_tps(result.healed_by, cfg.duration);
  }

  // Recovery counters, summed across nodes. GC stats come from every
  // layer that prunes below a checkpoint: consensus slot/block logs and
  // (for Predis) the mempool bundle chains.
  for (const ConsensusNode& node : nodes) {
    GcStats gc;
    if (node.pbft != nullptr) {
      result.catch_up_batches += node.pbft->catch_up_batches();
      result.state_transfers +=
          static_cast<std::size_t>(node.pbft->state_transfers());
      result.sync_stalls += node.pbft->sync_stalls();
      gc.merge(node.pbft->gc_stats());
    }
    if (node.hotstuff != nullptr) {
      result.catch_up_batches += node.hotstuff->catch_up_batches();
      result.sync_stalls += node.hotstuff->sync_stalls();
      gc.merge(node.hotstuff->gc_stats());
    }
    if (node.pool != nullptr) gc.merge(node.pool->gc_stats());
    if (node.engine != nullptr) {
      result.sync_stalls += node.engine->fetch_stalls();
      gc.merge(node.engine->gc_stats());
    }
    result.gc_bytes += gc.bytes;
    result.gc_items += gc.items;
  }
  result.duplicate_payloads = d.ledger.duplicate_payloads();
  if (result.healed_by > 0 && result.healed_by < cfg.duration) {
    SimTime latest = 0;
    for (const SimTime t : first_commit_after_heal) {
      latest = std::max(latest, t);
    }
    if (latest > 0) {
      result.catch_up_ms = to_milliseconds(latest - result.healed_by);
    }
  }
  return result;
}

}  // namespace predis::core
