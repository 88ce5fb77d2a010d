#include "multizone/experiments.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>

#include "common/metrics.hpp"
#include "common/thread_annotations.hpp"
#include "multizone/consensus_distributor.hpp"
#include "multizone/full_node.hpp"
#include "multizone/random_gossip.hpp"
#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"
#include "txpool/client.hpp"

namespace predis::multizone {

using namespace predis::consensus;

const char* to_string(Topology t) {
  switch (t) {
    case Topology::kStar:
      return "star";
    case Topology::kRandom:
      return "random";
    case Topology::kMultiZone:
      return "multi-zone";
  }
  return "?";
}

// =====================================================================
// Fig. 7 — consensus throughput under distribution load
// =====================================================================

ThroughputResult run_distribution_cluster(const ThroughputConfig& cfg) {
  runtime::SimRuntime sim_backend((runtime::lan_latency()));
  runtime::Runtime& net =
      cfg.ctx.backend != nullptr ? *cfg.ctx.backend : sim_backend.runtime();
  if (cfg.ctx.trace != nullptr) net.set_tracer(cfg.ctx.trace);

  // Consensus nodes.
  std::vector<NodeId> consensus_ids;
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    consensus_ids.push_back(net.add_node(runtime::node_100mbps(0)));
  }

  // Clients start once the join churn has settled (the paper's testbed
  // likewise measures an established topology); computed up front so
  // the consensus config can stop proposals at load-stop time.
  const SimTime setup = cfg.topology == Topology::kMultiZone
                            ? static_cast<SimTime>(cfg.n_full) *
                                      milliseconds(120) +
                                  milliseconds(1500)
                            : 0;

  ConsensusConfig ccfg;
  ccfg.nodes = consensus_ids;
  ccfg.f = cfg.f;
  ccfg.propose_until = setup + cfg.duration;

  std::vector<PublicKey> keys;
  for (NodeId id : consensus_ids) {
    keys.push_back(KeyPair::from_seed(id).public_key());
  }

  Metrics metrics;
  CommitLedger ledger(metrics);
  ZoneDirectory dir(std::max<std::size_t>(1, cfg.n_zones));
  dir.set_consensus_nodes(consensus_ids);

  MultiZoneConfig mzcfg;
  mzcfg.n_consensus = cfg.n_consensus;
  mzcfg.f = cfg.f;
  mzcfg.n_zones = cfg.n_zones;
  // Keep the in-zone stripe distribution a *tree*, not a star on each
  // relayer: a provider relaying every bundle's stripe can serve only a
  // few children before its 100 Mbps uplink saturates, so cap fan-out
  // and let subscription referrals deepen the tree (SplitStream-style).
  mzcfg.max_subscribers = 4;
  mzcfg.real_stripe_payloads = cfg.real_stripe_payloads;

  const DistributionMode mode = cfg.topology == Topology::kStar
                                    ? DistributionMode::kStar
                                    : DistributionMode::kMultiZone;

  std::vector<std::unique_ptr<MultiZoneConsensusNode>> consensus;
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    NodeContext ctx(net, consensus_ids[i], ccfg);
    predis::PredisConfig pcfg;
    pcfg.bundle_size = cfg.bundle_size;
    pcfg.seed = cfg.seed;
    // Serve distribution-layer pulls long after commit: full nodes may
    // lag seconds behind the consensus layer.
    pcfg.gc_retention = 4096;
    consensus.push_back(std::make_unique<MultiZoneConsensusNode>(
        ctx, pcfg, keys, KeyPair::from_seed(consensus_ids[i]), ledger,
        mzcfg, dir, mode));
    consensus.back()->set_tracer(cfg.ctx.tracer);
    net.attach(consensus_ids[i], consensus.back().get());
  }

  // Full nodes.
  std::vector<NodeId> full_ids;
  for (std::size_t i = 0; i < cfg.n_full; ++i) {
    full_ids.push_back(net.add_node(runtime::node_100mbps(0)));
  }

  // Capture maps are written from actor callbacks; on the threaded
  // backend those fire on different workers, so guard them.
  std::mutex capture_m;
  std::map<std::uint64_t, SimTime> announced_at;   // block height -> time
  std::map<std::uint64_t, std::size_t> completions;  // height -> count

  std::vector<std::unique_ptr<runtime::Actor>> full_nodes;
  std::vector<MultiZoneFullNode*> mz_nodes;
  if (cfg.topology == Topology::kStar) {
    // Round-robin assignment of full nodes to consensus nodes.
    std::vector<std::vector<NodeId>> children(cfg.n_consensus);
    for (std::size_t i = 0; i < full_ids.size(); ++i) {
      children[i % cfg.n_consensus].push_back(full_ids[i]);
    }
    for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
      consensus[i]->set_star_children(std::move(children[i]));
    }
    for (NodeId id : full_ids) {
      auto node = std::make_unique<StarFullNode>(net);
      node->set_tracer(cfg.ctx.tracer, id);
      node->on_block = [&completions, &capture_m](std::uint64_t id,
                                                  SimTime) {
        std::lock_guard<std::mutex> lock(capture_m);
        ++completions[id];
      };
      net.attach(id, node.get());
      full_nodes.push_back(std::move(node));
    }
  } else {
    for (std::size_t i = 0; i < full_ids.size(); ++i) {
      dir.register_node(full_ids[i],
                        static_cast<std::uint32_t>(i % cfg.n_zones),
                        static_cast<SimTime>(i) * milliseconds(120));
    }
    for (NodeId id : full_ids) {
      auto node = std::make_unique<MultiZoneFullNode>(net, id, mzcfg, dir,
                                                      cfg.seed);
      node->set_tracer(cfg.ctx.tracer);
      node->on_block_complete = [&completions, &capture_m](
                                    const PredisBlock& b, SimTime) {
        std::lock_guard<std::mutex> lock(capture_m);
        ++completions[b.height];
      };
      mz_nodes.push_back(node.get());
      net.attach(id, node.get());
      full_nodes.push_back(std::move(node));
    }
  }

  // Record announced blocks (once per committed block, at node 0).
  consensus[0]->on_block_distributed =
      [&announced_at, &capture_m, &net](const PredisBlock& block) {
        std::lock_guard<std::mutex> lock(capture_m);
        announced_at.emplace(block.height, net.now());
      };

  const double per_client =
      cfg.offered_load_tps / static_cast<double>(cfg.n_clients);
  std::vector<std::unique_ptr<ClientActor>> clients;
  for (std::size_t c = 0; c < cfg.n_clients; ++c) {
    runtime::NodeConfig ncfg;
    ncfg.region = 0;
    ncfg.up_bw = 10 * runtime::kBandwidth100Mbps;
    ncfg.down_bw = 10 * runtime::kBandwidth100Mbps;
    const NodeId id = net.add_node(ncfg);
    ClientConfig ccfg2;
    ccfg2.self = id;
    ccfg2.targets = {consensus_ids[c % cfg.n_consensus]};
    ccfg2.tx_per_second = per_client;
    ccfg2.start_at = setup;
    ccfg2.stop_at = setup + cfg.duration;
    ccfg2.record_from = setup + cfg.warmup;
    ccfg2.seed = cfg.seed * 7919 + c;
    clients.push_back(std::make_unique<ClientActor>(net, ccfg2, metrics));
    net.attach(id, clients.back().get());
  }

  if (cfg.ctx.on_network_ready) {
    cfg.ctx.on_network_ready(net, consensus_ids, full_ids);
  }
  net.start();
  net.run_until(setup + cfg.duration + cfg.drain);

  ThroughputResult result;
  result.throughput_tps =
      metrics.throughput_tps(setup + cfg.warmup, setup + cfg.duration);
  const Percentiles latencies = metrics.latencies();
  result.latency_samples = latencies.count();
  result.avg_latency_ms = latencies.mean();
  result.p50_latency_ms = latencies.percentile(50);
  result.p99_latency_ms = latencies.percentile(99);
  result.committed_txs = metrics.committed_txs();
  result.consistent = ledger.consistent();
  for (NodeId id : consensus_ids) {
    const runtime::TrafficStats stats = net.stats(id);
    metrics.record_bytes_sent(stats.bytes_sent);
    metrics.record_bytes_received(stats.bytes_received);
  }
  result.consensus_bytes_sent = metrics.bytes_sent();
  result.consensus_bytes_received = metrics.bytes_received();
  result.consensus_uplink_mbps = runtime::mean_uplink_mbps(net, consensus_ids);
  // Coverage over blocks announced early enough to have had time to
  // propagate (exclude the trailing 3 simulated seconds).
  if (!full_ids.empty()) {
    const SimTime cutoff = net.now() - seconds(3);
    double sum = 0.0;
    std::size_t counted = 0;
    for (const auto& [height, when] : announced_at) {
      if (when > cutoff) continue;
      const auto it = completions.find(height);
      sum += it == completions.end()
                 ? 0.0
                 : static_cast<double>(it->second) /
                       static_cast<double>(full_ids.size());
      ++counted;
    }
    if (counted > 0) {
      result.full_node_coverage = sum / static_cast<double>(counted);
    }
  }
  for (MultiZoneFullNode* node : mz_nodes) {
    if (node->is_relayer()) ++result.relayers_seen;
  }
  result.last_executed_min = std::numeric_limits<std::uint64_t>::max();
  for (auto& node : consensus) {
    auto& core = node->inner().core();
    result.view_changes += core.view_changes();
    result.last_executed_min =
        std::min(result.last_executed_min, core.last_executed());
    result.last_executed_max =
        std::max(result.last_executed_max, core.last_executed());
  }
  if (cfg.ctx.tracer != nullptr) {
    result.stage_latency = cfg.ctx.tracer->stage_breakdown();
  }
  return result;
}

// =====================================================================
// Fig. 8 — block propagation latency
// =====================================================================

namespace {

/// Synthetic stripe source for the propagation experiment: stands in
/// for consensus node `index`, accepting stripe subscriptions and
/// sending its stripe of every produced bundle.
class SyntheticProducer final : public runtime::Actor {
 public:
  SyntheticProducer(runtime::Runtime& net, NodeId self, StripeIndex index,
                    std::size_t k, std::size_t max_subscribers)
      : net_(net), self_(self), index_(index), k_(k),
        max_subscribers_(max_subscribers) {}

  void on_message(NodeId from, const runtime::MsgPtr& msg) override {
    if (const auto* m = dynamic_cast<const SubscribeMsg*>(msg.get())) {
      std::vector<StripeIndex> accepted, rejected;
      for (StripeIndex s : m->stripes) {
        if (s == index_ && subscribers_.size() < max_subscribers_) {
          subscribers_.insert(from);
          accepted.push_back(s);
        } else {
          rejected.push_back(s);
        }
      }
      if (!accepted.empty()) {
        auto ok = std::make_shared<AcceptSubscribeMsg>();
        ok->stripes = std::move(accepted);
        ok->from_consensus = true;
        net_.send(self_, from, std::move(ok));
      }
      if (!rejected.empty()) {
        auto no = std::make_shared<RejectSubscribeMsg>();
        no->stripes = std::move(rejected);
        no->children.assign(subscribers_.begin(), subscribers_.end());
        net_.send(self_, from, std::move(no));
      }
      return;
    }
    if (const auto* m = dynamic_cast<const UnsubscribeMsg*>(msg.get())) {
      for (StripeIndex s : m->stripes) {
        if (s == index_) subscribers_.erase(from);
      }
      return;
    }
    if (const auto* m = dynamic_cast<const BundlePullMsg*>(msg.get())) {
      if (serve_pull) serve_pull(from, *m);
      return;
    }
    if (const auto* m = dynamic_cast<const HeartbeatMsg*>(msg.get())) {
      if (!m->reply) {
        auto echo = std::make_shared<HeartbeatMsg>();
        echo->reply = true;
        net_.send(self_, from, std::move(echo));
      }
      return;
    }
  }

  void send_stripe(const BundleHeader& header, std::size_t bundle_bytes) {
    auto msg = std::make_shared<StripeMsg>();
    msg->header = header;
    msg->index = index_;
    msg->body_bytes = (bundle_bytes + k_ - 1) / k_;
    msg->proof_bytes = 96;
    for (NodeId sub : subscribers_) net_.send(self_, sub, msg);
  }

  void send_block(const PredisBlock& block) {
    auto msg = std::make_shared<PredisBlockMsg>();
    msg->block = block;
    for (NodeId sub : subscribers_) net_.send(self_, sub, msg);
  }

  std::function<void(NodeId, const BundlePullMsg&)> serve_pull;

 private:
  runtime::Runtime& net_;
  NodeId self_;
  StripeIndex index_;
  std::size_t k_;
  std::size_t max_subscribers_;
  std::set<NodeId> subscribers_;
};

/// Star producer for Fig. 8: pushes complete blocks to its children.
class StarProducer final : public runtime::Actor {
 public:
  explicit StarProducer(runtime::Runtime& net, NodeId self)
      : net_(net), self_(self) {}
  void on_message(NodeId, const runtime::MsgPtr&) override {}
  void push_block(std::uint64_t id, std::size_t bytes) {
    auto msg = std::make_shared<FullBlockMsg>();
    msg->block_id = id;
    msg->body_bytes = bytes;
    for (NodeId child : children) net_.send(self_, child, msg);
  }
  std::vector<NodeId> children;

 private:
  runtime::Runtime& net_;
  NodeId self_;
};

}  // namespace

PropagationResult run_propagation(const PropagationConfig& cfg) {
  runtime::SimRuntime sim_backend((runtime::lan_latency()));
  runtime::Runtime& net =
      cfg.ctx.backend != nullptr ? *cfg.ctx.backend : sim_backend.runtime();
  if (cfg.ctx.trace != nullptr) net.set_tracer(cfg.ctx.trace);
  Rng rng(cfg.seed);

  std::vector<NodeId> producer_ids;
  for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
    producer_ids.push_back(net.add_node(runtime::node_100mbps(0)));
  }
  std::vector<NodeId> full_ids;
  for (std::size_t i = 0; i < cfg.n_full; ++i) {
    full_ids.push_back(net.add_node(runtime::node_100mbps(0)));
  }

  // Block production schedule: one shared cadence for every topology
  // (apples-to-apples, like the paper's fixed block stream), long
  // enough for the slowest topology — star at large blocks — to drain
  // one block before the next.
  const double link_bps = runtime::kBandwidth100Mbps;
  const double worst_star_seconds =
      static_cast<double>(cfg.block_bytes) / link_bps *
      std::ceil(static_cast<double>(cfg.n_full) /
                static_cast<double>(cfg.n_consensus));
  const SimTime block_interval =
      std::max(seconds(1), static_cast<SimTime>(worst_star_seconds * 1.5e9));

  // Staggered joins (120 ms apart) plus relayer-topology convergence
  // must finish before the first block is measured.
  const SimTime setup =
      std::max(cfg.setup_time, static_cast<SimTime>(cfg.n_full) *
                                       milliseconds(120) +
                                   seconds(3));

  // arrivals[b] = completion times at full nodes for block b; written
  // from actor callbacks (worker threads on the threaded backend).
  std::mutex capture_m;
  std::vector<std::vector<SimTime>> arrivals(cfg.n_blocks);
  std::vector<SimTime> produced_at(cfg.n_blocks, 0);

  std::vector<std::unique_ptr<runtime::Actor>> actors;
  ZoneDirectory dir(std::max<std::size_t>(1, cfg.n_zones));
  dir.set_consensus_nodes(producer_ids);

  if (cfg.topology == Topology::kStar) {
    std::vector<StarProducer*> producers;
    for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
      auto p = std::make_unique<StarProducer>(net, producer_ids[i]);
      producers.push_back(p.get());
      net.attach(producer_ids[i], p.get());
      actors.push_back(std::move(p));
    }
    for (std::size_t i = 0; i < full_ids.size(); ++i) {
      producers[i % cfg.n_consensus]->children.push_back(full_ids[i]);
      auto node = std::make_unique<StarFullNode>(net);
      node->set_tracer(cfg.ctx.tracer, full_ids[i]);
      node->on_block = [&arrivals, &capture_m](std::uint64_t id,
                                               SimTime when) {
        std::lock_guard<std::mutex> lock(capture_m);
        if (id < arrivals.size()) arrivals[id].push_back(when);
      };
      net.attach(full_ids[i], node.get());
      actors.push_back(std::move(node));
    }
    for (std::size_t b = 0; b < cfg.n_blocks; ++b) {
      const SimTime at =
          setup + static_cast<SimTime>(b) * block_interval;
      produced_at[b] = at;
      // Scheduling happens before the run starts (now() == 0), so the
      // relative delay equals the absolute production time.
      PREDIS_FIRE_AND_FORGET(net.schedule_after(
          at, [producers, b, &cfg, &net] {
            if (cfg.ctx.tracer != nullptr) {
              cfg.ctx.tracer->record(TraceStage::kBlockCommitted,
                                     trace_key(b), net.now());
            }
            for (StarProducer* p : producers) {
              p->push_block(b, cfg.block_bytes);
            }
          }));
    }
  } else if (cfg.topology == Topology::kRandom) {
    // One random graph over consensus + full nodes.
    std::vector<NodeId> everyone = producer_ids;
    everyone.insert(everyone.end(), full_ids.begin(), full_ids.end());
    std::map<NodeId, std::set<NodeId>> adj;
    for (NodeId id : everyone) {
      while (adj[id].size() < cfg.peers) {
        const NodeId peer = everyone[rng.next_below(everyone.size())];
        if (peer == id) continue;
        adj[id].insert(peer);
        adj[peer].insert(id);
      }
    }
    GossipConfig gcfg;
    gcfg.fanout = cfg.fanout;
    auto sources = std::make_shared<std::vector<RandomGossipNode*>>();
    for (NodeId id : everyone) {
      auto node = std::make_unique<RandomGossipNode>(net, id, gcfg, cfg.seed);
      node->set_tracer(cfg.ctx.tracer);
      node->set_peers({adj[id].begin(), adj[id].end()});
      const bool is_producer =
          std::find(producer_ids.begin(), producer_ids.end(), id) !=
          producer_ids.end();
      if (is_producer) {
        sources->push_back(node.get());
      } else {
        node->on_block = [&arrivals, &capture_m](std::uint64_t id2,
                                                 SimTime when) {
          std::lock_guard<std::mutex> lock(capture_m);
          if (id2 < arrivals.size()) arrivals[id2].push_back(when);
        };
      }
      net.attach(id, node.get());
      actors.push_back(std::move(node));
    }
    for (std::size_t b = 0; b < cfg.n_blocks; ++b) {
      const SimTime at =
          setup + static_cast<SimTime>(b) * block_interval;
      produced_at[b] = at;
      PREDIS_FIRE_AND_FORGET(net.schedule_after(at, [sources, b, &cfg] {
        for (RandomGossipNode* s : *sources) s->inject(b, cfg.block_bytes);
      }));
    }
  } else {
    // --- Multi-Zone ----------------------------------------------------
    MultiZoneConfig mzcfg;
    mzcfg.n_consensus = cfg.n_consensus;
    mzcfg.f = cfg.f;
    mzcfg.n_zones = cfg.n_zones;
    mzcfg.max_subscribers = cfg.max_subscribers;

    const std::size_t k = cfg.n_consensus - cfg.f;
    auto producers = std::make_shared<std::vector<SyntheticProducer*>>();
    for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
      auto p = std::make_unique<SyntheticProducer>(
          net, producer_ids[i], static_cast<StripeIndex>(i), k,
          mzcfg.effective_consensus_cap());
      producers->push_back(p.get());
      net.attach(producer_ids[i], p.get());
      actors.push_back(std::move(p));
    }
    for (std::size_t i = 0; i < full_ids.size(); ++i) {
      dir.register_node(full_ids[i],
                        static_cast<std::uint32_t>(i % cfg.n_zones),
                        static_cast<SimTime>(i) * milliseconds(120));
    }
    for (NodeId id : full_ids) {
      auto node =
          std::make_unique<MultiZoneFullNode>(net, id, mzcfg, dir, cfg.seed);
      node->set_tracer(cfg.ctx.tracer);
      node->on_block_complete = [&arrivals, &capture_m](
                                    const PredisBlock& block,
                                    SimTime when) {
        std::lock_guard<std::mutex> lock(capture_m);
        if (block.height < arrivals.size()) {
          arrivals[block.height].push_back(when);
        }
      };
      net.attach(id, node.get());
      actors.push_back(std::move(node));
    }

    // Driver: pre-distributes bundles for each block uniformly over the
    // interval preceding it (Predis's continuous production), then cuts
    // and announces the Predis block.
    struct DriverState {
      std::vector<BundleHeight> heights;
      std::vector<Hash32> parents;
      std::vector<BundleHeight> last_cut;
      std::map<std::pair<std::size_t, BundleHeight>, BundleHeader> headers;
      KeyPair key = KeyPair::from_seed(0xD15E);
      Rng rng{42};
    };
    auto state = std::make_shared<DriverState>();
    state->heights.assign(cfg.n_consensus, 0);
    state->parents.assign(cfg.n_consensus, kZeroHash);
    state->last_cut.assign(cfg.n_consensus, 0);

    const std::size_t bundles_per_block =
        std::max<std::size_t>(1, cfg.block_bytes / cfg.bundle_bytes);
    const std::size_t txs_per_bundle =
        std::max<std::size_t>(1, cfg.bundle_bytes / 512);

    auto produce_bundle = [state, producers, &dir, &cfg, &net,
                           txs_per_bundle](std::size_t chain) {
      std::vector<Transaction> txs(txs_per_bundle);
      for (auto& tx : txs) {
        tx.client = kNoNode;
        tx.size = 512;
        tx.payload_seed = state->rng.next();
      }
      Bundle bundle = make_bundle(
          static_cast<NodeId>(chain), state->heights[chain] + 1,
          state->parents[chain],
          std::vector<BundleHeight>(cfg.n_consensus, 0), std::move(txs),
          state->key);
      state->heights[chain] += 1;
      state->parents[chain] = bundle.header.hash();
      state->headers[{chain, state->heights[chain]}] = bundle.header;
      dir.publish_bundle(bundle);
      const std::size_t bytes = bundle.wire_size();
      if (cfg.ctx.tracer != nullptr) {
        cfg.ctx.tracer->record(TraceStage::kBundleProduced,
                               bundle.header.hash(), net.now());
        cfg.ctx.tracer->record(TraceStage::kStripesSent,
                               bundle.header.hash(), net.now());
      }
      // Every consensus node sends its stripe of this bundle (§IV-D).
      for (SyntheticProducer* p : *producers) {
        p->send_stripe(bundle.header, bytes);
      }
    };

    for (std::size_t b = 0; b < cfg.n_blocks; ++b) {
      const SimTime block_at =
          setup + static_cast<SimTime>(b + 1) * block_interval;
      produced_at[b] = block_at;
      // Bundles spread across the preceding interval.
      const SimTime window_start = block_at - block_interval;
      for (std::size_t j = 0; j < bundles_per_block; ++j) {
        const SimTime at =
            window_start + static_cast<SimTime>(
                               (static_cast<double>(j) + 0.5) /
                               static_cast<double>(bundles_per_block) *
                               static_cast<double>(block_interval));
        const std::size_t chain = j % cfg.n_consensus;
        PREDIS_FIRE_AND_FORGET(net.schedule_after(
            at, [produce_bundle, chain] { produce_bundle(chain); }));
      }
      // Cut + announce the Predis block.
      PREDIS_FIRE_AND_FORGET(net.schedule_after(
          block_at, [state, producers, b, &cfg, &net] {
        PredisBlock block;
        block.height = b;
        block.leader = 0;
        block.prev_heights = state->last_cut;
        block.cut_heights = state->heights;
        for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
          if (block.cut_heights[i] > block.prev_heights[i]) {
            block.header_hashes.push_back(
                state->headers.at({i, block.cut_heights[i]}).hash());
          }
        }
        state->last_cut = state->heights;
        block.signature = state->key.sign(BytesView{block.signing_bytes()});
        if (cfg.ctx.tracer != nullptr) {
          // Full nodes key reconstruction by the real block hash.
          cfg.ctx.tracer->record(TraceStage::kBlockCommitted, block.hash(),
                                 net.now());
        }
        for (SyntheticProducer* p : *producers) p->send_block(block);
      }));
    }

    // Pull service: producers answer BundlePull from the directory.
    for (std::size_t i = 0; i < producers->size(); ++i) {
      SyntheticProducer* p = (*producers)[i];
      const NodeId pid = producer_ids[i];
      p->serve_pull = [state, &dir, &net, pid](NodeId from,
                                               const BundlePullMsg& msg) {
        auto push = std::make_shared<BundlePushMsg>();
        std::uint32_t missing = 0;
        for (const auto& ref : msg.refs) {
          const auto it = state->headers.find({ref.chain, ref.height});
          const Bundle* b = it == state->headers.end()
                                ? nullptr
                                : dir.bundle(it->second.hash());
          if (b != nullptr) {
            push->bundles.push_back(*b);
          } else {
            ++missing;
          }
        }
        if (!push->bundles.empty()) net.send(pid, from, std::move(push));
        if (missing > 0 && msg.block != kZeroHash) {
          auto miss = std::make_shared<BundleMissMsg>();
          miss->block = msg.block;
          miss->missing = missing;
          net.send(pid, from, std::move(miss));
        }
      };
    }
  }

  const SimTime end_time = setup +
                           static_cast<SimTime>(cfg.n_blocks + 2) *
                               block_interval +
                           seconds(5);
  net.start();
  net.run_until(end_time);

  // Aggregate: time for each block to reach X% of full nodes.
  PropagationResult result;
  const std::vector<double> fractions = {0.10, 0.25, 0.50, 0.75,
                                         0.90, 0.95, 1.00};
  double coverage = 0.0;
  for (double frac : fractions) {
    double sum = 0.0;
    std::size_t counted = 0;
    for (std::size_t b = 0; b < cfg.n_blocks; ++b) {
      auto times = arrivals[b];
      std::sort(times.begin(), times.end());
      const std::size_t need = static_cast<std::size_t>(
          std::ceil(frac * static_cast<double>(cfg.n_full)));
      if (need == 0 || times.size() < need) continue;
      sum += to_milliseconds(times[need - 1] - produced_at[b]);
      ++counted;
    }
    if (counted > 0) {
      result.latency_ms_at_fraction[frac] =
          sum / static_cast<double>(counted);
    }
  }
  for (std::size_t b = 0; b < cfg.n_blocks; ++b) {
    coverage += static_cast<double>(arrivals[b].size()) /
                static_cast<double>(cfg.n_full);
  }
  result.full_coverage_fraction =
      coverage / static_cast<double>(cfg.n_blocks);
  if (cfg.ctx.tracer != nullptr) {
    result.stage_latency = cfg.ctx.tracer->stage_breakdown();
  }
  return result;
}

}  // namespace predis::multizone
