#include "multizone/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include "common/thread_annotations.hpp"
#include "core/experiment.hpp"
#include "multizone/consensus_distributor.hpp"
#include "multizone/full_node.hpp"
#include "multizone/random_gossip.hpp"
#include "runtime/environments.hpp"
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

namespace {

/// Full nodes join 120 ms apart, in both runners.
constexpr SimTime kJoinSpacing = milliseconds(120);

/// The full-node layer both runners measure: star full nodes or
/// Multi-Zone full nodes (node i in zone i mod n_zones, joining
/// kJoinSpacing apart). For random gossip it only allocates the ids;
/// the runner builds the gossip graph over them. Records when each
/// full node completes each block height; the callbacks fire on
/// backend workers on the threaded backend, hence the mutex.
class FullNodes {
 public:
  FullNodes(runtime::Runtime& net, Topology topology, std::size_t n,
            const MultiZoneConfig& mzcfg, ZoneDirectory& dir,
            std::uint64_t seed, BlockTracer* tracer) {
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = net.add_node(runtime::node_100mbps(0));
      ids_.push_back(id);
      if (topology == Topology::kRandom) continue;
      std::unique_ptr<runtime::Actor> node;
      if (topology == Topology::kStar) {
        auto star = std::make_unique<StarFullNode>(net);
        star->set_tracer(tracer, id);
        star->on_block = [this](std::uint64_t height, SimTime when) {
          arrived(height, when);
        };
        node = std::move(star);
      } else {
        dir.register_node(id, static_cast<std::uint32_t>(i % mzcfg.n_zones),
                          static_cast<SimTime>(i) * kJoinSpacing);
        auto mz = std::make_unique<MultiZoneFullNode>(net, id, mzcfg, dir,
                                                      seed);
        mz->set_tracer(tracer);
        mz->on_block_complete = [this](const PredisBlock& block,
                                       SimTime when) {
          arrived(block.height, when);
        };
        mz_nodes_.push_back(mz.get());
        node = std::move(mz);
      }
      net.attach(id, node.get());
      nodes_.push_back(std::move(node));
    }
  }

  const std::vector<NodeId>& ids() const { return ids_; }

  /// A full node completed block `height` at `when`.
  void arrived(std::uint64_t height, SimTime when) {
    std::lock_guard<std::mutex> lock(m_);
    arrivals_[height].push_back(when);
  }
  /// Block `height` was announced (produced) at `when`; the first call
  /// for a height counts.
  void announced(std::uint64_t height, SimTime when) {
    std::lock_guard<std::mutex> lock(m_);
    announced_.emplace(height, when);
  }

  std::size_t relayers() const {
    std::size_t n = 0;
    for (const MultiZoneFullNode* node : mz_nodes_) {
      if (node->is_relayer()) ++n;
    }
    return n;
  }

  /// Mean fraction of full nodes that completed each block announced
  /// at or before `cutoff`; 0 when there is none.
  double coverage(SimTime cutoff) const {
    std::lock_guard<std::mutex> lock(m_);
    if (ids_.empty()) return 0.0;
    double sum = 0.0;
    std::size_t counted = 0;
    for (const auto& [height, when] : announced_) {
      if (when > cutoff) continue;
      const auto it = arrivals_.find(height);
      sum += it == arrivals_.end()
                 ? 0.0
                 : static_cast<double>(it->second.size()) /
                       static_cast<double>(ids_.size());
      ++counted;
    }
    return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
  }

  /// Mean time (ms) from a block's announcement until `fraction` of
  /// the full nodes completed it, over the blocks that got that far.
  std::optional<double> latency_ms_at(double fraction) const {
    std::lock_guard<std::mutex> lock(m_);
    const std::size_t need = static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(ids_.size())));
    double sum = 0.0;
    std::size_t counted = 0;
    for (const auto& [height, when] : announced_) {
      const auto it = arrivals_.find(height);
      if (need == 0 || it == arrivals_.end() || it->second.size() < need) {
        continue;
      }
      std::vector<SimTime> times = it->second;
      std::sort(times.begin(), times.end());
      sum += to_milliseconds(times[need - 1] - when);
      ++counted;
    }
    if (counted == 0) return std::nullopt;
    return sum / static_cast<double>(counted);
  }

 private:
  std::vector<NodeId> ids_;
  std::vector<std::unique_ptr<runtime::Actor>> nodes_;
  std::vector<MultiZoneFullNode*> mz_nodes_;
  mutable std::mutex m_;
  std::map<std::uint64_t, std::vector<SimTime>> arrivals_
      PREDIS_GUARDED_BY(m_);
  std::map<std::uint64_t, SimTime> announced_ PREDIS_GUARDED_BY(m_);
};

}  // namespace

SimTime load_start(const ThroughputConfig& cfg) {
  return cfg.topology == Topology::kMultiZone
             ? static_cast<SimTime>(cfg.n_full) * kJoinSpacing +
                   milliseconds(1500)
             : 0;
}

// =====================================================================
// Fig. 7 — consensus throughput under distribution load
// =====================================================================

ThroughputResult run_distribution_cluster(const ThroughputConfig& cfg) {
  core::Deployment d(cfg.ctx, runtime::lan_latency(), cfg.n_consensus, cfg.f,
                     1);
  runtime::Runtime& net = d.net();

  // Clients start once the join churn has settled (the paper's testbed
  // likewise measures an established topology); computed up front so
  // the consensus config can stop proposals at load-stop time.
  const SimTime setup = load_start(cfg);
  d.ccfg.propose_until = setup + cfg.duration;

  ZoneDirectory dir(std::max<std::size_t>(1, cfg.n_zones));
  dir.set_consensus_nodes(d.consensus_ids());

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
    predis::PredisConfig pcfg;
    pcfg.bundle_size = cfg.bundle_size;
    pcfg.seed = cfg.seed;
    // Serve distribution-layer pulls long after commit: full nodes may
    // lag seconds behind the consensus layer.
    pcfg.gc_retention = 4096;
    consensus.push_back(std::make_unique<MultiZoneConsensusNode>(
        d.context(i), pcfg, d.keys,
        KeyPair::from_seed(d.consensus_ids()[i]), d.ledger, mzcfg, dir,
        mode));
    consensus.back()->set_tracer(cfg.ctx.tracer);
    net.attach(d.consensus_ids()[i], consensus.back().get());
  }

  FullNodes full(net, cfg.topology, cfg.n_full, mzcfg, dir, cfg.seed,
                 cfg.ctx.tracer);
  if (cfg.topology == Topology::kStar) {
    // Round-robin assignment of full nodes to consensus nodes.
    std::vector<std::vector<NodeId>> children(cfg.n_consensus);
    for (std::size_t i = 0; i < full.ids().size(); ++i) {
      children[i % cfg.n_consensus].push_back(full.ids()[i]);
    }
    for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
      consensus[i]->set_star_children(std::move(children[i]));
    }
  }

  // Record announced blocks (once per committed block, at node 0).
  consensus[0]->on_block_distributed = [&full, &net](const PredisBlock& block) {
    full.announced(block.height, net.now());
  };

  ClientConfig shape;
  shape.tx_per_second =
      cfg.offered_load_tps / static_cast<double>(cfg.n_clients);
  shape.start_at = setup;
  shape.stop_at = setup + cfg.duration;
  shape.record_from = setup + cfg.warmup;
  shape.seed = cfg.seed * 7919;
  const auto clients = add_clients(net, d.consensus_ids(), cfg.n_clients, 1,
                                   /*broadcast=*/false, shape, d.metrics);

  d.run(setup + cfg.duration + cfg.drain, full.ids());

  ThroughputResult result;
  static_cast<core::RunReport&>(result) =
      d.report(setup + cfg.warmup, setup + cfg.duration);
  for (NodeId id : d.consensus_ids()) {
    const runtime::TrafficStats stats = net.stats(id);
    d.metrics.record_bytes_sent(stats.bytes_sent);
    d.metrics.record_bytes_received(stats.bytes_received);
  }
  result.consensus_bytes_sent = d.metrics.bytes_sent();
  result.consensus_bytes_received = d.metrics.bytes_received();
  // Coverage over blocks announced early enough to have had time to
  // propagate (exclude the trailing 3 simulated seconds).
  result.full_node_coverage = full.coverage(net.now() - seconds(3));
  result.relayers_seen = full.relayers();
  result.last_executed_min = std::numeric_limits<std::uint64_t>::max();
  for (auto& node : consensus) {
    auto& core = node->inner().core();
    result.view_changes += core.view_changes();
    result.last_executed_min =
        std::min(result.last_executed_min, core.last_executed());
    result.last_executed_max =
        std::max(result.last_executed_max, core.last_executed());
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
  // The synthetic producers stand on the consensus ids.
  core::Deployment d(cfg.ctx, runtime::lan_latency(), cfg.n_consensus, cfg.f,
                     1);
  runtime::Runtime& net = d.net();
  const std::vector<NodeId>& producer_ids = d.consensus_ids();
  Rng rng(cfg.seed);

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
                                       kJoinSpacing +
                                   seconds(3));

  ZoneDirectory dir(std::max<std::size_t>(1, cfg.n_zones));
  dir.set_consensus_nodes(producer_ids);
  MultiZoneConfig mzcfg;
  mzcfg.n_consensus = cfg.n_consensus;
  mzcfg.f = cfg.f;
  mzcfg.n_zones = cfg.n_zones;
  mzcfg.max_subscribers = cfg.max_subscribers;

  std::vector<std::unique_ptr<runtime::Actor>> actors;
  FullNodes full(net, cfg.topology, cfg.n_full, mzcfg, dir, cfg.seed,
                 cfg.ctx.tracer);
  const std::vector<NodeId>& full_ids = full.ids();

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
    }
    for (std::size_t b = 0; b < cfg.n_blocks; ++b) {
      const SimTime at =
          setup + static_cast<SimTime>(b) * block_interval;
      full.announced(b, at);
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
        node->on_block = [&full](std::uint64_t height, SimTime when) {
          full.arrived(height, when);
        };
      }
      net.attach(id, node.get());
      actors.push_back(std::move(node));
    }
    for (std::size_t b = 0; b < cfg.n_blocks; ++b) {
      const SimTime at =
          setup + static_cast<SimTime>(b) * block_interval;
      full.announced(b, at);
      PREDIS_FIRE_AND_FORGET(net.schedule_after(at, [sources, b, &cfg] {
        for (RandomGossipNode* s : *sources) s->inject(b, cfg.block_bytes);
      }));
    }
  } else {
    // --- Multi-Zone ----------------------------------------------------
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
      full.announced(b, block_at);
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
  d.run(end_time, full_ids);

  // Aggregate: time for each block to reach X% of full nodes.
  PropagationResult result;
  for (double frac : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 1.00}) {
    if (const auto ms = full.latency_ms_at(frac)) {
      result.latency_ms_at_fraction[frac] = *ms;
    }
  }
  result.full_coverage_fraction = full.coverage(kSimTimeNever);
  if (cfg.ctx.tracer != nullptr) {
    result.stage_latency = cfg.ctx.tracer->stage_breakdown();
  }
  return result;
}

}  // namespace predis::multizone
