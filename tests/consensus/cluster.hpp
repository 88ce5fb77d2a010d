// Shared fixture for consensus-layer tests: a core::Deployment on a
// small simulated LAN (one region, uniform 10 ms links) plus the nodes
// and clients a test built on it. Nodes come from
// core::make_consensus_node and clients from txpool's add_clients, so
// the fixtures assemble clusters exactly the way the experiment
// runners do.
#pragma once

#include <memory>
#include <vector>

#include "consensus/predis/predis_nodes.hpp"
#include "core/experiment.hpp"
#include "txpool/client.hpp"

namespace predis::consensus::testing {

/// A `protocol` cluster of n nodes tolerating f faults, with the tests'
/// 400 ms view timeout; a test adjusts the other fields itself.
inline core::ClusterConfig cluster_config(core::Protocol protocol,
                                          std::size_t n = 4,
                                          std::size_t f = 1) {
  core::ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n_consensus = n;
  cfg.f = f;
  cfg.view_timeout = milliseconds(400);
  return cfg;
}

struct TestCluster : core::Deployment {
  /// The n consensus node ids and no actors: the test attaches its own
  /// (a node type or config the ClusterConfig cannot express) or none.
  TestCluster(std::size_t n, std::size_t f,
              SimTime view_timeout = milliseconds(400))
      : Deployment({}, runtime::LatencyMatrix::uniform(1, milliseconds(10)),
                   n, f, /*regions=*/1) {
    ccfg.view_timeout = view_timeout;
  }

  /// Every consensus node of `cfg.protocol`, built and attached by
  /// make_consensus_node.
  explicit TestCluster(const core::ClusterConfig& cfg)
      : TestCluster(cfg.n_consensus, cfg.f, cfg.view_timeout) {
    for (std::size_t i = 0; i < cfg.n_consensus; ++i) {
      nodes.push_back(
          core::make_consensus_node(cfg, i, context(i), keys, ledger, nullptr));
    }
  }

  /// One open-loop client sending to every node of `targets`.
  ClientActor* add_client(const std::vector<NodeId>& targets, double tps,
                          SimTime stop_at, std::uint64_t seed = 7) {
    return add(targets, 1, /*broadcast=*/true, tps, stop_at, seed);
  }

  /// One client per consensus node at `tps` each: client i sends to
  /// node i and is seeded `seed + i`.
  void add_node_clients(double tps, SimTime stop_at, std::uint64_t seed) {
    add(consensus_ids(), consensus_ids().size(), /*broadcast=*/false, tps,
        stop_at, seed);
  }

  std::vector<core::ConsensusNode> nodes;
  std::vector<std::unique_ptr<ClientActor>> clients;

 private:
  ClientActor* add(const std::vector<NodeId>& targets, std::size_t count,
                   bool broadcast, double tps, SimTime stop_at,
                   std::uint64_t seed) {
    ClientConfig shape;
    shape.tx_per_second = tps;
    shape.stop_at = stop_at;
    shape.seed = seed;
    for (auto& client : add_clients(net(), targets, count, /*regions=*/1,
                                    broadcast, shape, metrics)) {
      clients.push_back(std::move(client));
    }
    return clients.back().get();
  }
};

/// Builds the cluster's next consensus node as a P-PBFT node from
/// `pcfg` and attaches it: for the PredisConfig fields ClusterConfig
/// does not carry (the ban duration).
inline void add_predis_pbft_node(TestCluster& cluster,
                                 const predis::PredisConfig& pcfg) {
  const std::size_t i = cluster.nodes.size();
  const NodeId id = cluster.consensus_ids()[i];
  auto node = std::make_unique<predis::PredisPbftNode>(
      cluster.context(i), pcfg, cluster.keys, KeyPair::from_seed(id),
      cluster.ledger);
  cluster.net().attach(id, node.get());
  cluster.nodes.push_back({nullptr, &node->engine(), &node->core()});
  cluster.nodes.back().actor = std::move(node);
}

}  // namespace predis::consensus::testing
