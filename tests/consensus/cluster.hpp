// Shared fixture pieces for consensus-layer tests: a small simulated
// LAN cluster with direct access to node actors and cores. Built on
// the Runtime seam (deterministic SimRuntime backend) so the fixtures
// exercise exactly the surface production harnesses use.
#pragma once

#include <functional>

#include "common/metrics.hpp"
#include "common/signature.hpp"
#include "consensus/common.hpp"
#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"
#include "txpool/client.hpp"

namespace predis::consensus::testing {

struct TestCluster {
  explicit TestCluster(std::size_t n, std::size_t f,
                       SimTime latency = milliseconds(10),
                       SimTime view_timeout = milliseconds(400))
      : backend(runtime::LatencyMatrix::uniform(1, latency)),
        net(backend.runtime()),
        ledger(metrics) {
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(net.add_node(runtime::node_100mbps(0)));
    }
    config.nodes = ids;
    config.f = f;
    config.view_timeout = view_timeout;
  }

  NodeContext context(std::size_t i) { return NodeContext(net, ids[i], config); }

  /// Adds an open-loop client targeting the given consensus nodes.
  ClientActor* add_client(std::vector<NodeId> targets, double tps,
                          SimTime stop_at, std::uint64_t seed = 7) {
    runtime::NodeConfig ncfg;
    ncfg.up_bw = 10 * runtime::kBandwidth100Mbps;
    ncfg.down_bw = 10 * runtime::kBandwidth100Mbps;
    const NodeId id = net.add_node(ncfg);
    ClientConfig ccfg;
    ccfg.self = id;
    ccfg.targets = std::move(targets);
    ccfg.tx_per_second = tps;
    ccfg.stop_at = stop_at;
    ccfg.seed = seed;
    clients.push_back(std::make_unique<ClientActor>(net, ccfg, metrics));
    net.attach(id, clients.back().get());
    return clients.back().get();
  }

  void run_until(SimTime limit) { net.run_until(limit); }

  /// Absolute-time convenience for harness-level one-shots.
  runtime::TimerHandle schedule_at(SimTime at, std::function<void()> fn) {
    return net.schedule_after(at - net.now(), std::move(fn));
  }

  runtime::SimRuntime backend;
  runtime::Runtime& net;
  Metrics metrics;
  CommitLedger ledger;
  ConsensusConfig config;
  std::vector<NodeId> ids;
  std::vector<std::unique_ptr<ClientActor>> clients;
};

}  // namespace predis::consensus::testing
