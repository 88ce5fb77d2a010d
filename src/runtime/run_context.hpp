// RunContext: the one place experiment harnesses accept cross-cutting
// run plumbing. Before the Runtime seam, every experiment config
// (ClusterConfig, ThroughputConfig, PropagationConfig) re-declared its
// own optional tracer pointer and ad-hoc hook fields; new knobs had to
// be added to each. They now all embed one RunContext.
#pragma once

#include <functional>
#include <vector>

#include "common/block_tracer.hpp"
#include "common/types.hpp"
#include "runtime/runtime.hpp"

namespace predis::runtime {

struct RunContext {
  /// Optional block-lifecycle tracer shared by every node of the run
  /// (stage latencies, anomaly detection). Deterministic backends
  /// only: protocol tracers are not synchronized, so wall-clock
  /// ThreadRuntime runs must leave this null.
  BlockTracer* tracer = nullptr;

  /// Optional delivery-trace hasher installed on the backend
  /// (Runtime::set_tracer) — the byte-identity witness used by swarm
  /// replay and the golden-digest tests.
  TraceHasher* trace = nullptr;

  /// Run on this externally-owned backend instead of the harness's
  /// internal SimRuntime. The caller configures the backend (workers,
  /// latency matrix) and keeps it alive for the run;
  /// the harness still wires nodes, faults and clients through it.
  Runtime* backend = nullptr;

  /// Fired after all nodes are registered and attached but before
  /// start(): (runtime, consensus node ids, other node ids). Used by
  /// adversarial harnesses to inject hostile actors into the topology.
  std::function<void(Runtime&, const std::vector<NodeId>&,
                     const std::vector<NodeId>&)>
      on_network_ready;
};

}  // namespace predis::runtime
