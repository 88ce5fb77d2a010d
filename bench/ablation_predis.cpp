// Ablations of Predis's design choices (DESIGN.md §5):
//
//  1. Cutting-rule quorum — the paper cuts at the height reached by the
//     fastest n_c − f nodes. Alternatives: wait for *every* node
//     (f_cut = 0, conservative) or cut at the leader's own knowledge
//     (f_cut = n−1, optimistic — replicas must fetch missing bundles
//     before voting). The paper's rule should dominate on latency
//     without sacrificing throughput.
//
//  2. Bundle size and production interval — the paper's Fig. 4(a)
//     explores 25/50/100-tx bundles; we add the production-interval
//     dimension (continuous-production cadence).
#include <cstdio>

#include "core/experiment.hpp"
#include "report.hpp"

using namespace predis;
using namespace predis::core;

namespace {

ClusterResult run(std::size_t cut_f, std::size_t bundle, SimTime interval,
                  double load) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kPredisPbft;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.wan = true;
  cfg.offered_load_tps = load;
  cfg.n_clients = 8;
  cfg.bundle_size = bundle;
  cfg.bundle_interval = interval;
  cfg.cut_f_override = cut_f;
  cfg.duration = seconds(12);
  cfg.warmup = seconds(4);
  return run_cluster(cfg);
}

constexpr std::size_t kDefault = static_cast<std::size_t>(-1);

}  // namespace

int main() {
  const double load = 10'000;

  std::puts("=== Ablation 1: cutting-rule quorum (P-PBFT, n_c=4, WAN, 10k tx/s) ===");
  struct Variant {
    const char* name;
    std::size_t cut_f;
  };
  for (const Variant v : {Variant{"paper (n-f fastest)", kDefault},
                          Variant{"all nodes (f_cut=0)", 0},
                          Variant{"leader-only (f_cut=3)", 3}}) {
    const ClusterResult r = run(v.cut_f, 50, milliseconds(25), load);
    std::printf("%-22s tput=%7.0f lat_ms=%7s p99=%7s%s\n", v.name,
                r.throughput_tps, tools::table_ms(r, r.avg_latency_ms).c_str(),
                tools::table_ms(r, r.p99_latency_ms).c_str(),
                r.consistent ? "" : "  !!INCONSISTENT");
  }

  std::puts("\n=== Ablation 2: PBFT pipelining window (baseline PBFT, WAN) ===");
  for (const SeqNum window : {1u, 2u, 4u, 8u}) {
    ClusterConfig cfg;
    cfg.protocol = Protocol::kPbft;
    cfg.n_consensus = 4;
    cfg.f = 1;
    cfg.wan = true;
    cfg.offered_load_tps = 6000;
    cfg.n_clients = 8;
    cfg.pbft_pipeline_window = window;
    cfg.duration = seconds(12);
    cfg.warmup = seconds(4);
    const ClusterResult r = run_cluster(cfg);
    std::printf("window=%-2llu tput=%7.0f lat_ms=%7s p99=%7s%s\n",
                static_cast<unsigned long long>(window), r.throughput_tps,
                tools::table_ms(r, r.avg_latency_ms).c_str(),
                tools::table_ms(r, r.p99_latency_ms).c_str(),
                r.consistent && r.ledgers_consistent ? ""
                                                     : "  !!INCONSISTENT");
  }

  std::puts("\n=== Ablation 3: bundle size x production interval ===");
  for (std::size_t bundle : {25u, 50u, 100u, 200u}) {
    for (SimTime interval : {milliseconds(10), milliseconds(25),
                             milliseconds(100)}) {
      const ClusterResult r = run(kDefault, bundle, interval, load);
      std::printf(
          "bundle=%-4zu interval=%3lldms tput=%7.0f lat_ms=%7s p99=%7s\n",
          bundle, static_cast<long long>(interval / 1'000'000),
          r.throughput_tps, tools::table_ms(r, r.avg_latency_ms).c_str(),
          tools::table_ms(r, r.p99_latency_ms).c_str());
    }
  }
  return 0;
}
