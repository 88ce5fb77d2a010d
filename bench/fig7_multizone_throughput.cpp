// Fig. 7 — consensus-layer throughput under distribution load as full
// nodes scale: star topology (complete blocks pushed to every full
// node) vs Multi-Zone (stripes + tiny Predis blocks to relayers).
//
// The paper fixes transaction generation at 26,000 tx/s and grows the
// full-node count. Reproduction target: star throughput declines
// roughly linearly with full nodes; Multi-Zone throughput depends on
// the zone count, not the full-node count; and for both, larger n_c
// raises throughput (more consensus bandwidth shares the work).
#include <cstdio>

#include "multizone/experiments.hpp"
#include "report.hpp"

using namespace predis;
using namespace predis::multizone;

namespace {

void run_row(Topology topo, std::size_t n_c, std::size_t n_full,
             std::size_t zones) {
  ThroughputConfig cfg;
  cfg.topology = topo;
  cfg.n_consensus = n_c;
  cfg.f = (n_c - 1) / 3;
  cfg.n_full = n_full;
  cfg.n_zones = zones;
  // The paper fixes generation at 26,000 tx/s, a rate just above its
  // testbed's saturation. Our simulated Multi-Zone capacity is ~8 k
  // tx/s at n_c = 4, so the equivalent fixed rate here is 9 k — the
  // same "offered slightly above capacity" regime with stable trend
  // lines (deeper overload only adds pull-traffic noise).
  cfg.offered_load_tps = 9'000;
  cfg.n_clients = 8;
  cfg.duration = seconds(12);
  cfg.warmup = seconds(5);

  const ThroughputResult r = run_distribution_cluster(cfg);
  std::printf(
      "%-10s n_c=%-2zu zones=%-2zu full=%-3zu tput=%7.0f lat_ms=%7s "
      "uplink=%5.1fMbps coverage=%.2f%s\n",
      to_string(topo), n_c, zones, n_full, r.throughput_tps,
      tools::table_ms(r, r.avg_latency_ms).c_str(), r.consensus_uplink_mbps,
      r.full_node_coverage,
      r.consistent ? "" : "  !!INCONSISTENT");
}

}  // namespace

int main() {
  std::puts(
      "=== Fig 7: star vs Multi-Zone consensus throughput, saturating load ===");

  std::puts("\n--- star topology (full blocks pushed to assigned full nodes) ---");
  for (std::size_t n_c : {4u, 8u}) {
    for (std::size_t full : {12u, 24u, 36u, 48u}) {
      run_row(Topology::kStar, n_c, full, 1);
    }
  }

  // Zones need at least n_c members each to seat their relayers, so
  // every Multi-Zone row keeps n_full >= zones x n_c.
  std::puts("\n--- Multi-Zone, 3 zones ---");
  for (std::size_t full : {12u, 24u, 36u, 48u}) {
    run_row(Topology::kMultiZone, 4, full, 3);
  }
  for (std::size_t full : {24u, 36u, 48u}) {
    run_row(Topology::kMultiZone, 8, full, 3);
  }

  std::puts("\n--- Multi-Zone, 12 zones ---");
  for (std::size_t full : {48u, 60u}) {
    run_row(Topology::kMultiZone, 4, full, 12);
  }

  std::puts(
      "\n(paper: star declines ~linearly with full nodes; Multi-Zone holds "
      "steady at fixed zone count,\n and 12-zone Multi-Zone overtakes star "
      "beyond ~24 full nodes)");
  return 0;
}
