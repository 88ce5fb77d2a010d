// Fig. 5 — Predis vs Narwhal vs Stratus (shared-mempool SOTA), WAN and
// LAN throughput-latency sweeps, plus the §V-A proposal-size comparison
// (Predis block <= 2.5 KB at 50 k transactions and n_c = 80, versus
// ~30 KB id+certificate proposals).
//
// Reproduction target: Predis saturates highest and its latency is the
// lowest of the three (no availability certificates); Narwhal (n_c - f
// acks) sits above Stratus (f + 1 acks) in latency.
#include <cstdio>

#include "bundle/predis_block.hpp"
#include "consensus/narwhal/shared_mempool.hpp"
#include "core/experiment.hpp"
#include "report.hpp"

using namespace predis;
using namespace predis::core;

namespace {

void sweep(const char* env, bool wan, Protocol p, const char* label,
           const std::vector<double>& loads) {
  for (double load : loads) {
    ClusterConfig cfg;
    cfg.protocol = p;
    cfg.n_consensus = 4;
    cfg.f = 1;
    cfg.wan = wan;
    cfg.offered_load_tps = load;
    cfg.n_clients = 8;
    cfg.bundle_size = 50;           // one worker, 50 txs per microblock
    cfg.microblock_id_cap = 1000;   // Narwhal/Stratus default
    cfg.duration = seconds(12);
    cfg.warmup = seconds(4);
    const ClusterResult r = run_cluster(cfg);
    std::printf("%-4s %-8s offered=%7.0f tput=%7.0f lat_ms=%7s p99=%7s%s\n",
                env, label, load, r.throughput_tps,
                tools::table_ms(r, r.avg_latency_ms).c_str(),
                tools::table_ms(r, r.p99_latency_ms).c_str(),
                r.consistent ? "" : "  !!INCONSISTENT");
  }
}

/// §V-A: proposal wire sizes as the transaction volume grows.
void proposal_size_table() {
  std::puts("\n=== Proposal size vs transaction volume (n_c = 80) ===");
  std::puts("txs_in_proposal  predis_block_B  idlist_narwhal_B  idlist_stratus_B");
  const std::size_t n_c = 80;
  const std::size_t f = 26;
  for (std::size_t txs : {2'500u, 10'000u, 25'000u, 50'000u}) {
    // A Predis block always carries at most n_c header hashes.
    PredisBlock block;
    block.prev_heights.assign(n_c, 0);
    block.cut_heights.assign(n_c, txs / 50 / n_c + 1);
    block.header_hashes.assign(n_c, kZeroHash);
    // Id-list proposals carry one (id + certificate) per 50-tx microblock.
    const std::size_t microblocks = txs / 50;
    consensus::narwhal::IdListPayload narwhal(
        std::vector<consensus::narwhal::MicroblockRef>(microblocks),
        n_c - f);
    consensus::narwhal::IdListPayload stratus(
        std::vector<consensus::narwhal::MicroblockRef>(microblocks), f + 1);
    std::printf("%15zu  %14zu  %16zu  %16zu\n", txs, block.wire_size(),
                narwhal.wire_size(), stratus.wire_size());
  }
  std::puts("(paper: Predis block <= 2.5 KB at 50k txs; counterparts ~30 KB per 1000 ids)");
}

}  // namespace

int main() {
  const std::vector<double> loads = {6000, 12000, 18000, 24000};

  std::puts("=== Fig 5 (top): WAN throughput-latency, n_c = 4 ===");
  sweep("WAN", true, Protocol::kPredisHotStuff, "Predis", loads);
  sweep("WAN", true, Protocol::kNarwhal, "Narwhal", loads);
  sweep("WAN", true, Protocol::kStratus, "Stratus", loads);

  std::puts("\n=== Fig 5 (bottom): LAN throughput-latency, n_c = 4 ===");
  sweep("LAN", false, Protocol::kPredisHotStuff, "Predis", loads);
  sweep("LAN", false, Protocol::kNarwhal, "Narwhal", loads);
  sweep("LAN", false, Protocol::kStratus, "Stratus", loads);

  proposal_size_table();
  return 0;
}
