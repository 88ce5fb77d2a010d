// Fig. 4 — Predis's improvement of PBFT and HotStuff (WAN).
//
//  (a) throughput-latency of PBFT vs P-PBFT with bundle sizes 25/50/100
//      and batch sizes 400/800, n_c = 4;
//  (b) the same for HotStuff vs P-HS;
//  (c) throughput-latency of PBFT vs P-PBFT for n_c = 4, 8, 16;
//  (d) the same for HotStuff vs P-HS.
//
// Each curve is a sweep of offered load; rows are
//   <protocol> <variant> <offered tx/s> <throughput tx/s> <avg latency ms>
// The paper's reproduction target is the *shape*: Predis sustains ~3-8x
// the baselines' saturation throughput, degrading slowly with n_c.
#include <cstdio>

#include "core/experiment.hpp"
#include "report.hpp"

using namespace predis;
using namespace predis::core;

namespace {

ClusterResult run(Protocol p, std::size_t n, double load,
                  std::size_t batch, std::size_t bundle) {
  ClusterConfig cfg;
  cfg.protocol = p;
  cfg.n_consensus = n;
  cfg.f = (n - 1) / 3;
  cfg.wan = true;
  cfg.offered_load_tps = load;
  cfg.n_clients = std::max<std::size_t>(8, n);
  cfg.batch_size = batch;
  cfg.bundle_size = bundle;
  cfg.duration = seconds(12);
  cfg.warmup = seconds(4);
  return run_cluster(cfg);
}

void sweep(const char* label, Protocol p, std::size_t n, std::size_t batch,
           std::size_t bundle, const std::vector<double>& loads) {
  for (double load : loads) {
    const ClusterResult r = run(p, n, load, batch, bundle);
    std::printf("%-24s n=%-2zu offered=%7.0f tput=%7.0f lat_ms=%7s%s\n",
                label, n, load, r.throughput_tps,
                tools::table_ms(r, r.avg_latency_ms).c_str(),
                r.consistent ? "" : "  !!INCONSISTENT");
  }
}

}  // namespace

int main() {
  const std::vector<double> light = {1000, 2000, 4000, 6000, 8000, 12000};
  const std::vector<double> heavy = {2000, 6000, 12000, 18000, 24000};

  std::puts("=== Fig 4(a): PBFT vs P-PBFT, parameter variants (n_c=4, WAN) ===");
  sweep("PBFT batch=400", Protocol::kPbft, 4, 400, 50, light);
  sweep("PBFT batch=800", Protocol::kPbft, 4, 800, 50, light);
  sweep("P-PBFT bundle=25", Protocol::kPredisPbft, 4, 800, 25, heavy);
  sweep("P-PBFT bundle=50", Protocol::kPredisPbft, 4, 800, 50, heavy);
  sweep("P-PBFT bundle=100", Protocol::kPredisPbft, 4, 800, 100, heavy);

  std::puts("\n=== Fig 4(b): HotStuff vs P-HS, parameter variants (n_c=4, WAN) ===");
  sweep("HotStuff batch=400", Protocol::kHotStuff, 4, 400, 50, light);
  sweep("HotStuff batch=800", Protocol::kHotStuff, 4, 800, 50, light);
  sweep("P-HS bundle=25", Protocol::kPredisHotStuff, 4, 800, 25, heavy);
  sweep("P-HS bundle=50", Protocol::kPredisHotStuff, 4, 800, 50, heavy);
  sweep("P-HS bundle=100", Protocol::kPredisHotStuff, 4, 800, 100, heavy);

  std::puts("\n=== Fig 4(c): PBFT vs P-PBFT across n_c (bundle 50, batch 800) ===");
  for (std::size_t n : {4, 8, 16}) {
    sweep("PBFT", Protocol::kPbft, n, 800, 50, light);
    sweep("P-PBFT", Protocol::kPredisPbft, n, 800, 50, heavy);
  }

  std::puts("\n=== Fig 4(d): HotStuff vs P-HS across n_c (bundle 50, batch 800) ===");
  for (std::size_t n : {4, 8, 16}) {
    sweep("HotStuff", Protocol::kHotStuff, n, 800, 50, light);
    sweep("P-HS", Protocol::kPredisHotStuff, n, 800, 50, heavy);
  }
  return 0;
}
