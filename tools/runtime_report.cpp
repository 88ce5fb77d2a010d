// runtime_report — backend comparison for the Runtime seam. Runs one
// fixed P-PBFT cluster scenario and one Multi-Zone distribution
// scenario on both backends:
//
//   * SimRuntime            — deterministic discrete-event model;
//                             throughput/latency are model-time numbers
//                             under the 100 Mbps fluid network;
//   * ThreadRuntime (wall)  — the same scenario objects executing on a
//                             real worker pool; throughput/latency are
//                             wall-clock numbers limited by the host's
//                             cores (no modeled network).
//
// The scenario assembly code is byte-for-byte the same — only
// RunContext::backend changes — which is the point of the seam: the
// report fails loudly if a scenario can no longer run unmodified on
// both. Emits machine-readable BENCH_runtime.json.
//
// Usage: runtime_report [--smoke] [--strict] [--workers N] [--out-dir DIR]
//   --smoke    reduced durations (CI-sized runs)
//   --strict   exit non-zero when a run breaks consistency or records
//              no latency samples, or the cluster scenario commits
//              nothing
//   --workers  worker threads for the wall-clock backend (default 4)
//   --out-dir  directory for BENCH_runtime.json (default: cwd)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "multizone/experiments.hpp"
#include "runtime/environments.hpp"
#include "runtime/thread_runtime.hpp"

namespace {

struct RunNumbers {
  std::string scenario;
  std::string backend;   ///< "sim" or "threads".
  std::string clock;     ///< "virtual" or "wall".
  std::size_t workers = 1;
  double throughput_tps = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  std::uint64_t latency_samples = 0;  ///< 0: p50/p99 are undefined.
  std::uint64_t committed_txs = 0;
  bool consistent = true;
};

predis::core::ClusterConfig cluster_scenario(bool smoke) {
  predis::core::ClusterConfig cfg;
  cfg.protocol = predis::core::Protocol::kPredisPbft;
  cfg.wan = false;  // LAN shape: the wall backend has no WAN model.
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.offered_load_tps = smoke ? 3'000.0 : 10'000.0;
  cfg.n_clients = 8;
  cfg.duration = smoke ? predis::seconds(3) : predis::seconds(8);
  cfg.warmup = smoke ? predis::seconds(1) : predis::seconds(3);
  cfg.seed = 17;
  return cfg;
}

predis::multizone::ThroughputConfig zone_scenario(bool smoke) {
  predis::multizone::ThroughputConfig cfg;
  cfg.topology = predis::multizone::Topology::kMultiZone;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = smoke ? 6 : 12;
  cfg.n_zones = 3;
  cfg.offered_load_tps = smoke ? 2'000.0 : 6'000.0;
  cfg.n_clients = 4;
  cfg.duration = smoke ? predis::seconds(3) : predis::seconds(8);
  cfg.warmup = smoke ? predis::seconds(1) : predis::seconds(3);
  cfg.seed = 17;
  return cfg;
}

RunNumbers run_cluster_on(bool smoke, predis::runtime::Runtime* backend,
                          const char* backend_name, const char* clock,
                          std::size_t workers) {
  predis::core::ClusterConfig cfg = cluster_scenario(smoke);
  cfg.ctx.backend = backend;
  const predis::core::ClusterResult r = predis::core::run_cluster(cfg);
  RunNumbers n;
  n.scenario = "predis_cluster";
  n.backend = backend_name;
  n.clock = clock;
  n.workers = workers;
  n.throughput_tps = r.throughput_tps;
  n.p50_latency_ms = r.p50_latency_ms;
  n.p99_latency_ms = r.p99_latency_ms;
  n.latency_samples = r.latency_samples;
  n.committed_txs = r.committed_txs;
  n.consistent = r.consistent && r.ledgers_consistent;
  return n;
}

RunNumbers run_zone_on(bool smoke, predis::runtime::Runtime* backend,
                       const char* backend_name, const char* clock,
                       std::size_t workers) {
  predis::multizone::ThroughputConfig cfg = zone_scenario(smoke);
  cfg.ctx.backend = backend;
  const predis::multizone::ThroughputResult r =
      predis::multizone::run_distribution_cluster(cfg);
  RunNumbers n;
  n.scenario = "multizone_distribution";
  n.backend = backend_name;
  n.clock = clock;
  n.workers = workers;
  n.throughput_tps = r.throughput_tps;
  n.p50_latency_ms = r.p50_latency_ms;
  n.p99_latency_ms = r.p99_latency_ms;
  n.latency_samples = r.latency_samples;
  n.committed_txs = r.committed_txs;
  n.consistent = r.consistent;
  return n;
}

std::unique_ptr<predis::runtime::ThreadRuntime> make_wall_backend(
    std::size_t workers) {
  predis::runtime::ThreadRuntimeConfig tcfg;
  tcfg.workers = workers;
  tcfg.latency = predis::runtime::lan_latency();
  return std::make_unique<predis::runtime::ThreadRuntime>(tcfg);
}

/// A latency figure: null when the run recorded no samples.
std::string json_ms(double ms, std::uint64_t samples) {
  if (samples == 0) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

void append_json(std::string& out, const RunNumbers& n, bool last) {
  char tmp[512];
  std::snprintf(
      tmp, sizeof(tmp),
      "    {\"scenario\": \"%s\", \"backend\": \"%s\", \"clock\": \"%s\", "
      "\"workers\": %zu, \"throughput_tps\": %.1f, \"p50_latency_ms\": %s, "
      "\"p99_latency_ms\": %s, \"latency_samples\": %llu, "
      "\"committed_txs\": %llu, \"consistent\": %s}%s\n",
      n.scenario.c_str(), n.backend.c_str(), n.clock.c_str(), n.workers,
      n.throughput_tps, json_ms(n.p50_latency_ms, n.latency_samples).c_str(),
      json_ms(n.p99_latency_ms, n.latency_samples).c_str(),
      static_cast<unsigned long long>(n.latency_samples),
      static_cast<unsigned long long>(n.committed_txs),
      n.consistent ? "true" : "false", last ? "" : ",");
  out += tmp;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool strict = false;
  std::size_t workers = 4;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: runtime_report [--smoke] [--strict] "
                   "[--workers N] [--out-dir DIR]\n");
      return 2;
    }
  }
  if (workers < 4) workers = 4;  // The report's contract: >= 4 real cores.

  std::vector<RunNumbers> runs;

  // Deterministic oracle first (internal SimRuntime).
  runs.push_back(run_cluster_on(smoke, nullptr, "sim", "virtual", 1));
  runs.push_back(run_zone_on(smoke, nullptr, "sim", "virtual", 1));

  // Same scenario objects, wall-clock worker pool. One fresh backend
  // per run: a Runtime carries one topology for its lifetime.
  {
    auto wall = make_wall_backend(workers);
    runs.push_back(run_cluster_on(smoke, wall.get(), "threads",
                                  "wall", wall->worker_count()));
  }
  {
    auto wall = make_wall_backend(workers);
    runs.push_back(run_zone_on(smoke, wall.get(), "threads", "wall",
                               wall->worker_count()));
  }

  bool ok = true;
  std::printf("runtime_report: %zu runs (%s)\n", runs.size(),
              smoke ? "smoke" : "full");
  for (const RunNumbers& n : runs) {
    char latency[64];
    if (n.latency_samples == 0) {
      std::snprintf(latency, sizeof(latency), "%-30s", "no samples");
    } else {
      std::snprintf(latency, sizeof(latency), "p50 %7.2f ms  p99 %7.2f ms",
                    n.p50_latency_ms, n.p99_latency_ms);
    }
    std::printf("  %-24s %-8s %-8s workers=%zu  %9.1f tx/s  %s  "
                "committed %llu  %s\n",
                n.scenario.c_str(), n.backend.c_str(), n.clock.c_str(),
                n.workers, n.throughput_tps, latency,
                static_cast<unsigned long long>(n.committed_txs),
                n.consistent ? "consistent" : "INCONSISTENT");
    if (!n.consistent || n.latency_samples == 0) ok = false;
    if (n.scenario == "predis_cluster" && n.committed_txs == 0) ok = false;
  }

  std::string json = "{\n  \"schema\": \"predis-runtime/1\", "
                     "\"tool\": \"runtime_report\", \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    append_json(json, runs[i], i + 1 == runs.size());
  }
  json += "  ]\n}\n";
  const std::string path = out_dir + "/BENCH_runtime.json";
  std::ofstream out(path);
  out << json;
  out.close();
  std::printf("wrote %s\n", path.c_str());

  if (strict && !ok) {
    std::fprintf(stderr, "runtime_report: FAILURES (see above)\n");
    return 1;
  }
  return 0;
}
