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
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "multizone/experiments.hpp"
#include "runtime/environments.hpp"
#include "runtime/thread_runtime.hpp"
#include "report.hpp"

namespace {

using predis::tools::json_ms;

struct RunNumbers {
  std::string scenario;
  std::string backend;   ///< "sim" or "threads".
  std::string clock;     ///< "virtual" or "wall".
  std::size_t workers = 1;
  predis::core::RunReport report;  ///< consistent includes the ledgers.
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

/// Runs the cluster (or the zone) scenario on `backend`; null selects
/// the runner's internal SimRuntime.
RunNumbers run_on(bool smoke, bool zone, predis::runtime::Runtime* backend,
                  const char* backend_name, const char* clock,
                  std::size_t workers) {
  RunNumbers n{zone ? "multizone_distribution" : "predis_cluster",
               backend_name, clock, workers, {}};
  if (zone) {
    predis::multizone::ThroughputConfig cfg = zone_scenario(smoke);
    cfg.ctx.backend = backend;
    n.report = predis::multizone::run_distribution_cluster(cfg);
  } else {
    predis::core::ClusterConfig cfg = cluster_scenario(smoke);
    cfg.ctx.backend = backend;
    const predis::core::ClusterResult r = predis::core::run_cluster(cfg);
    n.report = r;
    n.report.consistent = r.consistent && r.ledgers_consistent;
  }
  return n;
}

std::unique_ptr<predis::runtime::ThreadRuntime> make_wall_backend(
    std::size_t workers) {
  predis::runtime::ThreadRuntimeConfig tcfg;
  tcfg.workers = workers;
  tcfg.latency = predis::runtime::lan_latency();
  return std::make_unique<predis::runtime::ThreadRuntime>(tcfg);
}

void append_json(std::string& out, const RunNumbers& n, bool last) {
  const predis::core::RunReport& r = n.report;
  char tmp[512];
  std::snprintf(
      tmp, sizeof(tmp),
      "    {\"scenario\": \"%s\", \"backend\": \"%s\", \"clock\": \"%s\", "
      "\"workers\": %zu, \"throughput_tps\": %.1f, \"p50_latency_ms\": %s, "
      "\"p99_latency_ms\": %s, \"latency_samples\": %llu, "
      "\"committed_txs\": %llu, \"consistent\": %s}%s\n",
      n.scenario.c_str(), n.backend.c_str(), n.clock.c_str(), n.workers,
      r.throughput_tps, json_ms(r.p50_latency_ms, r.latency_samples, 3).c_str(),
      json_ms(r.p99_latency_ms, r.latency_samples, 3).c_str(),
      static_cast<unsigned long long>(r.latency_samples),
      static_cast<unsigned long long>(r.committed_txs),
      r.consistent ? "true" : "false", last ? "" : ",");
  out += tmp;
}

}  // namespace

int main(int argc, char** argv) {
  const predis::tools::Args args = predis::tools::parse_args(
      argc, argv, 1, {"smoke", "strict", "workers=", "out-dir="},
      "usage: runtime_report [--smoke] [--strict] [--workers N] "
      "[--out-dir DIR]\n");
  const bool smoke = args.flag("smoke");
  const bool strict = args.flag("strict");
  std::size_t workers = args.whole("workers", 4, 1, 256);
  if (workers < 4) workers = 4;  // The report's contract: >= 4 real cores.

  std::vector<RunNumbers> runs;

  // Deterministic oracle first (internal SimRuntime).
  for (bool zone : {false, true}) {
    runs.push_back(run_on(smoke, zone, nullptr, "sim", "virtual", 1));
  }

  // Same scenario objects, wall-clock worker pool. One fresh backend
  // per run: a Runtime carries one topology for its lifetime.
  for (bool zone : {false, true}) {
    auto wall = make_wall_backend(workers);
    runs.push_back(run_on(smoke, zone, wall.get(), "threads", "wall",
                          wall->worker_count()));
  }

  bool ok = true;
  std::printf("runtime_report: %zu runs (%s)\n", runs.size(),
              smoke ? "smoke" : "full");
  for (const RunNumbers& n : runs) {
    const predis::core::RunReport& r = n.report;
    char latency[64];
    if (r.latency_samples == 0) {
      std::snprintf(latency, sizeof(latency), "%-30s", "no samples");
    } else {
      std::snprintf(latency, sizeof(latency), "p50 %7.2f ms  p99 %7.2f ms",
                    r.p50_latency_ms, r.p99_latency_ms);
    }
    std::printf("  %-24s %-8s %-8s workers=%zu  %9.1f tx/s  %s  "
                "committed %llu  %s\n",
                n.scenario.c_str(), n.backend.c_str(), n.clock.c_str(),
                n.workers, r.throughput_tps, latency,
                static_cast<unsigned long long>(r.committed_txs),
                r.consistent ? "consistent" : "INCONSISTENT");
    if (!r.consistent || r.latency_samples == 0) ok = false;
    if (n.scenario == "predis_cluster" && r.committed_txs == 0) ok = false;
  }

  std::string json = "{\n  \"schema\": \"predis-runtime/1\", "
                     "\"tool\": \"runtime_report\", \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    append_json(json, runs[i], i + 1 == runs.size());
  }
  json += "  ]\n}\n";
  const int write_rc = predis::tools::write_file(
      "runtime_report", args.get("out-dir", ".") + "/BENCH_runtime.json",
      json);
  if (write_rc != 0) return write_rc;

  if (strict && !ok) {
    std::fprintf(stderr, "runtime_report: FAILURES (see above)\n");
    return 1;
  }
  return 0;
}
