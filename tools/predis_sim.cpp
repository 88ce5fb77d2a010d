// predis-sim — command-line driver for the simulation framework.
//
// Run any protocol/topology experiment from the shell and get a table
// or JSON back; the same entry points the bench binaries use, exposed
// with flags.
//
//   predis-sim cluster --protocol p-pbft --nodes 4 --load 10000 --wan
//   predis-sim cluster --protocol narwhal --load 18000 --json
//   predis-sim distribution --topology multi-zone --full-nodes 24 --zones 3
//   predis-sim propagation --topology star --block-mb 5 --full-nodes 100
//
// Exit status is non-zero on inconsistent ledgers, so the tool can act
// as a scriptable safety check.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/experiment.hpp"
#include "multizone/experiments.hpp"

namespace {

using namespace predis;

struct Args {
  std::map<std::string, std::string> named;
  bool flag(const std::string& name) const { return named.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = named.find(name);
    return it == named.end() ? fallback : it->second;
  }
  double num(const std::string& name, double fallback) const {
    const auto it = named.find(name);
    return it == named.end() ? fallback : std::atof(it->second.c_str());
  }
};

Args parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.named[key] = argv[++i];
    } else {
      args.named[key] = "1";
    }
  }
  return args;
}

int usage() {
  std::puts(
      "predis-sim — Predis / Multi-Zone simulation driver\n"
      "\n"
      "  predis-sim cluster [--protocol pbft|hotstuff|p-pbft|p-hs|narwhal|stratus]\n"
      "                     [--nodes N] [--load TPS] [--wan] [--batch N]\n"
      "                     [--bundle N] [--duration S] [--faulty N]\n"
      "                     [--fault silent|withhold] [--seed N] [--json]\n"
      "  predis-sim distribution [--topology star|multi-zone] [--nodes N]\n"
      "                     [--full-nodes N] [--zones N] [--load TPS] [--json]\n"
      "  predis-sim propagation [--topology star|random|multi-zone]\n"
      "                     [--block-mb N] [--full-nodes N] [--zones N] [--json]\n");
  return 2;
}

/// A latency figure for JSON: null when the run recorded no samples.
std::string json_ms(double ms, std::uint64_t samples) {
  if (samples == 0) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}

std::optional<core::Protocol> parse_protocol(const std::string& name) {
  if (name == "pbft") return core::Protocol::kPbft;
  if (name == "hotstuff") return core::Protocol::kHotStuff;
  if (name == "p-pbft") return core::Protocol::kPredisPbft;
  if (name == "p-hs") return core::Protocol::kPredisHotStuff;
  if (name == "narwhal") return core::Protocol::kNarwhal;
  if (name == "stratus") return core::Protocol::kStratus;
  return std::nullopt;
}

int run_cluster_cmd(const Args& args) {
  const auto protocol = parse_protocol(args.get("protocol", "p-pbft"));
  if (!protocol) {
    std::fprintf(stderr, "unknown --protocol\n");
    return usage();
  }
  core::ClusterConfig cfg;
  cfg.protocol = *protocol;
  cfg.n_consensus = static_cast<std::size_t>(args.num("nodes", 4));
  cfg.f = (cfg.n_consensus - 1) / 3;
  cfg.wan = args.flag("wan");
  cfg.offered_load_tps = args.num("load", 8000);
  cfg.n_clients = std::max<std::size_t>(8, cfg.n_consensus);
  cfg.batch_size = static_cast<std::size_t>(args.num("batch", 800));
  cfg.bundle_size = static_cast<std::size_t>(args.num("bundle", 50));
  cfg.duration = seconds(static_cast<std::int64_t>(args.num("duration", 12)));
  cfg.warmup = cfg.duration / 3;
  cfg.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  cfg.n_faulty = static_cast<std::size_t>(args.num("faulty", 0));
  const std::string fault = args.get("fault", "silent");
  cfg.fault_mode = fault == "withhold"
                       ? consensus::predis::FaultMode::kPartialDissemination
                       : consensus::predis::FaultMode::kSilent;
  if (cfg.n_faulty == 0) {
    cfg.fault_mode = consensus::predis::FaultMode::kNone;
  }

  const core::ClusterResult r = core::run_cluster(cfg);
  if (args.flag("json")) {
    std::printf(
        "{\"protocol\":\"%s\",\"nodes\":%zu,\"wan\":%s,"
        "\"offered_tps\":%.0f,\"throughput_tps\":%.1f,"
        "\"avg_latency_ms\":%s,\"p50_latency_ms\":%s,"
        "\"p99_latency_ms\":%s,\"committed_txs\":%llu,"
        "\"blocks\":%zu,\"consistent\":%s,\"ledgers_consistent\":%s,"
        "\"consensus_uplink_mbps\":%.2f}\n",
        core::to_string(cfg.protocol), cfg.n_consensus,
        cfg.wan ? "true" : "false", cfg.offered_load_tps, r.throughput_tps,
        json_ms(r.avg_latency_ms, r.latency_samples).c_str(),
        json_ms(r.p50_latency_ms, r.latency_samples).c_str(),
        json_ms(r.p99_latency_ms, r.latency_samples).c_str(),
        static_cast<unsigned long long>(r.committed_txs), r.commit_events,
        r.consistent ? "true" : "false",
        r.ledgers_consistent ? "true" : "false", r.consensus_uplink_mbps);
  } else {
    std::printf("protocol      : %s (%zu nodes, %s)\n",
                core::to_string(cfg.protocol), cfg.n_consensus,
                cfg.wan ? "WAN" : "LAN");
    std::printf("throughput    : %.0f tx/s (offered %.0f)\n",
                r.throughput_tps, cfg.offered_load_tps);
    if (r.latency_samples == 0) {
      std::printf("latency       : no samples\n");
    } else {
      std::printf("latency       : avg %.1f / p50 %.1f / p99 %.1f ms\n",
                  r.avg_latency_ms, r.p50_latency_ms, r.p99_latency_ms);
    }
    std::printf("blocks        : %zu (%llu txs)\n", r.commit_events,
                static_cast<unsigned long long>(r.committed_txs));
    std::printf("uplink        : %.1f Mbps avg per consensus node\n",
                r.consensus_uplink_mbps);
    std::printf("safety        : commits %s, ledgers %s\n",
                r.consistent ? "consistent" : "INCONSISTENT",
                r.ledgers_consistent ? "consistent" : "INCONSISTENT");
  }
  return (r.consistent && r.ledgers_consistent) ? 0 : 1;
}

int run_distribution_cmd(const Args& args) {
  multizone::ThroughputConfig cfg;
  cfg.topology = args.get("topology", "multi-zone") == "star"
                     ? multizone::Topology::kStar
                     : multizone::Topology::kMultiZone;
  cfg.n_consensus = static_cast<std::size_t>(args.num("nodes", 4));
  cfg.f = (cfg.n_consensus - 1) / 3;
  cfg.n_full = static_cast<std::size_t>(args.num("full-nodes", 24));
  cfg.n_zones = static_cast<std::size_t>(args.num("zones", 3));
  cfg.offered_load_tps = args.num("load", 9000);
  cfg.duration = seconds(static_cast<std::int64_t>(args.num("duration", 12)));
  cfg.warmup = cfg.duration / 2;
  cfg.seed = static_cast<std::uint64_t>(args.num("seed", 1));

  const multizone::ThroughputResult r =
      multizone::run_distribution_cluster(cfg);
  if (args.flag("json")) {
    std::printf(
        "{\"topology\":\"%s\",\"full_nodes\":%zu,\"zones\":%zu,"
        "\"throughput_tps\":%.1f,\"avg_latency_ms\":%s,"
        "\"coverage\":%.3f,\"relayers\":%zu,\"uplink_mbps\":%.2f,"
        "\"consistent\":%s}\n",
        multizone::to_string(cfg.topology), cfg.n_full, cfg.n_zones,
        r.throughput_tps,
        json_ms(r.avg_latency_ms, r.latency_samples).c_str(),
        r.full_node_coverage,
        r.relayers_seen, r.consensus_uplink_mbps,
        r.consistent ? "true" : "false");
  } else {
    std::printf("topology      : %s (%zu full nodes, %zu zones)\n",
                multizone::to_string(cfg.topology), cfg.n_full, cfg.n_zones);
    std::printf("throughput    : %.0f tx/s (offered %.0f)\n",
                r.throughput_tps, cfg.offered_load_tps);
    std::printf("coverage      : %.0f%% of blocks rebuilt by full nodes\n",
                r.full_node_coverage * 100);
    std::printf("relayers      : %zu active\n", r.relayers_seen);
    std::printf("safety        : %s\n",
                r.consistent ? "consistent" : "INCONSISTENT");
  }
  return r.consistent ? 0 : 1;
}

int run_propagation_cmd(const Args& args) {
  multizone::PropagationConfig cfg;
  const std::string topo = args.get("topology", "multi-zone");
  cfg.topology = topo == "star"     ? multizone::Topology::kStar
                 : topo == "random" ? multizone::Topology::kRandom
                                    : multizone::Topology::kMultiZone;
  cfg.n_consensus = static_cast<std::size_t>(args.num("nodes", 8));
  cfg.f = (cfg.n_consensus - 1) / 3;
  cfg.n_full = static_cast<std::size_t>(args.num("full-nodes", 100));
  cfg.n_zones = static_cast<std::size_t>(args.num("zones", 3));
  cfg.block_bytes =
      static_cast<std::size_t>(args.num("block-mb", 5)) << 20;
  cfg.n_blocks = static_cast<std::size_t>(args.num("blocks", 3));
  cfg.seed = static_cast<std::uint64_t>(args.num("seed", 1));

  const multizone::PropagationResult r = multizone::run_propagation(cfg);
  if (args.flag("json")) {
    std::printf("{\"topology\":\"%s\",\"block_mb\":%.0f,\"coverage\":%.3f",
                multizone::to_string(cfg.topology),
                static_cast<double>(cfg.block_bytes) / (1 << 20),
                r.full_coverage_fraction);
    for (const auto& [frac, ms] : r.latency_ms_at_fraction) {
      std::printf(",\"latency_ms_p%.0f\":%.1f", frac * 100, ms);
    }
    std::puts("}");
  } else {
    std::printf("topology      : %s, %zu full nodes, %.0f MB blocks\n",
                multizone::to_string(cfg.topology), cfg.n_full,
                static_cast<double>(cfg.block_bytes) / (1 << 20));
    for (const auto& [frac, ms] : r.latency_ms_at_fraction) {
      std::printf("  %3.0f%% of nodes reached in %8.0f ms\n", frac * 100,
                  ms);
    }
    std::printf("coverage      : %.0f%%\n", r.full_coverage_fraction * 100);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse(argc, argv, 2);
  if (command == "cluster") return run_cluster_cmd(args);
  if (command == "distribution") return run_distribution_cmd(args);
  if (command == "propagation") return run_propagation_cmd(args);
  return usage();
}
