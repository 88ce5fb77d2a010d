// predis-sim — command-line driver for the simulation framework.
//
// Run any protocol/topology experiment from the shell and get a table
// or JSON back, or regenerate the paper's evaluation (§V) figure by
// figure.
//
//   predis-sim cluster --protocol p-pbft --nodes 4 --load 10000 --wan
//   predis-sim cluster --protocol narwhal --load 18000 --json
//   predis-sim distribution --topology multi-zone --full-nodes 24 --zones 3
//   predis-sim propagation --topology star --block-mb 5 --full-nodes 100
//   predis-sim paper --figure fig7 --json
//   predis-sim campaign --kind adversary --smoke --strict
//
// Exit status is non-zero on inconsistent ledgers, so the tool can act
// as a scriptable safety check; `campaign --strict` also fails on any
// of its kind's checks (the smoke ctests run all four kinds so).
#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "bundle/predis_block.hpp"
#include "common/block_tracer.hpp"
#include "common/thread_annotations.hpp"
#include "consensus/narwhal/shared_mempool.hpp"
#include "core/experiment.hpp"
#include "core/swarm.hpp"
#include "multizone/experiments.hpp"
#include "runtime/environments.hpp"
#include "runtime/faults.hpp"
#include "runtime/thread_runtime.hpp"
#include "report.hpp"

namespace {

using namespace predis;
using consensus::predis::FaultMode;
using core::Protocol;
using multizone::Topology;
using tools::Args;
using tools::json_ms;
using tools::JsonWriter;
using tools::table_ms;

constexpr const char* kUsage =
    "predis-sim — Predis / Multi-Zone simulation driver\n"
    "\n"
    "  predis-sim cluster [--protocol pbft|hotstuff|p-pbft|p-hs|narwhal|stratus]\n"
    "                     [--nodes N] [--load TPS] [--wan] [--batch N]\n"
    "                     [--bundle N] [--duration S] [--faulty N]\n"
    "                     [--fault silent|withhold] [--seed N] [--json]\n"
    "  predis-sim distribution [--topology star|multi-zone] [--nodes N]\n"
    "                     [--full-nodes N] [--zones N] [--load TPS]\n"
    "                     [--duration S] [--seed N] [--json]\n"
    "  predis-sim propagation [--topology star|random|multi-zone]\n"
    "                     [--nodes N] [--block-mb N] [--blocks N]\n"
    "                     [--full-nodes N] [--zones N] [--seed N] [--json]\n"
    "  predis-sim paper [--figure fig4|fig5|fig6|fig7|fig8|ablation]\n"
    "                     [--json]\n"
    "  predis-sim campaign --kind adversary|recovery|trace|runtime\n"
    "                     [--smoke] [--strict] [--out-dir DIR]\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

/// --load in tx/s: a negative rate has no transaction count.
double load(const Args& args, double fallback) {
  const double tps = args.num("load", fallback);
  if (tps < 0) args.fail("--load must not be negative");
  return tps;
}

/// --duration in whole seconds: a shorter run measures nothing.
SimTime duration(const Args& args) {
  return seconds(static_cast<std::int64_t>(args.count("duration", 12)));
}

Topology topology(const Args& args, std::initializer_list<Topology> known) {
  const std::string flag = args.get("topology", "multi-zone");
  for (const Topology t : known) {
    if (flag == multizone::to_string(t)) return t;
  }
  args.fail("unknown --topology " + flag);
}

// One run kind per config type: `run` runs it, `print_json` writes its
// result fields (the body of a JSON object), `print_row` writes its
// one-line table row and `ok` says whether its safety checks held.

core::ClusterResult run(const core::ClusterConfig& cfg) {
  return core::run_cluster(cfg);
}

void print_json(const core::ClusterConfig& cfg, const core::ClusterResult& r) {
  std::printf(
      "\"protocol\":\"%s\",\"nodes\":%zu,\"wan\":%s,"
      "\"offered_tps\":%.0f,\"throughput_tps\":%.1f,"
      "\"avg_latency_ms\":%s,\"p50_latency_ms\":%s,"
      "\"p99_latency_ms\":%s,\"committed_txs\":%llu,"
      "\"blocks\":%zu,\"consistent\":%s,\"ledgers_consistent\":%s,"
      "\"consensus_uplink_mbps\":%.2f,\"shed_uplink_txs\":%llu,"
      "\"shed_unconfirmed_txs\":%llu",
      core::to_string(cfg.protocol), cfg.n_consensus,
      cfg.wan ? "true" : "false", cfg.offered_load_tps, r.throughput_tps,
      json_ms(r.avg_latency_ms, r.latency_samples, 2).c_str(),
      json_ms(r.p50_latency_ms, r.latency_samples, 2).c_str(),
      json_ms(r.p99_latency_ms, r.latency_samples, 2).c_str(),
      static_cast<unsigned long long>(r.committed_txs), r.commit_events,
      r.consistent ? "true" : "false",
      r.ledgers_consistent ? "true" : "false", r.consensus_uplink_mbps,
      static_cast<unsigned long long>(r.shed_uplink_txs),
      static_cast<unsigned long long>(r.shed_unconfirmed_txs));
}

bool ok(const core::ClusterResult& r) {
  return r.consistent && r.ledgers_consistent;
}

void print_row(const std::string& series, const core::ClusterConfig& cfg,
               const core::ClusterResult& r) {
  std::printf("%-26s n=%-2zu %s offered=%6.0f tput=%7.0f lat_ms=%7s "
              "p99=%7s%s\n",
              series.c_str(), cfg.n_consensus, cfg.wan ? "WAN" : "LAN",
              cfg.offered_load_tps, r.throughput_tps,
              table_ms(r, r.avg_latency_ms).c_str(),
              table_ms(r, r.p99_latency_ms).c_str(),
              ok(r) ? "" : "  !!INCONSISTENT");
}

multizone::ThroughputResult run(const multizone::ThroughputConfig& cfg) {
  return multizone::run_distribution_cluster(cfg);
}

void print_json(const multizone::ThroughputConfig& cfg,
                const multizone::ThroughputResult& r) {
  std::printf(
      "\"topology\":\"%s\",\"full_nodes\":%zu,\"zones\":%zu,"
      "\"throughput_tps\":%.1f,\"avg_latency_ms\":%s,"
      "\"coverage\":%.3f,\"relayers\":%zu,\"uplink_mbps\":%.2f,"
      "\"consistent\":%s",
      multizone::to_string(cfg.topology), cfg.n_full, cfg.n_zones,
      r.throughput_tps, json_ms(r.avg_latency_ms, r.latency_samples, 2).c_str(),
      r.full_node_coverage, r.relayers_seen, r.consensus_uplink_mbps,
      r.consistent ? "true" : "false");
}

bool ok(const multizone::ThroughputResult& r) { return r.consistent; }

void print_row(const std::string& series,
               const multizone::ThroughputConfig& cfg,
               const multizone::ThroughputResult& r) {
  std::printf("%-26s zones=%-2zu full=%-3zu tput=%7.0f lat_ms=%7s "
              "uplink=%5.1fMbps coverage=%.2f%s\n",
              series.c_str(), cfg.n_zones, cfg.n_full, r.throughput_tps,
              table_ms(r, r.avg_latency_ms).c_str(), r.consensus_uplink_mbps,
              r.full_node_coverage, ok(r) ? "" : "  !!INCONSISTENT");
}

multizone::PropagationResult run(const multizone::PropagationConfig& cfg) {
  return multizone::run_propagation(cfg);
}

void print_json(const multizone::PropagationConfig& cfg,
                const multizone::PropagationResult& r) {
  std::printf("\"topology\":\"%s\",\"block_mb\":%.0f,\"coverage\":%.3f",
              multizone::to_string(cfg.topology),
              static_cast<double>(cfg.block_bytes) / (1 << 20),
              r.full_coverage_fraction);
  for (const auto& [frac, ms] : r.latency_ms_at_fraction) {
    std::printf(",\"latency_ms_p%.0f\":%.1f", frac * 100, ms);
  }
}

bool ok(const multizone::PropagationResult&) { return true; }

void print_row(const std::string& series,
               const multizone::PropagationConfig& cfg,
               const multizone::PropagationResult& r) {
  std::printf("%-26s block=%2zuMB", series.c_str(), cfg.block_bytes >> 20);
  for (const double frac : {0.50, 0.90, 1.00}) {
    const auto it = r.latency_ms_at_fraction.find(frac);
    if (it == r.latency_ms_at_fraction.end()) {
      std::printf(" %3.0f%%:     n/a", frac * 100);
    } else {
      std::printf(" %3.0f%%:%8.0fms", frac * 100, it->second);
    }
  }
  std::printf("  coverage=%.2f\n", r.full_coverage_fraction);
}

/// §V-A: wire sizes of a proposal ordering `txs` transactions in 50-tx
/// bundles (microblocks) at n_c = 80, filled in by `run`.
struct ProposalSizes {
  std::size_t txs = 0;
  std::size_t predis_block = 0;
  std::size_t narwhal_id_list = 0;
  std::size_t stratus_id_list = 0;
};

constexpr std::size_t kProposalNodes = 80;

ProposalSizes run(ProposalSizes s) {
  const std::size_t f = (kProposalNodes - 1) / 3;
  // A Predis block always carries at most n_c header hashes.
  PredisBlock block;
  block.prev_heights.assign(kProposalNodes, 0);
  block.cut_heights.assign(kProposalNodes, s.txs / 50 / kProposalNodes + 1);
  block.header_hashes.assign(kProposalNodes, kZeroHash);
  s.predis_block = block.wire_size();
  // Id-list proposals carry one (id + certificate) per microblock; the
  // certificate holds n_c − f acks (Narwhal) or f + 1 (Stratus).
  const std::vector<consensus::narwhal::MicroblockRef> refs(s.txs / 50);
  s.narwhal_id_list =
      consensus::narwhal::IdListPayload(refs, kProposalNodes - f).wire_size();
  s.stratus_id_list =
      consensus::narwhal::IdListPayload(refs, f + 1).wire_size();
  return s;
}

void print_json(const ProposalSizes&, const ProposalSizes& s) {
  std::printf("\"nodes\":%zu,\"txs\":%zu,\"predis_block_bytes\":%zu,"
              "\"narwhal_id_list_bytes\":%zu,\"stratus_id_list_bytes\":%zu",
              kProposalNodes, s.txs, s.predis_block, s.narwhal_id_list,
              s.stratus_id_list);
}

bool ok(const ProposalSizes&) { return true; }

void print_row(const std::string& series, const ProposalSizes&,
               const ProposalSizes& s) {
  std::printf("%-26s txs=%-6zu predis_block=%5zuB narwhal_id_list=%8zuB "
              "stratus_id_list=%8zuB\n",
              series.c_str(), s.txs, s.predis_block, s.narwhal_id_list,
              s.stratus_id_list);
}

/// The settings every cluster run shares: f = ⌊(n − 1)/3⌋, at least
/// eight clients and one per node, 12 s measured after 4 s of warm-up.
core::ClusterConfig cluster(Protocol protocol, std::size_t n, bool wan,
                            double load) {
  core::ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n_consensus = n;
  cfg.f = (n - 1) / 3;
  cfg.wan = wan;
  cfg.offered_load_tps = load;
  cfg.n_clients = std::max<std::size_t>(8, n);
  cfg.duration = seconds(12);
  cfg.warmup = seconds(4);
  return cfg;
}

int run_cluster_cmd(const Args& args) {
  const auto protocol = core::parse_protocol(args.get("protocol", "p-pbft"));
  if (!protocol) args.fail("unknown --protocol");
  core::ClusterConfig cfg = cluster(*protocol, args.count("nodes", 4),
                                    args.flag("wan"), load(args, 8000));
  cfg.batch_size = args.count("batch", 800);
  cfg.bundle_size = args.count("bundle", 50);
  cfg.duration = duration(args);
  cfg.warmup = cfg.duration / 3;
  cfg.seed = args.seed("seed", 1);
  const double faulty = args.num("faulty", 0);
  if (faulty < 0 || faulty > static_cast<double>(cfg.f)) {
    args.fail("--faulty must be in [0, f] with f = " + std::to_string(cfg.f) +
              " for " + std::to_string(cfg.n_consensus) + " nodes");
  }
  cfg.n_faulty = static_cast<std::size_t>(faulty);
  const std::string fault = args.get("fault", "silent");
  if (fault != "silent" && fault != "withhold") {
    args.fail("unknown --fault " + fault);
  }
  cfg.fault_mode = fault == "withhold"
                       ? consensus::predis::FaultMode::kPartialDissemination
                       : consensus::predis::FaultMode::kSilent;
  if (cfg.n_faulty == 0) {
    cfg.fault_mode = consensus::predis::FaultMode::kNone;
  }

  const core::ClusterResult r = run(cfg);
  if (args.flag("json")) {
    std::putchar('{');
    print_json(cfg, r);
    std::puts("}");
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
    std::printf("shed          : %llu txs on uplink backlog, %llu at the "
                "unconfirmed cap\n",
                static_cast<unsigned long long>(r.shed_uplink_txs),
                static_cast<unsigned long long>(r.shed_unconfirmed_txs));
    std::printf("safety        : commits %s, ledgers %s\n",
                r.consistent ? "consistent" : "INCONSISTENT",
                r.ledgers_consistent ? "consistent" : "INCONSISTENT");
  }
  return ok(r) ? 0 : 1;
}

int run_distribution_cmd(const Args& args) {
  multizone::ThroughputConfig cfg;
  cfg.topology = topology(args, {Topology::kStar, Topology::kMultiZone});
  cfg.n_consensus = args.count("nodes", 4);
  cfg.f = (cfg.n_consensus - 1) / 3;
  cfg.n_full = args.count("full-nodes", 24);
  cfg.n_zones = args.count("zones", 3);
  cfg.offered_load_tps = load(args, 9000);
  cfg.duration = duration(args);
  cfg.warmup = cfg.duration / 2;
  cfg.seed = args.seed("seed", 1);

  const multizone::ThroughputResult r = run(cfg);
  if (args.flag("json")) {
    std::putchar('{');
    print_json(cfg, r);
    std::puts("}");
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
  return ok(r) ? 0 : 1;
}

int run_propagation_cmd(const Args& args) {
  multizone::PropagationConfig cfg;
  cfg.topology = topology(
      args, {Topology::kStar, Topology::kRandom, Topology::kMultiZone});
  cfg.n_consensus = args.count("nodes", 8);
  cfg.f = (cfg.n_consensus - 1) / 3;
  cfg.n_full = args.count("full-nodes", 100);
  cfg.n_zones = args.count("zones", 3);
  cfg.block_bytes = args.count("block-mb", 5) << 20;
  cfg.n_blocks = args.count("blocks", 3);
  cfg.seed = args.seed("seed", 1);

  const multizone::PropagationResult r = run(cfg);
  if (args.flag("json")) {
    std::putchar('{');
    print_json(cfg, r);
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

// `paper`: the evaluation of §V, one preset table per figure. The
// reproduction target is each figure's shape (EXPERIMENTS.md).

struct Row {
  std::string series;
  std::variant<core::ClusterConfig, multizone::ThroughputConfig,
               multizone::PropagationConfig, ProposalSizes>
      config;
};

struct Figure {
  const char* name;
  const char* title;
  std::vector<Row> rows;
};

/// Fig. 4: Predis on top of PBFT and HotStuff (WAN). The baselines
/// saturate near 5 k tx/s, so they sweep lighter loads than Predis,
/// which is driven to 24 k.
Figure fig4() {
  Figure fig{"fig4", "Fig 4: PBFT/HotStuff vs P-PBFT/P-HS (WAN)", {}};
  const auto sweep = [&fig](const std::string& series, Protocol p,
                            std::size_t n, std::size_t batch,
                            std::size_t bundle) {
    for (const double load :
         p == Protocol::kPbft || p == Protocol::kHotStuff
             ? std::vector<double>{1000, 2000, 4000, 6000, 8000, 12000}
             : std::vector<double>{2000, 6000, 12000, 18000, 24000}) {
      core::ClusterConfig cfg = cluster(p, n, true, load);
      cfg.batch_size = batch;
      cfg.bundle_size = bundle;
      fig.rows.push_back({series, cfg});
    }
  };
  for (const auto& [ab, cd, base, predis] :
       {std::tuple{"(a) ", "(c) ", Protocol::kPbft, Protocol::kPredisPbft},
        std::tuple{"(b) ", "(d) ", Protocol::kHotStuff,
                   Protocol::kPredisHotStuff}}) {
    const std::string base_name = core::to_string(base);
    const std::string predis_name = core::to_string(predis);
    // (a)/(b): parameter variants at n_c = 4.
    for (const std::size_t batch : {400u, 800u}) {
      sweep(ab + base_name + " batch=" + std::to_string(batch), base, 4,
            batch, 50);
    }
    for (const std::size_t bundle : {25u, 50u, 100u}) {
      sweep(ab + predis_name + " bundle=" + std::to_string(bundle), predis,
            4, 800, bundle);
    }
    // (c)/(d): scaling n_c at batch 800, bundle 50.
    for (const std::size_t n : {4u, 8u, 16u}) {
      sweep(cd + base_name, base, n, 800, 50);
      sweep(cd + predis_name, predis, n, 800, 50);
    }
  }
  return fig;
}

/// Fig. 5: Predis (P-HS) against Narwhal and Stratus, n_c = 4, one
/// worker with 50-tx microblocks each, WAN then LAN; 24 k is past
/// every protocol's knee. Then §V-A's proposal sizes.
Figure fig5() {
  Figure fig{"fig5", "Fig 5: Predis vs Narwhal vs Stratus (n_c = 4)", {}};
  for (const bool wan : {true, false}) {
    for (const Protocol p : {Protocol::kPredisHotStuff, Protocol::kNarwhal,
                             Protocol::kStratus}) {
      for (const double load : {6000, 12000, 18000, 24000}) {
        fig.rows.push_back({p == Protocol::kPredisHotStuff
                                ? "Predis"
                                : core::to_string(p),
                            cluster(p, 4, wan, load)});
      }
    }
  }
  for (const std::size_t txs : {2'500u, 10'000u, 25'000u, 50'000u}) {
    fig.rows.push_back({"proposal size", ProposalSizes{txs}});
  }
  return fig;
}

/// Fig. 6: P-PBFT with f' faulty nodes of 8 (WAN). 12 k tx/s is below
/// the 8-node knee (Fig. 4(c) carries 18 k), so case 1 loses the silent
/// producers' share of the bundles rather than queueing.
Figure fig6() {
  const auto faulty = [](std::size_t n, FaultMode mode) {
    core::ClusterConfig cfg = cluster(Protocol::kPredisPbft, 8, true, 12'000);
    cfg.duration = seconds(14);
    cfg.warmup = seconds(5);
    cfg.n_faulty = n;
    cfg.fault_mode = mode;
    return cfg;
  };
  Figure fig{"fig6", "Fig 6: P-PBFT under faults (8 nodes, WAN, 12k tx/s)",
             {{"normal", faulty(0, FaultMode::kNone)}}};
  for (const std::size_t n : {1u, 2u}) {
    const std::string suffix = " faulty=" + std::to_string(n);
    fig.rows.push_back(
        {"case1-silent" + suffix, faulty(n, FaultMode::kSilent)});
    fig.rows.push_back({"case2-withhold" + suffix,
                        faulty(n, FaultMode::kPartialDissemination)});
  }
  return fig;
}

/// Fig. 7: consensus throughput as full nodes grow, star vs Multi-Zone
/// (LAN). The paper offers a fixed 26 k tx/s, just above its testbed's
/// saturation; our Multi-Zone capacity is ~8 k tx/s at n_c = 4, so 9 k
/// is the same "just above capacity" point (deeper overload only adds
/// pull-traffic noise). A zone seats n_c relayers, so every Multi-Zone
/// row keeps full nodes >= zones x n_c.
Figure fig7() {
  Figure fig{"fig7", "Fig 7: star vs Multi-Zone throughput (9k tx/s)", {}};
  const auto row = [&fig](Topology topology, std::size_t n,
                          std::size_t zones,
                          std::initializer_list<std::size_t> fulls) {
    for (const std::size_t full : fulls) {
      multizone::ThroughputConfig cfg;
      cfg.topology = topology;
      cfg.n_consensus = n;
      cfg.f = (n - 1) / 3;
      cfg.n_full = full;
      cfg.n_zones = zones;
      cfg.offered_load_tps = 9'000;
      fig.rows.push_back({std::string(multizone::to_string(topology)) +
                              " n_c=" + std::to_string(n),
                          cfg});
    }
  };
  row(Topology::kStar, 4, 1, {12, 24, 36, 48});
  row(Topology::kStar, 8, 1, {12, 24, 36, 48});
  row(Topology::kMultiZone, 4, 3, {12, 24, 36, 48});
  row(Topology::kMultiZone, 8, 3, {24, 36, 48});
  row(Topology::kMultiZone, 4, 12, {48, 60});
  return fig;
}

/// Fig. 8: time for a block to reach X% of 100 full nodes, 8 consensus
/// nodes (LAN; PropagationConfig's defaults are the paper's settings).
/// 256 KB bundles keep 40 MB blocks at a tractable event count without
/// changing the bytes that flow.
Figure fig8() {
  Figure fig{"fig8", "Fig 8: block propagation (8 + 100 nodes, LAN)", {}};
  for (const std::size_t mb : {1u, 5u, 10u, 20u, 40u}) {
    for (const auto& [series, topology, zones] :
         {std::tuple{"star", Topology::kStar, 1u},
          std::tuple{"random(FEG)", Topology::kRandom, 1u},
          std::tuple{"multizone-3", Topology::kMultiZone, 3u},
          std::tuple{"multizone-12", Topology::kMultiZone, 12u}}) {
      multizone::PropagationConfig cfg;
      cfg.topology = topology;
      cfg.n_zones = zones;
      cfg.block_bytes = mb << 20;
      cfg.bundle_bytes = 256 << 10;
      cfg.n_blocks = 3;
      fig.rows.push_back({series, cfg});
    }
  }
  return fig;
}

/// Ablations beyond the paper, n_c = 4, WAN: P-PBFT's cutting-rule
/// quorum and bundle size x production interval at 10 k tx/s (below its
/// knee), and baseline PBFT's pipelining window at 6 k tx/s (just above
/// the serialized baseline's knee).
Figure ablation() {
  Figure fig{"ablation", "Ablations: cutting rule, PBFT window, bundles", {}};
  for (const auto& [name, cut_f] :
       {std::pair<const char*, std::size_t>{"cut: paper (n-f fastest)",
                                            static_cast<std::size_t>(-1)},
        {"cut: all nodes (f_cut=0)", 0},
        {"cut: leader-only (f_cut=3)", 3}}) {
    core::ClusterConfig cfg = cluster(Protocol::kPredisPbft, 4, true, 10'000);
    cfg.cut_f_override = cut_f;
    fig.rows.push_back({name, cfg});
  }
  for (const SeqNum window : {1u, 2u, 4u, 8u}) {
    core::ClusterConfig cfg = cluster(Protocol::kPbft, 4, true, 6'000);
    cfg.pbft_pipeline_window = window;
    fig.rows.push_back({"pbft window=" + std::to_string(window), cfg});
  }
  for (const std::size_t bundle : {25u, 50u, 100u, 200u}) {
    for (const int interval_ms : {10, 25, 100}) {
      core::ClusterConfig cfg = cluster(Protocol::kPredisPbft, 4, true, 10'000);
      cfg.bundle_size = bundle;
      cfg.bundle_interval = milliseconds(interval_ms);
      fig.rows.push_back({"bundle=" + std::to_string(bundle) + " interval=" +
                              std::to_string(interval_ms) + "ms",
                          cfg});
    }
  }
  return fig;
}

int run_paper_cmd(const Args& args) {
  std::vector<Figure> figures = {fig4(), fig5(), fig6(),
                                 fig7(), fig8(), ablation()};
  if (args.flag("figure")) {
    const std::string only = args.get("figure", "");
    std::erase_if(figures, [&](const Figure& f) { return f.name != only; });
    if (figures.empty()) args.fail("unknown --figure " + only);
  }
  const bool json = args.flag("json");
  bool consistent = true;
  if (json) {
    std::printf("{\"schema\": \"predis-paper/1\", \"tool\": \"predis-sim "
                "paper\", \"figures\": {");
  }
  for (const Figure& fig : figures) {
    if (json) {
      std::printf("%s\n\"%s\": [", &fig == &figures.front() ? "" : ",",
                  fig.name);
    } else {
      std::printf("%s=== %s ===\n", &fig == &figures.front() ? "" : "\n",
                  fig.title);
    }
    for (const Row& row : fig.rows) {
      std::visit(
          [&](const auto& cfg) {
            const auto r = run(cfg);
            consistent = ok(r) && consistent;
            if (json) {
              std::printf("%s\n {\"series\":\"%s\",",
                          &row == &fig.rows.front() ? "" : ",",
                          row.series.c_str());
              print_json(cfg, r);
              std::putchar('}');
            } else {
              print_row(row.series, cfg, r);
            }
          },
          row.config);
      std::fflush(stdout);
    }
    if (json) std::printf("\n]");
  }
  if (json) std::puts("\n}}");
  return consistent ? 0 : 1;
}


// `campaign`: the robustness reports, one preset per kind. Each writes
// its BENCH_*.json to --out-dir and prints one summary line of checks;
// --strict turns a failed check into exit status 1.
//
//   adversary  every attack archetype against P-PBFT, PBFT, HotStuff and
//              Narwhal (swarm harness) and against Multi-Zone gossip. A
//              single attacker within the f-budget may slow a protocol
//              down, but every cell must stay safe and keep committing.
//   recovery   crash/restart, churn storm and partition/heal against
//              five protocols: a node that was cut off must resume
//              committing shortly after the heal.
//   trace      one small tracer-instrumented run per protocol family:
//              per-stage latency tables and anomaly scans, which must
//              come back clean.
//   runtime    one P-PBFT cluster and one Multi-Zone run, assembled by
//              the same code, on the deterministic simulator (model
//              time) and on ThreadRuntime (wall clock, no network model).

/// A campaign's result: its JSON after the envelope's "smoke" field,
/// and its checks, each named for the summary line.
struct Report {
  std::string json;
  std::vector<std::pair<const char*, bool>> checks;
};

/// The small Fig. 7 run the adversary and trace campaigns share:
/// P-PBFT + Multi-Zone, 4 consensus nodes, 3 zones.
multizone::ThroughputConfig small_fig7(bool smoke, std::uint64_t seed) {
  multizone::ThroughputConfig cfg;
  cfg.topology = Topology::kMultiZone;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = smoke ? 6 : 12;
  cfg.n_zones = 3;
  cfg.offered_load_tps = smoke ? 3'000.0 : 8'000.0;
  cfg.duration = smoke ? seconds(6) : seconds(10);
  cfg.warmup = seconds(2);
  cfg.seed = seed;
  return cfg;
}

// --- Swarm campaigns (adversary, recovery) -----------------------------

/// One run of a swarm campaign under one fault shape.
struct Cell {
  const char* shape = "";
  core::SwarmCaseResult r;
  /// What "alive" and the clean-relative throughput ratio read:
  /// committed txs of a swarm case, tx/s of a Multi-Zone run.
  double basis = 0.0;
};

double throughput_ratio(const Cell& clean, const Cell& c) {
  return clean.basis <= 0.0 ? 0.0 : c.basis / clean.basis;
}

struct Shape {
  const char* name;
  core::AttackKind attack;
  void (*faults)(runtime::FaultPlanConfig&);  ///< Null: keep the plan.
};

/// Per protocol, a clean same-seed baseline and then one cell per fault
/// shape; the Multi-Zone gossip row follows the protocols if `gossip`.
struct SwarmCampaign {
  std::vector<Protocol> protocols;
  bool gossip;
  SimTime clean_tail;  ///< Fault-free time after the fault horizon.
  Shape clean;
  std::vector<Shape> shapes;
  const char* shape_key;  ///< JSON key of a cell's shape name.
  void (*clean_json)(JsonWriter&, const Cell& clean);
  void (*cell_json)(JsonWriter&, const Cell& clean, const Cell& c);
  const char* fired;  ///< Summary name of the "faults fired" check.
  bool (*fired_ok)(const Cell&);
};

SwarmCampaign adversary() {
  using core::AttackKind;
  const auto attack = [](AttackKind a) -> Shape {
    return {core::to_string(a), a, nullptr};
  };
  return {
      .protocols = {Protocol::kPredisPbft, Protocol::kPbft,
                    Protocol::kHotStuff, Protocol::kNarwhal},
      .gossip = true,
      .clean_tail = seconds(2),
      .clean = {"clean", AttackKind::kNone,
                [](runtime::FaultPlanConfig& plan) {
                  core::configure_attack(plan, AttackKind::kNone, 0);
                }},
      .shapes = {attack(AttackKind::kThrottle), attack(AttackKind::kWithhold),
                 attack(AttackKind::kGarbage),
                 attack(AttackKind::kChurnStorm)},
      .shape_key = "attack",
      .clean_json =
          [](JsonWriter& j, const Cell& clean) {
            j.kv("committed_txs",
                 static_cast<std::size_t>(clean.r.committed_txs));
            j.kv("throughput_tps", clean.r.throughput_tps);
            j.kv("p99_ms", clean.r.production_p99_ms, false);
          },
      .cell_json =
          [](JsonWriter& j, const Cell& clean, const Cell& c) {
            j.kv("committed_txs", static_cast<std::size_t>(c.r.committed_txs));
            j.kv("throughput_tps", c.r.throughput_tps);
            j.kv("throughput_ratio", throughput_ratio(clean, c));
            j.kv("p99_ms", c.r.production_p99_ms);
            j.kv("hostile_msgs", c.r.hostile_msgs);
            j.kv("faults_injected", c.r.faults_injected, false);
          },
      .fired = "garbage injection",
      .fired_ok =
          [](const Cell& c) {
            return std::string(c.shape) != "garbage" || c.r.hostile_msgs > 0;
          },
  };
}

/// Turns off every fault kind that is on by default, so a recovery
/// scenario exercises exactly one recovery path.
void quiesce(runtime::FaultPlanConfig& plan) {
  plan.crashes = false;
  plan.pair_partitions = false;
  plan.zone_partitions = false;
  plan.jitter = false;
  plan.drops = false;
  plan.equivocation = false;
}

SwarmCampaign recovery() {
  return {
      .protocols = {Protocol::kPredisPbft, Protocol::kPbft,
                    Protocol::kHotStuff, Protocol::kPredisHotStuff,
                    Protocol::kNarwhal},
      .gossip = false,
      // Time-to-catch-up and post-heal throughput need room after the
      // last heal to be measured.
      .clean_tail = seconds(3),
      .clean = {"clean", core::AttackKind::kNone, quiesce},
      .shapes = {{"crash_restart", core::AttackKind::kNone,
                  [](runtime::FaultPlanConfig& plan) {
                    quiesce(plan);
                    plan.crashes = true;
                  }},
                 {"churn_storm", core::AttackKind::kNone,
                  [](runtime::FaultPlanConfig& plan) {
                    quiesce(plan);
                    plan.churn_storms = true;
                  }},
                 {"partition_heal", core::AttackKind::kNone,
                  [](runtime::FaultPlanConfig& plan) {
                    quiesce(plan);
                    plan.partitions = true;
                  }}},
      .shape_key = "scenario",
      .clean_json =
          [](JsonWriter& j, const Cell& clean) {
            j.kv("committed_txs",
                 static_cast<std::size_t>(clean.r.committed_txs));
            j.kv("throughput_tps", clean.r.throughput_tps);
            j.kv("gc_bytes", static_cast<std::size_t>(clean.r.gc_bytes),
                 false);
          },
      .cell_json =
          [](JsonWriter& j, const Cell& clean, const Cell& c) {
            const core::SwarmCaseResult& r = c.r;
            j.kv("committed_txs", static_cast<std::size_t>(r.committed_txs));
            j.kv("throughput_ratio", throughput_ratio(clean, c));
            j.kv("post_heal_ratio",
                 clean.r.throughput_tps <= 0.0
                     ? 0.0
                     : r.post_heal_tps / clean.r.throughput_tps);
            j.kv("catch_up_ms", r.catch_up_ms);
            j.kv("catch_up_batches",
                 static_cast<std::size_t>(r.catch_up_batches));
            j.kv("sync_stalls", r.sync_stalls);
            j.kv("state_transfers", r.state_transfers);
            j.kv("gc_bytes", static_cast<std::size_t>(r.gc_bytes));
            j.kv("gc_items", static_cast<std::size_t>(r.gc_items));
            j.kv("duplicate_payloads", r.duplicate_payloads);
            j.kv("faults_injected", r.faults_injected, false);
          },
      .fired = "fault injection",
      .fired_ok = [](const Cell& c) { return c.r.faults_injected > 0; },
  };
}

/// The adversary campaign's Multi-Zone row: the small Fig. 7 run under
/// `swarm`'s attack, aimed at the distribution layer. Throttle hits a
/// consensus stripe source, which degrades the whole fan-out tree;
/// withhold, garbage and churn come from inside the full-node swarm
/// (the first-joined node of zone 0, which Algorithm 1 makes a relayer).
Cell gossip_cell(const core::SwarmCaseConfig& swarm, bool smoke) {
  multizone::ThroughputConfig cfg = small_fig7(smoke, swarm.seed);
  BlockTracer tracer(cfg.n_consensus - cfg.f);
  cfg.ctx.tracer = &tracer;
  std::unique_ptr<runtime::FaultScheduler> faults;
  std::size_t hostile = 0;
  if (swarm.attack != core::AttackKind::kNone) {
    // The runner starts clients once the join churn settles; faults
    // must strike inside the measured window.
    const SimTime setup = multizone::load_start(cfg);
    cfg.ctx.on_network_ready = [&, setup](runtime::Runtime& net,
                                          const std::vector<NodeId>& consensus,
                                          const std::vector<NodeId>& full) {
      runtime::FaultPlanConfig plan;
      core::configure_attack(plan, swarm.attack, swarm.faults.events);
      plan.seed = cfg.seed;
      plan.start = setup + seconds(1);
      plan.horizon = setup + cfg.duration - seconds(1);
      faults = std::make_unique<runtime::FaultScheduler>(
          net, swarm.attack == core::AttackKind::kThrottle ? consensus : full,
          plan);
      faults->on_garbage = [&hostile, &net, consensus, full](
                               NodeId id, SimTime window) {
        // Hostile gossip toward every consensus node plus a slice of
        // full-node peers, in bursts spread over the fault window.
        std::vector<NodeId> peers = consensus;
        for (std::size_t i = 0; i < full.size() && i < 4; ++i) {
          if (full[i] != id) peers.push_back(full[i]);
        }
        constexpr std::size_t kBursts = 4;
        for (std::size_t b = 0; b < kBursts; ++b) {
          PREDIS_FIRE_AND_FORGET(net.schedule_after(
              window * static_cast<SimTime>(b) /
                  static_cast<SimTime>(kBursts),
              [&hostile, &net, id, peers, b] {
                hostile += core::hostile_gossip_burst(net, id, peers, 4, b);
              }));
        }
      };
      faults->arm();
    };
  }
  const multizone::ThroughputResult r =
      multizone::run_distribution_cluster(cfg);
  Cell c;
  c.r.ok = r.consistent;
  c.r.committed_txs = r.committed_txs;
  c.r.throughput_tps = r.throughput_tps;
  for (const TraceStageStats& st : r.stage_latency) {
    if (st.name == "end_to_end" && st.count > 0) {
      c.r.production_p99_ms = st.p99_ms;
    }
  }
  c.r.hostile_msgs = hostile;
  c.r.faults_injected = faults ? faults->faults_injected() : 0;
  c.basis = r.throughput_tps;
  return c;
}

Report swarm_campaign(const SwarmCampaign& k, bool smoke) {
  std::string rows;
  bool safe = true;
  bool alive = true;
  bool fired = true;
  const std::size_t n_rows = k.protocols.size() + (k.gossip ? 1 : 0);
  for (std::size_t i = 0; i < n_rows; ++i) {
    const bool gossip = i == k.protocols.size();
    const Protocol protocol = gossip ? Protocol::kPredisPbft : k.protocols[i];
    const auto run = [&](const Shape& shape) {
      core::SwarmCaseConfig cfg;
      cfg.protocol = protocol;
      cfg.n_consensus = 4;
      cfg.f = 1;
      cfg.offered_load_tps = 2'000.0;
      cfg.duration = smoke ? seconds(6) : seconds(10);
      cfg.seed = 42;
      cfg.faults.events = smoke ? 2 : 3;
      cfg.faults.horizon = cfg.duration - k.clean_tail;
      cfg.attack = shape.attack;
      if (shape.faults != nullptr) shape.faults(cfg.faults);
      Cell c;
      if (gossip) {
        c = gossip_cell(cfg, smoke);
      } else {
        c.r = core::run_swarm_case(cfg);
        c.basis = static_cast<double>(c.r.committed_txs);
      }
      c.shape = shape.name;
      return c;
    };
    const Cell clean = run(k.clean);
    JsonWriter j;
    j.raw("    {");
    j.kv("protocol", gossip ? "multizone_gossip" : core::to_string(protocol));
    j.raw("\"clean\": {");
    k.clean_json(j, clean);
    j.raw(std::string("},\n      \"") + k.shape_key + "s\": [\n");
    std::string details;
    for (const Shape& shape : k.shapes) {
      const Cell c = run(shape);
      safe = safe && c.r.ok;
      alive = alive && c.basis > 0.0;
      fired = fired && k.fired_ok(c);
      if (!c.r.ok) details += c.r.report;
      j.raw("        {");
      j.kv(k.shape_key, c.shape);
      j.kv("safe", c.r.ok);
      j.kv("alive", c.basis > 0.0);
      k.cell_json(j, clean, c);
      j.raw(&shape == &k.shapes.back() ? "}\n" : "},\n");
    }
    j.raw(i + 1 == n_rows ? "      ]}\n" : "      ]},\n");
    std::printf("%s%s", j.buf.c_str(), details.c_str());
    std::fflush(stdout);
    rows += j.buf;
  }
  JsonWriter j;
  j.kv("all_safe", safe);
  j.kv("all_alive", alive);
  j.raw("\"protocols\": [\n" + rows + "  ]\n");
  return {j.buf, {{"safety", safe}, {"liveness", alive}, {k.fired, fired}}};
}

// --- Trace campaign ----------------------------------------------------

/// One traced run reduced to what the report needs.
struct TracedRun {
  std::string name;
  std::string description;
  std::vector<TraceStageStats> stages;
  std::vector<TraceAnomaly> anomalies;
  /// Attributed worst samples of the tail stage, so a straggler is a
  /// (block, node, pulls) fact, not just a number.
  std::vector<std::string> outliers;
  std::size_t trace_entries = 0;  ///< Distinct traced bundles/blocks.
  std::size_t bans = 0;           ///< Ban events over all observers.
  std::size_t pulls = 0;          ///< Repair pulls over all nodes.
  double headline = 0.0;          ///< tps or coverage, see unit.
  const char* headline_unit = "tx/s";
  /// Intervals that must be present (count > 0) for the run's JSON
  /// block to be schema-complete.
  std::vector<std::string> required_stages;
};

/// Fills the fields every traced run reads from its tracer.
TracedRun traced(std::string name, std::string description,
                 std::vector<TraceStageStats> stages,
                 const BlockTracer& tracer, SimTime scan_at,
                 double headline) {
  TracedRun t;
  t.name = std::move(name);
  t.description = std::move(description);
  t.stages = std::move(stages);
  t.anomalies = tracer.anomalies(scan_at);
  t.trace_entries = tracer.entry_count();
  t.bans = tracer.total_bans();
  t.pulls = tracer.total_pulls();
  t.headline = headline;
  return t;
}

TracedRun traced_multizone(bool smoke) {
  multizone::ThroughputConfig cfg = small_fig7(smoke, 1);
  BlockTracer tracer(cfg.n_consensus - cfg.f);
  tracer.expect_reconstruction(true);
  cfg.ctx.tracer = &tracer;
  const auto r = multizone::run_distribution_cluster(cfg);
  TracedRun t = traced("predis_multizone",
                       "P-PBFT + Multi-Zone distribution (Fig. 7 shape)",
                       r.stage_latency, tracer, cfg.duration,
                       r.throughput_tps);
  for (const TraceIntervalSample& s : tracer.top_samples("distribution", 5)) {
    char line[192];
    std::snprintf(line, sizeof(line),
                  "distribution %.1f ms: block %s node %u (%.1f -> %.1f ms, "
                  "%zu pulls)",
                  s.ms, short_hex(s.key).c_str(), s.node,
                  to_milliseconds(s.from), to_milliseconds(s.to),
                  tracer.pull_count(s.key, s.node));
    t.outliers.emplace_back(line);
  }
  t.required_stages = {"tx_wait",      "bundle_quorum",    "production",
                       "stripes_sent", "pre_distribution", "distribution",
                       "end_to_end"};
  return t;
}

TracedRun traced_cluster(Protocol protocol, bool smoke) {
  core::ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.offered_load_tps = smoke ? 2'000.0 : 6'000.0;
  cfg.duration = smoke ? seconds(6) : seconds(10);
  cfg.warmup = seconds(2);
  BlockTracer tracer(cfg.n_consensus - cfg.f);
  cfg.ctx.tracer = &tracer;
  const auto r = core::run_cluster(cfg);
  const std::string name = core::to_string(protocol);
  TracedRun t = traced(name, "baseline " + name + " cluster (WAN)",
                       r.stage_latency, tracer, cfg.duration,
                       r.throughput_tps);
  t.required_stages = {"production"};
  return t;
}

TracedRun traced_gossip(bool smoke) {
  multizone::PropagationConfig cfg;
  cfg.topology = Topology::kRandom;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = smoke ? 16 : 40;
  cfg.peers = 4;
  cfg.fanout = 3;
  cfg.block_bytes = smoke ? (256 << 10) : (1 << 20);
  cfg.n_blocks = smoke ? 2 : 4;
  cfg.setup_time = seconds(2);
  BlockTracer tracer;
  tracer.expect_reconstruction(true);
  cfg.ctx.tracer = &tracer;
  const auto r = multizone::run_propagation(cfg);
  // Propagation runs until delivery settles; judge stalls well past the
  // last possible commit so a truly unreconstructed block flags.
  TracedRun t = traced("random_gossip",
                       "FEG random-gossip block propagation (Fig. 8 shape)",
                       r.stage_latency, tracer, cfg.setup_time + seconds(120),
                       r.full_coverage_fraction * 100.0);
  t.headline_unit = "% coverage";
  t.required_stages = {"distribution"};
  return t;
}

void print_traced(const TracedRun& t) {
  std::printf("\n=== %s — %s ===\n  headline: %.1f %s\n", t.name.c_str(),
              t.description.c_str(), t.headline, t.headline_unit);
  std::printf("  %-18s %8s %10s %10s %10s %10s %10s %10s\n", "stage",
              "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms",
              "max ms");
  for (const TraceStageStats& st : t.stages) {
    std::printf("  %-18s %8zu %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n",
                st.name.c_str(), st.count, st.mean_ms, st.p50_ms, st.p95_ms,
                st.p99_ms, st.p999_ms, st.max_ms);
  }
  for (const std::string& line : t.outliers) {
    std::printf("  outlier: %s\n", line.c_str());
  }
  if (t.anomalies.empty()) std::printf("  anomalies: none\n");
  for (const TraceAnomaly& a : t.anomalies) {
    std::printf("  ANOMALY: %s\n", a.describe().c_str());
  }
}

Report trace_campaign(bool smoke) {
  const std::vector<TracedRun> runs = {
      traced_multizone(smoke), traced_cluster(Protocol::kPbft, smoke),
      traced_cluster(Protocol::kHotStuff, smoke), traced_gossip(smoke)};
  bool schema_ok = true;
  bool clean = true;
  JsonWriter j;
  j.raw("\"scenarios\": [\n");
  for (const TracedRun& t : runs) {
    print_traced(t);
    clean = clean && t.anomalies.empty();
    for (const std::string& want : t.required_stages) {
      if (std::none_of(t.stages.begin(), t.stages.end(),
                       [&](const TraceStageStats& st) {
                         return st.name == want && st.count > 0;
                       })) {
        std::printf("  SCHEMA HOLE: %s missing stage %s\n", t.name.c_str(),
                    want.c_str());
        schema_ok = false;
      }
    }
    j.raw("    {");
    j.kv("name", t.name.c_str());
    j.kv("description", t.description.c_str());
    j.kv("headline", t.headline);
    j.kv("headline_unit", t.headline_unit);
    j.kv("anomalies", t.anomalies.size());
    j.kv("clean", t.anomalies.empty());
    j.kv("trace_entries", t.trace_entries);
    j.kv("bans", t.bans);
    j.kv("pulls", t.pulls);
    j.raw("\"stages\": [\n");
    for (const TraceStageStats& st : t.stages) {
      j.raw("      {");
      j.kv("name", st.name.c_str());
      j.kv("count", st.count);
      j.kv("mean_ms", st.mean_ms);
      j.kv("p50_ms", st.p50_ms);
      j.kv("p95_ms", st.p95_ms);
      j.kv("p99_ms", st.p99_ms);
      j.kv("p999_ms", st.p999_ms);
      j.kv("max_ms", st.max_ms);
      j.raw("\"top_ms\": [");
      for (const double& ms : st.top_ms) {
        char tmp[48];
        std::snprintf(tmp, sizeof(tmp), "%s%.3f",
                      &ms == &st.top_ms.front() ? "" : ", ", ms);
        j.raw(tmp);
      }
      j.raw(&st == &t.stages.back() ? "]}\n" : "]},\n");
    }
    j.raw(&t == &runs.back() ? "    ]}\n" : "    ]},\n");
  }
  j.raw("  ]\n");
  return {j.buf, {{"anomaly scan", clean}, {"schema", schema_ok}}};
}

// --- Runtime campaign --------------------------------------------------

/// Worker threads of the wall-clock backend: the report's figures are
/// for four real cores.
constexpr std::size_t kWallWorkers = 4;

/// The cluster (or the zone) scenario on `backend`; null selects the
/// runner's internal SimRuntime.
core::RunReport run_on(bool smoke, bool zone, runtime::Runtime* backend) {
  if (zone) {
    multizone::ThroughputConfig cfg;
    cfg.topology = Topology::kMultiZone;
    cfg.n_consensus = 4;
    cfg.f = 1;
    cfg.n_full = smoke ? 6 : 12;
    cfg.n_zones = 3;
    cfg.offered_load_tps = smoke ? 2'000.0 : 6'000.0;
    cfg.n_clients = 4;
    cfg.duration = smoke ? seconds(3) : seconds(8);
    cfg.warmup = smoke ? seconds(1) : seconds(3);
    cfg.seed = 17;
    cfg.ctx.backend = backend;
    return multizone::run_distribution_cluster(cfg);
  }
  core::ClusterConfig cfg;
  cfg.protocol = Protocol::kPredisPbft;
  cfg.wan = false;  // LAN shape: the wall backend has no WAN model.
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.offered_load_tps = smoke ? 3'000.0 : 10'000.0;
  cfg.n_clients = 8;
  cfg.duration = smoke ? seconds(3) : seconds(8);
  cfg.warmup = smoke ? seconds(1) : seconds(3);
  cfg.seed = 17;
  cfg.ctx.backend = backend;
  const core::ClusterResult r = core::run_cluster(cfg);
  core::RunReport report = r;
  report.consistent = r.consistent && r.ledgers_consistent;
  return report;
}

Report runtime_campaign(bool smoke) {
  bool consistent = true;
  bool sampled = true;
  bool committed = true;
  JsonWriter j;
  j.raw("\"runs\": [\n");
  // The deterministic oracle first, then the same scenarios on a wall-
  // clock worker pool: one fresh backend per run, since a Runtime
  // carries one topology for its lifetime.
  for (const bool wall : {false, true}) {
    for (const bool zone : {false, true}) {
      std::unique_ptr<runtime::ThreadRuntime> pool;
      if (wall) {
        runtime::ThreadRuntimeConfig tcfg;
        tcfg.workers = kWallWorkers;
        tcfg.latency = runtime::lan_latency();
        pool = std::make_unique<runtime::ThreadRuntime>(tcfg);
      }
      const core::RunReport r = run_on(smoke, zone, pool.get());
      consistent = consistent && r.consistent;
      sampled = sampled && r.latency_samples != 0;
      committed = committed && (zone || r.committed_txs != 0);
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "    {\"scenario\": \"%s\", \"backend\": \"%s\", \"clock\": "
          "\"%s\", \"workers\": %zu, \"throughput_tps\": %.1f, "
          "\"p50_latency_ms\": %s, \"p99_latency_ms\": %s, "
          "\"latency_samples\": %llu, \"committed_txs\": %llu, "
          "\"consistent\": %s}%s\n",
          zone ? "multizone_distribution" : "predis_cluster",
          wall ? "threads" : "sim", wall ? "wall" : "virtual",
          wall ? pool->worker_count() : std::size_t{1}, r.throughput_tps,
          json_ms(r.p50_latency_ms, r.latency_samples, 3).c_str(),
          json_ms(r.p99_latency_ms, r.latency_samples, 3).c_str(),
          static_cast<unsigned long long>(r.latency_samples),
          static_cast<unsigned long long>(r.committed_txs),
          r.consistent ? "true" : "false", wall && zone ? "" : ",");
      std::fputs(row, stdout);
      std::fflush(stdout);
      j.raw(row);
    }
  }
  j.raw("  ]\n");
  return {j.buf,
          {{"consistency", consistent},
           {"latency samples", sampled},
           {"cluster commits", committed}}};
}

struct CampaignKind {
  const char* name;
  const char* file;
  const char* schema;
  Report (*run)(bool smoke);
};

constexpr CampaignKind kCampaigns[] = {
    {"adversary", "BENCH_adversarial.json", "predis-adversarial/1",
     [](bool smoke) { return swarm_campaign(adversary(), smoke); }},
    {"recovery", "BENCH_recovery.json", "predis-recovery/1",
     [](bool smoke) { return swarm_campaign(recovery(), smoke); }},
    {"trace", "BENCH_latency.json", "predis-latency/3", trace_campaign},
    {"runtime", "BENCH_runtime.json", "predis-runtime/1", runtime_campaign},
};

int run_campaign_cmd(const Args& args) {
  const std::string name = args.get("kind", "");
  const auto kind =
      std::find_if(std::begin(kCampaigns), std::end(kCampaigns),
                   [&](const CampaignKind& k) { return name == k.name; });
  if (kind == std::end(kCampaigns)) {
    args.fail("--kind must be adversary, recovery, trace or runtime, not '" +
              name + "'");
  }
  const bool smoke = args.flag("smoke");
  const Report report = kind->run(smoke);

  JsonWriter j;
  j.raw("{\n  ");
  j.kv("schema", kind->schema);
  j.kv("tool", "predis-sim campaign");
  j.kv("smoke", smoke);
  j.raw(report.json + "}\n");
  const int write_rc = tools::write_file(
      "predis-sim campaign",
      args.get("out-dir", ".") + "/" + kind->file, j.buf);

  bool passed = true;
  std::string summary;
  for (const auto& [check, ok] : report.checks) {
    summary += std::string(summary.empty() ? "" : ", ") + check +
               (ok ? " ok" : " FAILED");
    passed = passed && ok;
  }
  std::printf("\nsummary: %s\n", summary.c_str());
  if (write_rc != 0) return write_rc;
  return args.flag("strict") && !passed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "cluster") {
    return run_cluster_cmd(tools::parse_args(
        argc, argv, 2,
        {"protocol=", "nodes=", "load=", "wan", "batch=", "bundle=",
         "duration=", "faulty=", "fault=", "seed=", "json"},
        kUsage));
  }
  if (command == "distribution") {
    return run_distribution_cmd(tools::parse_args(
        argc, argv, 2,
        {"topology=", "nodes=", "full-nodes=", "zones=", "load=",
         "duration=", "seed=", "json"},
        kUsage));
  }
  if (command == "propagation") {
    return run_propagation_cmd(tools::parse_args(
        argc, argv, 2,
        {"topology=", "nodes=", "full-nodes=", "zones=", "block-mb=",
         "blocks=", "seed=", "json"},
        kUsage));
  }
  if (command == "paper") {
    return run_paper_cmd(
        tools::parse_args(argc, argv, 2, {"figure=", "json"}, kUsage));
  }
  if (command == "campaign") {
    return run_campaign_cmd(tools::parse_args(
        argc, argv, 2, {"kind=", "smoke", "strict", "out-dir="}, kUsage));
  }
  return usage();
}
