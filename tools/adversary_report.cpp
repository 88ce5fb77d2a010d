// adversary_report — graceful-degradation campaign. Runs every attack
// archetype (throttle, withhold, garbage, churn storm) against all five
// protocols — Predis (P-PBFT), PBFT, HotStuff, Narwhal via the swarm
// harness, Multi-Zone gossip via the Fig. 7 distribution runner — and
// compares each attacked run against a clean same-seed baseline:
// committed-throughput ratio, p99 consensus latency, and every safety
// invariant. Emits machine-readable BENCH_adversarial.json.
//
// The point is *graceful* degradation: a single adversary (within the
// f-budget) may slow the system down, but every cell must stay safe and
// keep committing. --strict turns both properties into exit codes.
//
// Usage: adversary_report [--smoke] [--strict] [--out-dir DIR]
//   --smoke    reduced durations (CI-sized runs)
//   --strict   exit non-zero on a safety violation, a liveness-dead
//              attacked cell, or a silent attack (garbage cell that
//              injected nothing)
//   --out-dir  directory for BENCH_adversarial.json (default: cwd)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/block_tracer.hpp"
#include "common/thread_annotations.hpp"
#include "core/swarm.hpp"
#include "multizone/experiments.hpp"
#include "runtime/faults.hpp"
#include "report.hpp"

namespace {

using predis::core::AttackKind;
using predis::core::Protocol;
using predis::tools::JsonWriter;

/// One (protocol, attack) measurement, clean-relative.
struct Cell {
  std::string attack;
  bool safe = true;          ///< All safety invariants held.
  bool alive = true;         ///< Committed something under attack.
  std::uint64_t committed_txs = 0;
  double throughput_tps = 0.0;
  double p99_ms = 0.0;       ///< Consensus-layer end-to-end p99.
  double throughput_ratio = 0.0;  ///< attacked / clean committed txs.
  std::size_t hostile_msgs = 0;
  std::size_t faults_injected = 0;
  std::string detail;        ///< Violations, if any.
};

struct ProtocolReport {
  std::string name;
  std::uint64_t clean_committed = 0;
  double clean_tps = 0.0;
  double clean_p99_ms = 0.0;
  std::vector<Cell> cells;
};

constexpr AttackKind kCampaign[] = {
    AttackKind::kThrottle, AttackKind::kWithhold, AttackKind::kGarbage,
    AttackKind::kChurnStorm};

// --- Swarm-harness protocols (consensus-layer campaign) ----------------

predis::core::SwarmCaseConfig swarm_base(Protocol protocol, bool smoke) {
  predis::core::SwarmCaseConfig cfg;
  cfg.protocol = protocol;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.offered_load_tps = 2'000.0;
  cfg.duration = smoke ? predis::seconds(6) : predis::seconds(10);
  cfg.seed = 42;
  cfg.faults.events = smoke ? 2 : 3;
  cfg.faults.horizon = cfg.duration - predis::seconds(2);
  return cfg;
}

ProtocolReport run_swarm_campaign(Protocol protocol, bool smoke) {
  ProtocolReport report;
  report.name = predis::core::to_string(protocol);

  // Clean baseline: same seed and scheduling, empty fault plan.
  predis::core::SwarmCaseConfig clean_cfg = swarm_base(protocol, smoke);
  predis::core::configure_attack(clean_cfg.faults, AttackKind::kNone, 0);
  const auto clean = predis::core::run_swarm_case(clean_cfg);
  report.clean_committed = clean.committed_txs;
  report.clean_tps = clean.throughput_tps;
  report.clean_p99_ms = clean.production_p99_ms;

  for (AttackKind attack : kCampaign) {
    predis::core::SwarmCaseConfig cfg = swarm_base(protocol, smoke);
    cfg.attack = attack;
    const auto r = predis::core::run_swarm_case(cfg);

    Cell cell;
    cell.attack = predis::core::to_string(attack);
    cell.safe = r.ok;
    cell.committed_txs = r.committed_txs;
    cell.alive = r.committed_txs > 0;
    cell.throughput_tps = r.throughput_tps;
    cell.p99_ms = r.production_p99_ms;
    cell.throughput_ratio =
        clean.committed_txs == 0
            ? 0.0
            : static_cast<double>(r.committed_txs) /
                  static_cast<double>(clean.committed_txs);
    cell.hostile_msgs = r.hostile_msgs;
    cell.faults_injected = r.faults_injected;
    if (!r.ok) cell.detail = r.report;
    report.cells.push_back(std::move(cell));
  }
  return report;
}

// --- Multi-Zone gossip (distribution-layer campaign) -------------------

/// Fault-plan shaping for the gossip layer mirrors configure_attack but
/// targets live in the distribution layer: throttle hits a consensus
/// stripe source, withhold/garbage/churn hit full nodes (the first-
/// joined node of zone 0, which Algorithm 1 makes a relayer).
struct GossipCampaignState {
  std::unique_ptr<predis::runtime::FaultScheduler> faults;
  std::size_t hostile_msgs = 0;
};

predis::multizone::ThroughputConfig gossip_base(bool smoke) {
  predis::multizone::ThroughputConfig cfg;
  cfg.topology = predis::multizone::Topology::kMultiZone;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = smoke ? 6 : 12;
  cfg.n_zones = 3;
  cfg.offered_load_tps = smoke ? 3'000.0 : 8'000.0;
  cfg.duration = smoke ? predis::seconds(6) : predis::seconds(10);
  cfg.warmup = predis::seconds(2);
  cfg.seed = 42;
  return cfg;
}

ProtocolReport run_gossip_campaign(bool smoke) {
  ProtocolReport report;
  report.name = "multizone_gossip";

  auto run_one = [&](AttackKind attack, GossipCampaignState& state) {
    predis::multizone::ThroughputConfig cfg = gossip_base(smoke);
    predis::BlockTracer tracer(cfg.n_consensus - cfg.f);
    cfg.ctx.tracer = &tracer;

    if (attack != AttackKind::kNone) {
      // The runner starts clients once the join churn settles; faults
      // must strike inside the measured window.
      const predis::SimTime setup = predis::multizone::load_start(cfg);
      cfg.ctx.on_network_ready = [&, setup](
                                 predis::runtime::Runtime& net,
                                 const std::vector<predis::NodeId>& consensus,
                                 const std::vector<predis::NodeId>& full) {
        predis::runtime::FaultPlanConfig plan;
        predis::core::configure_attack(plan, attack, smoke ? 2 : 3);
        plan.seed = cfg.seed;
        plan.start = setup + predis::seconds(1);
        plan.horizon = setup + cfg.duration - predis::seconds(1);
        // Throttling a stripe source degrades the whole fan-out tree;
        // the other attacks come from inside the full-node swarm.
        const bool consensus_side = attack == AttackKind::kThrottle;
        const auto& targets = consensus_side ? consensus : full;
        state.faults = std::make_unique<predis::runtime::FaultScheduler>(
            net, targets, plan);
        state.faults->on_garbage = [&state, &net, consensus, full](
                                       predis::NodeId id,
                                       predis::SimTime window) {
          // Hostile gossip toward every consensus node plus a slice of
          // full-node peers, in bursts spread over the fault window.
          std::vector<predis::NodeId> peers = consensus;
          for (std::size_t i = 0; i < full.size() && i < 4; ++i) {
            if (full[i] != id) peers.push_back(full[i]);
          }
          constexpr std::size_t kBursts = 4;
          for (std::size_t b = 0; b < kBursts; ++b) {
            PREDIS_FIRE_AND_FORGET(net.schedule_after(
                window * static_cast<predis::SimTime>(b) /
                    static_cast<predis::SimTime>(kBursts),
                [&state, &net, id, peers, b] {
                  state.hostile_msgs += predis::core::hostile_gossip_burst(
                      net, id, peers, 4, b);
                }));
          }
        };
        state.faults->arm();
      };
    }

    const auto r = predis::multizone::run_distribution_cluster(cfg);

    Cell cell;
    cell.attack = predis::core::to_string(attack);
    cell.safe = r.consistent;
    cell.throughput_tps = r.throughput_tps;
    cell.committed_txs = r.committed_txs;
    cell.alive = r.throughput_tps > 0.0;
    for (const predis::TraceStageStats& st : r.stage_latency) {
      if (st.name == "end_to_end" && st.count > 0) cell.p99_ms = st.p99_ms;
    }
    cell.hostile_msgs = state.hostile_msgs;
    cell.faults_injected =
        state.faults ? state.faults->faults_injected() : 0;
    return cell;
  };

  GossipCampaignState clean_state;
  const Cell clean = run_one(AttackKind::kNone, clean_state);
  report.clean_committed = clean.committed_txs;
  report.clean_tps = clean.throughput_tps;
  report.clean_p99_ms = clean.p99_ms;

  for (AttackKind attack : kCampaign) {
    GossipCampaignState state;
    Cell cell = run_one(attack, state);
    cell.throughput_ratio =
        clean.throughput_tps <= 0.0
            ? 0.0
            : cell.throughput_tps / clean.throughput_tps;
    report.cells.push_back(std::move(cell));
  }
  return report;
}

// --- Reporting ---------------------------------------------------------

void print_report(const ProtocolReport& r) {
  std::printf("\n=== %s ===\n", r.name.c_str());
  std::printf("  clean: %llu txs, %.1f tx/s, p99 %.1f ms\n",
              static_cast<unsigned long long>(r.clean_committed),
              r.clean_tps, r.clean_p99_ms);
  std::printf("  %-12s %6s %6s %12s %10s %10s %8s %8s\n", "attack", "safe",
              "alive", "committed", "ratio", "p99 ms", "hostile",
              "faults");
  for (const Cell& c : r.cells) {
    std::printf("  %-12s %6s %6s %12llu %10.2f %10.1f %8zu %8zu\n",
                c.attack.c_str(), c.safe ? "yes" : "NO",
                c.alive ? "yes" : "NO",
                static_cast<unsigned long long>(c.committed_txs),
                c.throughput_ratio, c.p99_ms, c.hostile_msgs,
                c.faults_injected);
    if (!c.detail.empty()) std::printf("%s", c.detail.c_str());
  }
}

void report_json(JsonWriter& j, const ProtocolReport& r, bool last) {
  j.raw("    {");
  j.kv("protocol", r.name.c_str());
  j.raw("\"clean\": {");
  j.kv("committed_txs", static_cast<std::size_t>(r.clean_committed));
  j.kv("throughput_tps", r.clean_tps);
  j.kv("p99_ms", r.clean_p99_ms, false);
  j.raw("},\n      \"attacks\": [\n");
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const Cell& c = r.cells[i];
    j.raw("        {");
    j.kv("attack", c.attack.c_str());
    j.kv("safe", c.safe);
    j.kv("alive", c.alive);
    j.kv("committed_txs", static_cast<std::size_t>(c.committed_txs));
    j.kv("throughput_tps", c.throughput_tps);
    j.kv("throughput_ratio", c.throughput_ratio);
    j.kv("p99_ms", c.p99_ms);
    j.kv("hostile_msgs", c.hostile_msgs);
    j.kv("faults_injected", c.faults_injected, false);
    j.raw(i + 1 < r.cells.size() ? "},\n" : "}\n");
  }
  j.raw(last ? "      ]}\n" : "      ]},\n");
}

}  // namespace

int main(int argc, char** argv) {
  const predis::tools::Args args = predis::tools::parse_args(
      argc, argv, 1, {"smoke", "strict", "out-dir="},
      "usage: adversary_report [--smoke] [--strict] [--out-dir DIR]\n");
  const bool smoke = args.flag("smoke");
  const bool strict = args.flag("strict");
  const std::string out_dir = args.get("out-dir", ".");

  std::vector<ProtocolReport> reports;
  reports.push_back(run_swarm_campaign(Protocol::kPredisPbft, smoke));
  reports.push_back(run_swarm_campaign(Protocol::kPbft, smoke));
  reports.push_back(run_swarm_campaign(Protocol::kHotStuff, smoke));
  reports.push_back(run_swarm_campaign(Protocol::kNarwhal, smoke));
  reports.push_back(run_gossip_campaign(smoke));

  bool all_safe = true;
  bool all_alive = true;
  bool garbage_fired = true;
  for (const ProtocolReport& r : reports) {
    print_report(r);
    for (const Cell& c : r.cells) {
      all_safe = all_safe && c.safe;
      all_alive = all_alive && c.alive;
      if (c.attack == std::string("garbage")) {
        garbage_fired = garbage_fired && c.hostile_msgs > 0;
      }
    }
  }

  JsonWriter j;
  j.raw("{\n  ");
  j.kv("schema", "predis-adversarial/1");
  j.kv("tool", "adversary_report");
  j.kv("smoke", smoke);
  j.kv("all_safe", all_safe);
  j.kv("all_alive", all_alive);
  j.raw("\"protocols\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    report_json(j, reports[i], i + 1 == reports.size());
  }
  j.raw("  ]\n}\n");

  const int write_rc = predis::tools::write_file(
      "adversary_report", out_dir + "/BENCH_adversarial.json", j.buf);

  std::printf("\nsummary: safety %s, liveness %s, garbage injection %s\n",
              all_safe ? "ok" : "VIOLATED",
              all_alive ? "ok" : "DEAD CELL",
              garbage_fired ? "ok" : "SILENT");
  if (write_rc != 0) return write_rc;
  if (strict && (!all_safe || !all_alive || !garbage_fired)) return 1;
  return 0;
}
