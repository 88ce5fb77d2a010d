// recovery_report — crash-recovery & state-sync campaign. Runs three
// recovery scenarios (crash/restart, churn storm, minority partition
// with scheduled heal) against all five protocols via the swarm
// harness and compares each against a clean same-seed baseline. Every
// cell reports the recovery-subsystem counters: time-to-catch-up after
// the last heal, post-heal throughput ratio, catch-up batches, stall
// escalations, state transfers, and log bytes garbage-collected below
// stable checkpoints. Emits machine-readable BENCH_recovery.json.
//
// The point is that recovery is *bounded*: a node that crashed or sat
// on the cut side of a partition must resume committing shortly after
// the heal, and the logs it replays from must stay bounded by GC.
// --strict turns safety + liveness-after-heal into exit codes.
//
// Usage: recovery_report [--smoke] [--strict] [--out-dir DIR]
//   --smoke    reduced durations (CI-sized runs)
//   --strict   exit non-zero on a safety violation, a dead cell, or a
//              scenario that injected no faults
//   --out-dir  directory for BENCH_recovery.json (default: cwd)
#include <cstdio>
#include <string>
#include <vector>

#include "core/swarm.hpp"
#include "runtime/faults.hpp"
#include "report.hpp"

namespace {

using predis::core::Protocol;
using predis::tools::JsonWriter;

/// One (protocol, scenario) measurement, clean-relative.
struct Cell {
  std::string scenario;
  bool safe = true;   ///< All safety invariants held.
  bool alive = true;  ///< Committed something despite the faults.
  std::uint64_t committed_txs = 0;
  double throughput_ratio = 0.0;  ///< faulted / clean committed txs.
  double post_heal_ratio = 0.0;   ///< post-heal tps / clean whole-run tps.
  double catch_up_ms = 0.0;       ///< Slowest node's resume gap.
  std::uint64_t catch_up_batches = 0;
  std::size_t sync_stalls = 0;
  std::size_t state_transfers = 0;
  std::uint64_t gc_bytes = 0;
  std::uint64_t gc_items = 0;
  std::size_t duplicate_payloads = 0;
  std::size_t faults_injected = 0;
  std::string detail;  ///< Violations, if any.
};

struct ProtocolReport {
  std::string name;
  std::uint64_t clean_committed = 0;
  double clean_tps = 0.0;
  std::uint64_t clean_gc_bytes = 0;
  std::vector<Cell> cells;
};

struct Scenario {
  const char* name;
  void (*shape)(predis::runtime::FaultPlanConfig&);
};

/// Disable every default-on baseline kind so each scenario exercises
/// exactly one recovery path.
void quiesce(predis::runtime::FaultPlanConfig& plan) {
  plan.crashes = false;
  plan.pair_partitions = false;
  plan.zone_partitions = false;
  plan.jitter = false;
  plan.drops = false;
  plan.equivocation = false;
}

constexpr Scenario kScenarios[] = {
    {"crash_restart",
     [](predis::runtime::FaultPlanConfig& plan) {
       quiesce(plan);
       plan.crashes = true;
     }},
    {"churn_storm",
     [](predis::runtime::FaultPlanConfig& plan) {
       quiesce(plan);
       plan.churn_storms = true;
     }},
    {"partition_heal",
     [](predis::runtime::FaultPlanConfig& plan) {
       quiesce(plan);
       plan.partitions = true;
     }},
};

predis::core::SwarmCaseConfig swarm_base(Protocol protocol, bool smoke) {
  predis::core::SwarmCaseConfig cfg;
  cfg.protocol = protocol;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.offered_load_tps = 2'000.0;
  cfg.duration = smoke ? predis::seconds(6) : predis::seconds(10);
  cfg.seed = 42;
  cfg.faults.events = smoke ? 2 : 3;
  // Leave a generous clean tail after the last heal: time-to-catch-up
  // and post-heal throughput need room to be measured.
  cfg.faults.horizon = cfg.duration - predis::seconds(3);
  return cfg;
}

ProtocolReport run_campaign(Protocol protocol, bool smoke) {
  ProtocolReport report;
  report.name = predis::core::to_string(protocol);

  // Clean baseline: same seed and scheduling, empty fault plan.
  predis::core::SwarmCaseConfig clean_cfg = swarm_base(protocol, smoke);
  quiesce(clean_cfg.faults);
  const auto clean = predis::core::run_swarm_case(clean_cfg);
  report.clean_committed = clean.committed_txs;
  report.clean_tps = clean.throughput_tps;
  report.clean_gc_bytes = clean.gc_bytes;

  for (const Scenario& scenario : kScenarios) {
    predis::core::SwarmCaseConfig cfg = swarm_base(protocol, smoke);
    scenario.shape(cfg.faults);
    const auto r = predis::core::run_swarm_case(cfg);

    Cell cell;
    cell.scenario = scenario.name;
    cell.safe = r.ok;
    cell.committed_txs = r.committed_txs;
    cell.alive = r.committed_txs > 0;
    cell.throughput_ratio =
        clean.committed_txs == 0
            ? 0.0
            : static_cast<double>(r.committed_txs) /
                  static_cast<double>(clean.committed_txs);
    cell.post_heal_ratio =
        clean.throughput_tps <= 0.0 ? 0.0
                                    : r.post_heal_tps / clean.throughput_tps;
    cell.catch_up_ms = r.catch_up_ms;
    cell.catch_up_batches = r.catch_up_batches;
    cell.sync_stalls = r.sync_stalls;
    cell.state_transfers = r.state_transfers;
    cell.gc_bytes = r.gc_bytes;
    cell.gc_items = r.gc_items;
    cell.duplicate_payloads = r.duplicate_payloads;
    cell.faults_injected = r.faults_injected;
    if (!r.ok) cell.detail = r.report;
    report.cells.push_back(std::move(cell));
  }
  return report;
}

// --- Reporting ---------------------------------------------------------

void print_report(const ProtocolReport& r) {
  std::printf("\n=== %s ===\n", r.name.c_str());
  std::printf("  clean: %llu txs, %.1f tx/s, gc %llu B\n",
              static_cast<unsigned long long>(r.clean_committed),
              r.clean_tps,
              static_cast<unsigned long long>(r.clean_gc_bytes));
  std::printf("  %-15s %5s %6s %8s %10s %10s %8s %7s %10s %6s\n",
              "scenario", "safe", "ratio", "postheal", "catchup ms",
              "batches", "stalls", "xfers", "gc bytes", "dups");
  for (const Cell& c : r.cells) {
    std::printf(
        "  %-15s %5s %6.2f %8.2f %10.1f %10llu %8zu %7zu %10llu %6zu\n",
        c.scenario.c_str(), c.safe ? "yes" : "NO", c.throughput_ratio,
        c.post_heal_ratio, c.catch_up_ms,
        static_cast<unsigned long long>(c.catch_up_batches), c.sync_stalls,
        c.state_transfers, static_cast<unsigned long long>(c.gc_bytes),
        c.duplicate_payloads);
    if (!c.detail.empty()) std::printf("%s", c.detail.c_str());
  }
}

void report_json(JsonWriter& j, const ProtocolReport& r, bool last) {
  j.raw("    {");
  j.kv("protocol", r.name.c_str());
  j.raw("\"clean\": {");
  j.kv("committed_txs", static_cast<std::size_t>(r.clean_committed));
  j.kv("throughput_tps", r.clean_tps);
  j.kv("gc_bytes", static_cast<std::size_t>(r.clean_gc_bytes), false);
  j.raw("},\n      \"scenarios\": [\n");
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const Cell& c = r.cells[i];
    j.raw("        {");
    j.kv("scenario", c.scenario.c_str());
    j.kv("safe", c.safe);
    j.kv("alive", c.alive);
    j.kv("committed_txs", static_cast<std::size_t>(c.committed_txs));
    j.kv("throughput_ratio", c.throughput_ratio);
    j.kv("post_heal_ratio", c.post_heal_ratio);
    j.kv("catch_up_ms", c.catch_up_ms);
    j.kv("catch_up_batches", static_cast<std::size_t>(c.catch_up_batches));
    j.kv("sync_stalls", c.sync_stalls);
    j.kv("state_transfers", c.state_transfers);
    j.kv("gc_bytes", static_cast<std::size_t>(c.gc_bytes));
    j.kv("gc_items", static_cast<std::size_t>(c.gc_items));
    j.kv("duplicate_payloads", c.duplicate_payloads);
    j.kv("faults_injected", c.faults_injected, false);
    j.raw(i + 1 < r.cells.size() ? "},\n" : "}\n");
  }
  j.raw(last ? "      ]}\n" : "      ]},\n");
}

}  // namespace

int main(int argc, char** argv) {
  const predis::tools::Args args = predis::tools::parse_args(
      argc, argv, 1, {"smoke", "strict", "out-dir="},
      "usage: recovery_report [--smoke] [--strict] [--out-dir DIR]\n");
  const bool smoke = args.flag("smoke");
  const bool strict = args.flag("strict");
  const std::string out_dir = args.get("out-dir", ".");

  std::vector<ProtocolReport> reports;
  reports.push_back(run_campaign(Protocol::kPredisPbft, smoke));
  reports.push_back(run_campaign(Protocol::kPbft, smoke));
  reports.push_back(run_campaign(Protocol::kHotStuff, smoke));
  reports.push_back(run_campaign(Protocol::kPredisHotStuff, smoke));
  reports.push_back(run_campaign(Protocol::kNarwhal, smoke));

  bool all_safe = true;
  bool all_alive = true;
  bool all_fired = true;
  for (const ProtocolReport& r : reports) {
    print_report(r);
    for (const Cell& c : r.cells) {
      all_safe = all_safe && c.safe;
      all_alive = all_alive && c.alive;
      all_fired = all_fired && c.faults_injected > 0;
    }
  }

  JsonWriter j;
  j.raw("{\n  ");
  j.kv("schema", "predis-recovery/1");
  j.kv("tool", "recovery_report");
  j.kv("smoke", smoke);
  j.kv("all_safe", all_safe);
  j.kv("all_alive", all_alive);
  j.raw("\"protocols\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    report_json(j, reports[i], i + 1 == reports.size());
  }
  j.raw("  ]\n}\n");

  const int write_rc = predis::tools::write_file(
      "recovery_report", out_dir + "/BENCH_recovery.json", j.buf);

  std::printf("\nsummary: safety %s, liveness %s, fault injection %s\n",
              all_safe ? "ok" : "VIOLATED", all_alive ? "ok" : "DEAD CELL",
              all_fired ? "ok" : "SILENT");
  if (write_rc != 0) return write_rc;
  if (strict && (!all_safe || !all_alive || !all_fired)) return 1;
  return 0;
}
