// trace_report — end-to-end data-flow observability report. Runs one
// small simulation per protocol family with a shared BlockTracer wired
// through txpool -> consensus -> distribution, renders per-stage
// latency tables, scans the traces for anomalies (stalled blocks,
// re-ban storms, pull spirals) and emits machine-readable
// BENCH_latency.json.
//
// A built-in self-test feeds the anomaly detectors synthetic traces
// shaped like the pre-fix bugs (duplicate rejoin timers re-banning the
// same producer, a gossip node pulling one block forever, a committed
// block that never reconstructs) and asserts each one fires; the live
// post-fix runs must scan clean.
//
// Usage: trace_report [--smoke] [--strict] [--out-dir DIR]
//   --smoke    reduced durations (CI-sized runs)
//   --strict   exit non-zero on anomalies, self-test failure or a
//              schema hole (a scenario missing its expected stages)
//   --out-dir  directory for BENCH_latency.json (default: cwd)
#include <cstdio>
#include <string>
#include <vector>

#include "common/block_tracer.hpp"
#include "common/metrics_registry.hpp"
#include "core/experiment.hpp"
#include "multizone/experiments.hpp"
#include "report.hpp"

namespace {

using predis::BlockTracer;
using predis::MetricsRegistry;
using predis::TraceAnomaly;
using predis::TraceStageStats;
using predis::tools::JsonWriter;

/// One protocol family's run reduced to what the report needs.
struct Scenario {
  std::string name;
  std::string description;
  std::vector<TraceStageStats> stages;
  std::vector<TraceAnomaly> anomalies;
  /// Attributed worst samples of the scenario's tail stage (printed so
  /// a straggler is a (block, node, pulls) fact, not just a number).
  std::vector<std::string> outliers;
  std::string metrics_json;       ///< Folded MetricsRegistry export.
  double headline = 0.0;          ///< tps or coverage, see unit.
  const char* headline_unit = "";
  /// Interval names that must appear with count > 0 for the scenario's
  /// BENCH_latency.json block to be considered schema-complete.
  std::vector<std::string> required_stages;
};

bool has_stage(const Scenario& s, const std::string& name) {
  for (const TraceStageStats& st : s.stages) {
    if (st.name == name && st.count > 0) return true;
  }
  return false;
}

void print_scenario(const Scenario& s) {
  std::printf("\n=== %s — %s ===\n", s.name.c_str(),
              s.description.c_str());
  std::printf("  headline: %.1f %s\n", s.headline, s.headline_unit);
  std::printf("  %-18s %8s %10s %10s %10s %10s %10s %10s\n", "stage",
              "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms",
              "max ms");
  for (const TraceStageStats& st : s.stages) {
    std::printf("  %-18s %8zu %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n",
                st.name.c_str(), st.count, st.mean_ms, st.p50_ms, st.p95_ms,
                st.p99_ms, st.p999_ms, st.max_ms);
  }
  for (const std::string& line : s.outliers) {
    std::printf("  outlier: %s\n", line.c_str());
  }
  if (s.anomalies.empty()) {
    std::printf("  anomalies: none\n");
  } else {
    for (const TraceAnomaly& a : s.anomalies) {
      std::printf("  ANOMALY: %s\n", a.describe().c_str());
    }
  }
}

/// Render the k worst samples of `stage` as attribution lines.
std::vector<std::string> outlier_lines(const BlockTracer& tracer,
                                       const char* stage, std::size_t k) {
  std::vector<std::string> out;
  for (const predis::TraceIntervalSample& s : tracer.top_samples(stage, k)) {
    char tmp[192];
    std::snprintf(tmp, sizeof(tmp),
                  "%s %.1f ms: block %s node %u (%.1f -> %.1f ms, %zu pulls)",
                  stage, s.ms, predis::short_hex(s.key).c_str(), s.node,
                  predis::to_milliseconds(s.from),
                  predis::to_milliseconds(s.to),
                  tracer.pull_count(s.key, s.node));
    out.emplace_back(tmp);
  }
  return out;
}

void scenario_json(JsonWriter& j, const Scenario& s, bool last) {
  j.raw("    {");
  j.kv("name", s.name.c_str());
  j.kv("description", s.description.c_str());
  j.kv("headline", s.headline);
  j.kv("headline_unit", s.headline_unit);
  j.kv("anomalies", s.anomalies.size());
  j.kv("clean", s.anomalies.empty());
  j.raw("\"stages\": [\n");
  for (std::size_t i = 0; i < s.stages.size(); ++i) {
    const TraceStageStats& st = s.stages[i];
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
    for (std::size_t t = 0; t < st.top_ms.size(); ++t) {
      char tmp[48];
      std::snprintf(tmp, sizeof(tmp), "%s%.3f", t ? ", " : "",
                    st.top_ms[t]);
      j.raw(tmp);
    }
    j.raw("]");
    j.raw(i + 1 < s.stages.size() ? "},\n" : "}\n");
  }
  j.raw("    ],\n    \"metrics\": ");
  j.raw(s.metrics_json);
  j.raw(last ? "}\n" : "},\n");
}

std::string fold_metrics(const BlockTracer& tracer) {
  MetricsRegistry registry;
  tracer.fold_into(registry);
  return registry.to_json();
}

// --- Live scenarios ----------------------------------------------------

Scenario run_multizone(bool smoke) {
  predis::multizone::ThroughputConfig cfg;
  cfg.topology = predis::multizone::Topology::kMultiZone;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = smoke ? 6 : 12;
  cfg.n_zones = 3;
  cfg.offered_load_tps = smoke ? 3'000.0 : 8'000.0;
  cfg.duration = smoke ? predis::seconds(6) : predis::seconds(10);
  cfg.warmup = predis::seconds(2);
  BlockTracer tracer(cfg.n_consensus - cfg.f);
  tracer.expect_reconstruction(true);
  cfg.ctx.tracer = &tracer;
  const auto r = predis::multizone::run_distribution_cluster(cfg);

  Scenario s;
  s.name = "predis_multizone";
  s.description = "P-PBFT + Multi-Zone distribution (Fig. 7 shape)";
  s.stages = r.stage_latency;
  s.anomalies = tracer.anomalies(cfg.duration);
  s.outliers = outlier_lines(tracer, "distribution", 5);
  s.metrics_json = fold_metrics(tracer);
  s.headline = r.throughput_tps;
  s.headline_unit = "tx/s";
  s.required_stages = {"tx_wait", "bundle_quorum", "production",
                       "stripes_sent", "pre_distribution",
                       "distribution", "end_to_end"};
  return s;
}

Scenario run_baseline(predis::core::Protocol protocol, bool smoke) {
  predis::core::ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.offered_load_tps = smoke ? 2'000.0 : 6'000.0;
  cfg.duration = smoke ? predis::seconds(6) : predis::seconds(10);
  cfg.warmup = predis::seconds(2);
  BlockTracer tracer(cfg.n_consensus - cfg.f);
  cfg.ctx.tracer = &tracer;
  const auto r = predis::core::run_cluster(cfg);

  Scenario s;
  s.name = predis::core::to_string(protocol);
  s.description = std::string("baseline ") + s.name + " cluster (WAN)";
  s.stages = r.stage_latency;
  s.anomalies = tracer.anomalies(cfg.duration);
  s.metrics_json = fold_metrics(tracer);
  s.headline = r.throughput_tps;
  s.headline_unit = "tx/s";
  s.required_stages = {"production"};
  return s;
}

Scenario run_gossip(bool smoke) {
  predis::multizone::PropagationConfig cfg;
  cfg.topology = predis::multizone::Topology::kRandom;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = smoke ? 16 : 40;
  cfg.peers = 4;
  cfg.fanout = 3;
  cfg.block_bytes = smoke ? (256 << 10) : (1 << 20);
  cfg.n_blocks = smoke ? 2 : 4;
  cfg.setup_time = predis::seconds(2);
  BlockTracer tracer;
  tracer.expect_reconstruction(true);
  cfg.ctx.tracer = &tracer;
  const auto r = predis::multizone::run_propagation(cfg);

  Scenario s;
  s.name = "random_gossip";
  s.description = "FEG random-gossip block propagation (Fig. 8 shape)";
  s.stages = r.stage_latency;
  // Propagation runs until delivery settles; judge stalls well past
  // the last possible commit so a truly unreconstructed block flags.
  s.anomalies = tracer.anomalies(cfg.setup_time + predis::seconds(120));
  s.metrics_json = fold_metrics(tracer);
  s.headline = r.full_coverage_fraction * 100.0;
  s.headline_unit = "% coverage";
  s.required_stages = {"distribution"};
  return s;
}

// --- Anomaly-detector self-test ----------------------------------------
//
// Each case reconstructs the observable signature of one pre-fix bug
// and asserts the matching detector fires — and only that one.

bool count_kinds(const std::vector<TraceAnomaly>& as,
                 TraceAnomaly::Kind kind, std::size_t expect) {
  std::size_t n = 0;
  for (const TraceAnomaly& a : as) {
    if (a.kind == kind) ++n;
  }
  return n == expect;
}

bool selftest_reban_storm() {
  // Pre-fix PredisEngine::apply_ban armed one rejoin timer per
  // duplicate ConflictMsg; each stale timer's rejoin was followed by a
  // fresh ban, so one observer banned one producer over and over.
  BlockTracer t;
  for (int i = 0; i < 4; ++i) {
    t.record_ban(0, 3, predis::seconds(i));
    t.record_unban(0, 3, predis::seconds(i) + predis::milliseconds(500));
  }
  const auto as = t.anomalies(predis::seconds(10));
  return count_kinds(as, TraceAnomaly::Kind::kRebanStorm, 1) &&
         count_kinds(as, TraceAnomaly::Kind::kStalledBlock, 0) &&
         count_kinds(as, TraceAnomaly::Kind::kPullSpiral, 0);
}

bool selftest_pull_spiral() {
  // Pre-fix RandomGossipNode retried its pull against the same dead
  // digest sender forever: unbounded pulls of one block by one node.
  BlockTracer t;
  const predis::Hash32 block = predis::trace_key(7);
  for (int i = 0; i < 15; ++i) {
    t.record_pull(block, 9, predis::milliseconds(100 * i));
  }
  const auto as = t.anomalies(predis::seconds(10));
  return count_kinds(as, TraceAnomaly::Kind::kPullSpiral, 1) &&
         count_kinds(as, TraceAnomaly::Kind::kRebanStorm, 0);
}

bool selftest_stalled_block() {
  // The downstream symptom of the gossip stall: a committed block that
  // no full node ever reconstructs.
  BlockTracer t;
  const predis::Hash32 stuck = predis::trace_key(1);
  const predis::Hash32 healthy = predis::trace_key(2);
  t.record(predis::TraceStage::kBlockCommitted, stuck, 0);
  t.record(predis::TraceStage::kBlockCommitted, healthy,
           predis::milliseconds(10));
  t.record(predis::TraceStage::kBlockReconstructed, healthy,
           predis::milliseconds(400), 5);
  const auto as = t.anomalies(predis::seconds(10));
  return count_kinds(as, TraceAnomaly::Kind::kStalledBlock, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const predis::tools::Args args = predis::tools::parse_args(
      argc, argv, 1, {"smoke", "strict", "out-dir="},
      "usage: trace_report [--smoke] [--strict] [--out-dir DIR]\n");
  const bool smoke = args.flag("smoke");
  const bool strict = args.flag("strict");
  const std::string out_dir = args.get("out-dir", ".");

  const bool st_reban = selftest_reban_storm();
  const bool st_spiral = selftest_pull_spiral();
  const bool st_stall = selftest_stalled_block();
  std::printf("detector self-test: re-ban storm %s, pull spiral %s, "
              "stalled block %s\n",
              st_reban ? "ok" : "FAILED", st_spiral ? "ok" : "FAILED",
              st_stall ? "ok" : "FAILED");

  std::vector<Scenario> scenarios;
  scenarios.push_back(run_multizone(smoke));
  scenarios.push_back(run_baseline(predis::core::Protocol::kPbft, smoke));
  scenarios.push_back(
      run_baseline(predis::core::Protocol::kHotStuff, smoke));
  scenarios.push_back(run_gossip(smoke));

  bool schema_ok = true;
  std::size_t live_anomalies = 0;
  for (const Scenario& s : scenarios) {
    print_scenario(s);
    live_anomalies += s.anomalies.size();
    for (const std::string& want : s.required_stages) {
      if (!has_stage(s, want)) {
        std::printf("  SCHEMA HOLE: %s missing stage %s\n",
                    s.name.c_str(), want.c_str());
        schema_ok = false;
      }
    }
  }

  JsonWriter j;
  j.raw("{\n  ");
  j.kv("schema", "predis-latency/1");
  j.kv("tool", "trace_report");
  j.kv("smoke", smoke);
  j.raw("\"selftest\": {");
  j.kv("reban_storm", st_reban);
  j.kv("pull_spiral", st_spiral);
  j.kv("stalled_block", st_stall, false);
  j.raw("},\n  \"scenarios\": [\n");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    scenario_json(j, scenarios[i], i + 1 == scenarios.size());
  }
  j.raw("  ]\n}\n");

  const int write_rc = predis::tools::write_file(
      "trace_report", out_dir + "/BENCH_latency.json", j.buf);

  const bool selftests_ok = st_reban && st_spiral && st_stall;
  std::printf("\nsummary: selftest %s, %zu live anomalies, schema %s\n",
              selftests_ok ? "ok" : "FAILED", live_anomalies,
              schema_ok ? "complete" : "INCOMPLETE");
  if (write_rc != 0) return write_rc;
  if (strict && (!selftests_ok || live_anomalies != 0 || !schema_ok)) {
    return 1;
  }
  return 0;
}
