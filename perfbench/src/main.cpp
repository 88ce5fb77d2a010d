// perfbench — one invocation = one benchmark run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE]
//   perfbench --workload NAME --setup-only
//   perfbench --sweep [--seconds S]      (ppbft-wall offered-load sweep)
//
// A run first times the runner's set-up alone a few times (median =
// setup_s), then repeats the untraced workload on sub-seeds of --seed:
// a sim workload as often as its nominal repetition cost fits in
// --seconds, the wall workload in 10 repetitions sharing --seconds of
// load. Each metric is the median over repetitions, except latency
// percentiles, which pool every repetition's samples. With --trace 1 the
// same repetitions run again traced, and the per-layer metrics come from
// their spans. --setup-only stops after the set-up probes and prints
// {"setup_s": median}: set-up speed differs between processes (up to
// ~1.5x on the same host), so run.py takes the median over several.
//
// The last line of stdout is one JSON record: host metadata, the
// correctness gate, every end-to-end metric ("e2e") and, traced, every
// per-layer metric ("layers"), each with its unit; null where a metric
// does not apply or had no samples. Exit status 1 when the gate fails.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/sha256_kernels.hpp"
#include "erasure/gf256.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RepOptions;
using perfbench::RepResult;
using perfbench::WorkloadInfo;
using Value = std::optional<double>;

constexpr int kSetupProbes = 21;

struct Metric {
  std::string name;
  std::string unit;
  Value value;
};

std::string num(Value v) {
  if (!v || !std::isfinite(*v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", *v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

/// Start a repetition from a comparable memory state: hand freed heap
/// back to the kernel and reset the peak-RSS mark (Linux clear_refs
/// "5"; where that is refused the mark covers the whole process).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// A memory figure of /proc/self/status ("VmHWM:" = peak resident
/// since the last reset, "VmRSS:" = resident now), in MB.
Value status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;  // kB
    }
  }
  return std::nullopt;
}

/// Run `n` repetitions, repetition i on sub-seed seed * 100 + i: each
/// repetition is another input of the same workload, and the reported
/// value is the median over them.
std::vector<RepResult> repeat(const WorkloadInfo& w, RepOptions opt,
                              std::size_t n) {
  std::vector<RepResult> reps;
  const std::uint64_t seed = opt.seed;
  for (std::size_t i = 0; i < n; ++i) {
    opt.seed = seed * 100 + i;
    reset_peak_rss();
    const Value rss_before = status_mb("VmRSS:");
    reps.push_back(perfbench::run_rep(w, opt));
    RepResult& r = reps.back();
    r.peak_rss_mb = status_mb("VmHWM:");
    std::fprintf(stderr,
                 "perfbench: %s %s rep %zu: cpu_s %.4f setup_s %.6f "
                 "rss_before_mb %.1f peak_rss_mb %.1f commit_tps %.1f "
                 "p50_ms %s p99_ms %s "
                 "submitted %llu replied %llu\n",
                 w.name, opt.traced ? "traced" : "untraced", reps.size(),
                 r.cpu_s, r.setup_s, rss_before.value_or(0.0),
                 r.peak_rss_mb.value_or(0.0), r.commit_tps,
                 num(r.commit.p50).c_str(), num(r.commit.p99).c_str(),
                 static_cast<unsigned long long>(r.submitted),
                 static_cast<unsigned long long>(r.replied));
  }
  return reps;
}

/// Percentile of one latency over every repetition's samples together.
Value pooled_of(const std::vector<RepResult>& reps,
                perfbench::LatencySummary RepResult::*field, double p) {
  std::vector<const perfbench::LatencySummary*> parts;
  for (const RepResult& r : reps) parts.push_back(&(r.*field));
  return perfbench::pooled(parts, p);
}

Value median_of(const std::vector<RepResult>& reps,
                Value (*get)(const RepResult&)) {
  std::vector<double> v;
  for (const RepResult& r : reps) {
    if (const Value x = get(r)) v.push_back(*x);
  }
  return perfbench::median(std::move(v));
}

int sweep(double seconds) {
  const WorkloadInfo w = *perfbench::find_workload("ppbft-wall");
  std::printf("ppbft-wall offered-load sweep (%zu workers, %.0f s per rate)\n",
              w.workers, seconds);
  std::printf("%12s %12s %10s %10s %10s\n", "offered", "commit_tps",
              "p50_ms", "p99_ms", "shortfall");
  double best_tps = 0.0;
  double knee_offered = 0.0;
  double sustained = 0.0;
  for (double rate = 75'000.0; rate <= 2'400'000.0; rate *= 2.0) {
    RepOptions opt;
    opt.seconds = seconds;
    opt.offered_tps = rate;
    const RepResult r = perfbench::run_rep(w, opt);
    const Value shortfall = perfbench::shortfall_frac(
        static_cast<double>(r.submitted), rate, r.load_window_s);
    std::printf("%12.0f %12.0f %10s %10s %10s\n", rate, r.commit_tps,
                num(r.commit.p50).c_str(), num(r.commit.p99).c_str(),
                num(shortfall).c_str());
    std::fflush(stdout);
    if (r.commit_tps >= 0.9 * rate && shortfall && *shortfall <= 0.05) {
      sustained = rate;
    }
    const bool grew = r.commit_tps > best_tps * 1.05;
    if (r.commit_tps > best_tps) {
      best_tps = r.commit_tps;
      knee_offered = rate;
    }
    if (!grew) break;  // Plateau: doubling the load no longer helps.
  }
  std::printf("knee: %.0f tx/s committed at %.0f tx/s offered; highest "
              "offered rate sustained (>= 90%% committed, <= 5%% "
              "generator shortfall): %.0f tx/s\n",
              best_tps, knee_offered, sustained);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n"
               "       perfbench --workload NAME --setup-only\n"
               "       perfbench --sweep [--seconds S]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool do_sweep = false;
  bool setup_only = false;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (a == "--sweep") {
      do_sweep = true;
    } else if (a == "--setup-only") {
      setup_only = true;
    } else {
      usage();
      return 2;
    }
  }
  if (do_sweep) return sweep(seconds > 0 ? seconds : 4.0);
  const auto found = perfbench::find_workload(workload);
  if (!found || seconds <= 0) {
    usage();
    return 2;
  }
  const WorkloadInfo& w = *found;

  RepOptions opt;
  opt.seed = seed;
  opt.seconds = seconds;

  // --- Set-up probes, then the measured repetitions ----------------------
  std::vector<double> setups;
  {
    RepOptions probe = opt;
    probe.setup_only = true;
    for (int i = 0; i < kSetupProbes; ++i) {
      setups.push_back(perfbench::run_rep(w, probe).setup_s);
    }
    const perfbench::Sorted s(setups);
    std::fprintf(stderr, "perfbench: %s set-up probes: min %s median %s max %s s\n",
                 w.name, num(s.at(0)).c_str(), num(s.at(50)).c_str(),
                 num(s.at(100)).c_str());
    if (setup_only) {
      std::printf("{\"setup_s\": %s}\n", num(s.at(50)).c_str());
      return 0;
    }
  }
  // The wall workload splits --seconds of load over wall_reps
  // repetitions; a sim workload repeats as many times as its nominal
  // repetition cost fits in --seconds.
  const std::size_t n_reps =
      w.wall ? w.wall_reps
             : static_cast<std::size_t>(
                   std::max(1.0, std::floor(seconds / w.rep_seconds)));
  if (w.wall) opt.seconds = seconds / static_cast<double>(n_reps);
  const std::vector<RepResult> plain = repeat(w, opt, n_reps);
  std::vector<RepResult> with_trace;
  if (traced) {
    RepOptions t = opt;
    t.traced = true;
    with_trace = repeat(w, t, n_reps);
  }

  // --- Correctness gate -----------------------------------------------------
  std::vector<std::string> failures;
  std::size_t failed_reps = 0;
  const auto check_rep = [&](const RepResult& r, const RepResult* untraced,
                             const std::string& kind) {
    const std::size_t before = failures.size();
    const auto fail = [&](const char* why) { failures.push_back(kind + ": " + why); };
    if (!r.consistent) fail("runner reports inconsistent ledgers");
    if (!(r.commit_tps > 0.0)) fail("commit_tps is 0");
    if (!r.commit.p50) fail("no commit latency samples");
    if (!r.commit.p99) fail("too few samples for commit_p99_ms");
    if (w.multizone && r.reconstruct.count == 0) {
      fail("no reconstruction samples");
    }
    if (!w.wall && !w.multizone && r.runner_p50_ms && r.commit.p50 &&
        std::fabs(*r.commit.p50 - *r.runner_p50_ms) >
            1e-9 * std::max(1.0, *r.runner_p50_ms)) {
      fail("client probe p50 disagrees with the runner's");
    }
    // Same sub-seed, traced or not: the model-time results must match.
    if (untraced != nullptr && !w.wall &&
        r.model_digest != untraced->model_digest) {
      fail("model-time results differ from the untraced run's");
    }
    if (failures.size() > before) ++failed_reps;
  };
  for (std::size_t i = 0; i < plain.size(); ++i) {
    check_rep(plain[i], nullptr, "untraced rep " + std::to_string(i + 1));
  }
  for (std::size_t i = 0; i < with_trace.size(); ++i) {
    check_rep(with_trace[i], &plain[i], "traced rep " + std::to_string(i + 1));
  }

  // --- End-to-end metrics (untraced) --------------------------------------
  std::vector<Metric> e2e;
  e2e.push_back({"commit_tps", "tx/s",
                 median_of(plain, [](const RepResult& r) -> Value {
                   return r.commit_tps;
                 })});
  e2e.push_back({"commit_p50_ms", "ms", pooled_of(plain, &RepResult::commit, 50)});
  e2e.push_back({"commit_p99_ms", "ms", pooled_of(plain, &RepResult::commit, 99)});
  e2e.push_back({"tx_failed_frac", "frac",
                 median_of(plain, [](const RepResult& r) -> Value {
                   return perfbench::failed_frac(r.submitted, r.replied);
                 })});
  Value rec50, rec99, miss, shortfall;
  if (w.multizone) {
    rec50 = pooled_of(plain, &RepResult::reconstruct, 50);
    rec99 = pooled_of(plain, &RepResult::reconstruct, 99);
    miss = median_of(plain, [](const RepResult& r) -> Value {
      if (!r.coverage) return std::nullopt;
      return 1.0 - *r.coverage;
    });
  }
  e2e.push_back({"reconstruct_p50_ms", "ms", rec50});
  e2e.push_back({"reconstruct_p99_ms", "ms", rec99});
  e2e.push_back({"reconstruct_miss_frac", "frac", miss});
  if (w.wall) {
    shortfall = median_of(plain, [](const RepResult& r) -> Value {
      return perfbench::shortfall_frac(
          static_cast<double>(r.submitted), r.offered_tps,
          r.load_window_s);
    });
  }
  e2e.push_back({"gen_shortfall_frac", "frac", shortfall});
  const Value cpu = median_of(
      plain, [](const RepResult& r) -> Value { return r.cpu_s; });
  e2e.push_back({"cpu_s", "s", cpu});
  std::vector<double> all_setups = setups;
  for (const RepResult& r : plain) all_setups.push_back(r.setup_s);
  e2e.push_back({"setup_s", "s", perfbench::median(all_setups)});
  // Freed heap is never fully handed back, so each repetition starts a
  // little above the last (about 4 -> 22 MB over ten wall repetitions);
  // the first repetition is the one a fresh process would show.
  e2e.push_back({"peak_rss_mb", "MB", plain.front().peak_rss_mb});

  // --- Per-layer metrics (traced) ------------------------------------------
  std::vector<Metric> layers;
  if (traced) {
    std::map<std::string, std::vector<double>> per_rep;
    std::map<std::string, bool> seen;
    for (const RepResult& r : with_trace) {
      for (const auto& [k, v] : perfbench::layer_metrics(w, r)) {
        seen[k] = true;
        if (v) per_rep[k].push_back(*v);
      }
    }
    std::map<std::string, Value> merged;
    for (const auto& [k, unused] : seen) {
      merged[k] = perfbench::median(per_rep[k]);
    }
    for (const auto& [k, v] : perfbench::kernel_probes()) merged[k] = v;
    const Value traced_cpu = median_of(
        with_trace, [](const RepResult& r) -> Value { return r.cpu_s; });
    if (traced_cpu && cpu && *cpu > 0.0) {
      merged["trace_overhead_frac"] = *traced_cpu / *cpu - 1.0;
    }
    static const std::pair<const char*, const char*> kUnits[] = {
        {"runtime.dispatches", "count"},
        {"runtime.mailbox_wait_p50_us", "us"},
        {"runtime.mailbox_wait_p99_us", "us"},
        {"runtime.timer_lag_p99_us", "us"},
        {"runtime.busy_frac", "frac"},
        {"runtime.send_ns_mean", "ns"},
        {"sim.events", "count"},
        {"sim.events_per_cpu_s", "1/s"},
        {"sim.model_s_per_cpu_s", "s/s"},
        {"sim.loop_self_frac", "frac"},
        {"sim.uplink_backlog_max_ms", "ms"},
        {"txpool.request_ns_per_tx", "ns/tx"},
        {"txpool.reply_ns_per_tx", "ns/tx"},
        {"txpool.gen_lag_p99_ms", "ms"},
        {"predis.bundle_msgs", "count"},
        {"predis.bundle_bytes_per_tx", "B/tx"},
        {"predis.handler_ns_per_tx", "ns/tx"},
        {"predis.fetch_per_bundle", "ratio"},
        {"consensus.timer_ns_per_tx", "ns/tx"},
        {"pbft.msgs_per_block", "msgs/block"},
        {"pbft.handler_ns_per_block", "ns/block"},
        {"pbft.preprepare_bytes_per_block", "B/block"},
        {"pbft.view_changes", "count"},
        {"multizone.stripe_msgs_per_block", "msgs/block"},
        {"multizone.full_node_ns_per_tx", "ns/tx"},
        {"multizone.pull_msgs", "count"},
        {"multizone.pull_miss_ratio", "ratio"},
        {"multizone.downlink_bytes_per_tx", "B/tx"},
        {"multizone.control_msgs", "count"},
        {"erasure.encode_ns", "ns"},
        {"erasure.decode_ns", "ns"},
        {"erasure.verify_ns", "ns"},
        {"common.tx_id_ns", "ns"},
        {"common.merkle_root_ns", "ns"},
        {"common.sig_verify_ns", "ns"},
        {"core.collect_s", "s"},
        {"trace_overhead_frac", "frac"},
    };
    for (const auto& [name, unit] : kUnits) {
      const auto it = merged.find(name);
      layers.push_back(
          {name, unit, it == merged.end() ? std::nullopt : it->second});
    }
    if (!spans_path.empty() && with_trace.back().trace &&
        !perfbench::write_spans_csv(*with_trace.back().trace, spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    }
  }

  // --- Record ----------------------------------------------------------------
  // attempted / failed count repetitions: a repetition fails when any
  // gate check on it fails. Transaction-level failure is a metric
  // (tx_failed_frac), not a benchmark failure: the overload workload
  // drops most transactions by design.
  const RepResult& first = plain.front();
  std::uint64_t submitted = 0;
  std::uint64_t replied = 0;
  for (const RepResult& r : plain) {
    submitted += r.submitted;
    replied += r.replied;
  }
  std::string failures_json = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    failures_json += (i ? ", \"" : "\"") + failures[i] + "\"";
  }
  failures_json += "]";
  namespace k = predis::sha256_kernels;
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"meta\": {\"nproc\": %u, \"workers\": %zu, \"backend\": \"%s\", "
      "\"sha256_kernel\": \"%s\", \"gf256_simd\": %s}, "
      "\"reps\": {\"setup_probes\": %d, \"untraced\": %zu, \"traced\": %zu}, "
      "\"gate\": {\"ok\": %s, \"failures\": %s}, "
      "\"attempted\": %zu, \"failed\": %zu, "
      "\"detail\": {\"first_rep_commit_samples\": %zu, "
      "\"first_rep_commit_tail_pct\": %s, \"first_rep_commit_tail_ms\": %s, "
      "\"first_rep_reconstruct_samples\": %zu, \"first_rep_blocks\": %llu, "
      "\"submitted_txs\": %llu, \"committed_txs\": %llu}, "
      "\"e2e\": %s, \"layers\": %s}\n",
      w.name, static_cast<unsigned long long>(seed), traced ? 1 : 0,
      std::thread::hardware_concurrency(), w.workers,
      w.wall ? "ThreadRuntime(wall)" : "SimRuntime",
      k::name(k::active()),
      predis::erasure::GF256::simd_enabled() ? "true" : "false",
      kSetupProbes, plain.size(), with_trace.size(),
      failures.empty() ? "true" : "false", failures_json.c_str(),
      plain.size() + with_trace.size(), failed_reps, first.commit.count,
      num(first.commit.tail_pct).c_str(), num(first.commit.tail).c_str(),
      first.reconstruct.count,
      static_cast<unsigned long long>(first.blocks),
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(replied), metrics_json(e2e).c_str(),
      metrics_json(layers).c_str());
  return failures.empty() ? 0 : 1;
}
