// swarm — deterministic fault-schedule swarm runner.
//
// Executes N seeded cluster simulations under composed fault plans
// (crashes, partitions, jitter, drops, equivocation), each with the
// full safety-invariant registry armed, in parallel worker threads.
// On a violation it prints the invariant report, the fault plan and a
// one-line repro command, and exits non-zero.
//
//   swarm --seeds 200 --protocol predis
//   swarm --seeds 50 --protocol narwhal --nodes 7 --threads 8
//   swarm --seeds 1 --seed-base 1337 --protocol p-hs --verbose
//
// Every run records a trace digest — a running SHA-256 over the full
// message-delivery sequence — so `--verify-determinism` can prove that
// re-running a seed replays the run byte-for-byte.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/sha256.hpp"
#include "core/swarm.hpp"
#include "report.hpp"

namespace {

using namespace predis;

constexpr const char* kUsage =
    "swarm — deterministic fault-schedule swarm runner\n"
    "\n"
    "  swarm [--seeds N] [--seed-base S] [--threads N]\n"
    "        [--protocol pbft|hotstuff|p-pbft|predis|p-hs|narwhal|stratus]\n"
    "        [--nodes N] [--load TPS] [--duration S] [--events N]\n"
    "        [--lan] [--no-equivocation] [--verify-determinism]\n"
    "        [--verbose]\n"
    "\n"
    "Runs one simulation per seed in [seed-base, seed-base + seeds) with\n"
    "a seed-derived fault schedule and all safety invariants armed.\n"
    "Exit 0 = every seed clean; exit 1 = first violating seed reported\n"
    "with a repro command.\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args = tools::parse_args(
      argc, argv, 1,
      {"seeds=", "seed-base=", "threads=", "protocol=", "nodes=", "load=",
       "duration=", "events=", "lan", "no-equivocation",
       "verify-determinism", "verbose"},
      kUsage);
  // Banned/equivocating producers spam warnings by design; a swarm run
  // cares about invariants, not per-run engine chatter.
  if (!args.flag("verbose")) set_log_level(LogLevel::kError);

  const auto protocol = core::parse_protocol(args.get("protocol", "p-pbft"));
  if (!protocol) {
    std::fprintf(stderr, "unknown --protocol\n");
    return usage();
  }

  core::SwarmCaseConfig base;
  base.protocol = *protocol;
  base.n_consensus = args.whole("nodes", 4, 4, 1000);  // f >= 1
  base.f = (base.n_consensus - 1) / 3;
  base.wan = !args.flag("lan");
  base.offered_load_tps = args.num("load", 2000);
  base.duration =
      seconds(static_cast<std::int64_t>(args.num("duration", 10)));
  base.faults.events = args.whole("events", 6, 0, 1'000'000);
  // Leave a fault-free tail longer than the ban grace, so the ban-list
  // invariant has a checked window after the network quiesces.
  base.faults.horizon = base.duration / 3;
  base.faults.equivocation = !args.flag("no-equivocation");
  base.verbose = args.flag("verbose");

  // A typo'd --seeds 0 would otherwise "pass" vacuously in CI.
  const std::uint64_t n_seeds = args.count("seeds", 20);
  const std::uint64_t seed_base = args.seed("seed-base", 1);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t n_threads =
      args.whole("threads", hw == 0 ? 4 : std::min(hw, 256u), 1, 256);

  std::printf("swarm: %llu seeds from %llu, protocol %s, %zu nodes, "
              "%zu fault events/run, %zu threads\n",
              static_cast<unsigned long long>(n_seeds),
              static_cast<unsigned long long>(seed_base),
              core::to_string(base.protocol), base.n_consensus,
              base.faults.events, n_threads);

  std::atomic<std::uint64_t> next{0};
  std::mutex out_mutex;
  std::vector<core::SwarmCaseResult> failures;
  std::uint64_t total_commits = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t total_reconstructions = 0;

  auto worker = [&] {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1);
      if (i >= n_seeds) return;
      core::SwarmCaseConfig cfg = base;
      cfg.seed = seed_base + i;

      core::SwarmCaseResult r = core::run_swarm_case(cfg);
      if (args.flag("verify-determinism")) {
        const core::SwarmCaseResult again = core::run_swarm_case(cfg);
        if (again.trace_digest != r.trace_digest) {
          r.ok = false;
          r.violations.push_back(core::Violation{
              "determinism",
              "same seed produced different trace digests (" +
                  to_hex(r.trace_digest) + " vs " +
                  to_hex(again.trace_digest) + ")",
              0, 0});
          r.report = "1 violation(s): [determinism]";
        }
        if (again.metrics_digest != r.metrics_digest) {
          r.ok = false;
          r.violations.push_back(core::Violation{
              "determinism",
              "same seed produced different metrics digests (" +
                  to_hex(r.metrics_digest) + " vs " +
                  to_hex(again.metrics_digest) + ")",
              0, 0});
          r.report = "1 violation(s): [determinism]";
        }
      }

      std::lock_guard<std::mutex> lock(out_mutex);
      total_commits += r.commits_checked;
      total_faults += r.faults_injected;
      total_reconstructions += r.reconstructions_checked;
      if (cfg.verbose || !r.ok) {
        std::printf("seed %llu: %s — %llu commits checked, %zu faults, "
                    "%.0f tx/s, trace %s/%llu\n",
                    static_cast<unsigned long long>(cfg.seed),
                    r.ok ? "ok" : "VIOLATION",
                    static_cast<unsigned long long>(r.commits_checked),
                    r.faults_injected, r.throughput_tps,
                    short_hex(r.trace_digest).c_str(),
                    static_cast<unsigned long long>(r.trace_events));
        if (cfg.verbose || !r.ok) {
          std::fputs(r.fault_plan.c_str(), stdout);
        }
      }
      if (!r.ok) failures.push_back(std::move(r));
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n_threads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  if (!failures.empty()) {
    const core::SwarmCaseResult* first = &failures[0];
    for (const auto& f : failures) {
      if (f.seed < first->seed) first = &f;
    }
    std::printf("\n%zu/%llu seeds violated invariants. First: seed %llu\n",
                failures.size(), static_cast<unsigned long long>(n_seeds),
                static_cast<unsigned long long>(first->seed));
    std::fputs(first->report.c_str(), stdout);
    std::printf("\nrepro: swarm --protocol %s --nodes %zu --seed-base %llu "
                "--seeds 1 --verbose\n",
                core::protocol_flag(base.protocol), base.n_consensus,
                static_cast<unsigned long long>(first->seed));
    return 1;
  }

  std::printf("all %llu seeds clean: %llu commits checked, %llu faults "
              "injected, %llu bundle reconstructions verified\n",
              static_cast<unsigned long long>(n_seeds),
              static_cast<unsigned long long>(total_commits),
              static_cast<unsigned long long>(total_faults),
              static_cast<unsigned long long>(total_reconstructions));
  return 0;
}
