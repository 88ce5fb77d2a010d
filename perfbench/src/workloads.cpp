#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "bundle/bundle.hpp"
#include "common/block_tracer.hpp"
#include "common/merkle.hpp"
#include "common/rng.hpp"
#include "common/signature.hpp"
#include "core/experiment.hpp"
#include "erasure/stripe_codec.hpp"
#include "multizone/experiments.hpp"
#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"

namespace perfbench {

namespace rt = predis::runtime;
using predis::milliseconds;
using predis::seconds;

namespace {

constexpr WorkloadInfo kWorkloads[] = {
    {"ppbft-wall", true, false, 300'000.0, 3, 0.0, 10},
    {"ppbft-sim-overload", false, false, 30'000.0, 1, 0.8, 0},
    {"multizone-sim", false, true, 8'000.0, 1, 0.7, 0},
};

// Model-time shapes of the two sim workloads. One repetition costs
// 0.6-0.8 s of CPU on a 2 GHz x86 vCPU; the run repeats it. The
// overload warmup is short because in the collapse transactions
// submitted after ~3 s never commit: a longer warmup leaves no latency
// samples at all.
constexpr SimTime kOverloadDuration = seconds(8);
constexpr SimTime kOverloadWarmup = seconds(1);
constexpr SimTime kZoneDuration = seconds(8);
constexpr SimTime kZoneWarmup = seconds(3);
constexpr std::size_t kZoneFullNodes = 12;

// The wall workload's generation warmup (excluded from latency and
// throughput); the rest of the repetition is the measurement window.
// Its drain only has to outlast the ~10 ms commit tail.
constexpr double kWallWarmupShare = 0.2;
constexpr SimTime kWallDrain = milliseconds(500);

// Full width of the seed-derived offered-rate perturbation.
constexpr double kRateJitter = 0.01;

/// Samples the consensus nodes' uplink backlog every 100 ms of model
/// time from an ownerless timer on the inner backend. It is armed in
/// traced and untraced runs alike, so both see the same event stream.
struct BacklogSampler {
  rt::Runtime* net = nullptr;
  std::vector<NodeId> nodes;
  SimTime max_backlog = 0;

  void arm() {
    (void)net->schedule(predis::kNoNode, milliseconds(100), [this] {
      for (NodeId id : nodes) {
        max_backlog = std::max(max_backlog, net->uplink_backlog(id));
      }
      arm();
    });
  }
};

/// The seed's offered rate: nominal +- 0.5 %, so each seed is a
/// slightly different input (the deterministic sim would otherwise
/// replay one seed's timings for every seed) while the workload keeps
/// its shape. The sweep's explicit rate is used as given.
double offered_rate(const WorkloadInfo& w, const RepOptions& opt) {
  if (opt.offered_tps) return *opt.offered_tps;
  predis::Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
  const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  return w.offered_tps * (1.0 + (u - 0.5) * kRateJitter);
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Records the client probe's results on `out` and returns their
/// fingerprint (counts and the exact latency sum) for the model digest.
std::string take_client_data(const ProbeRuntime& probe, RepResult& out) {
  ClientData c = probe.client_data();
  double sum = 0.0;
  for (double v : c.latency_ms) sum += v;
  out.submitted = c.submitted;
  out.replied = c.replied;
  const std::string fp = std::to_string(c.submitted) + "/" +
                         std::to_string(c.replied) + "/" +
                         std::to_string(c.latency_ms.size()) + "/" + fmt17(sum);
  out.commit = summarize(std::move(c.latency_ms));
  return fp;
}

void run_cluster_rep(const WorkloadInfo& w, const RepOptions& opt,
                     RepResult& out) {
  predis::core::ClusterConfig cfg;
  cfg.protocol = predis::core::Protocol::kPredisPbft;
  cfg.wan = false;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_clients = 8;
  cfg.offered_load_tps = offered_rate(w, opt);
  cfg.seed = opt.seed;
  if (w.wall) {
    cfg.duration = static_cast<SimTime>(opt.seconds * 1e9);
    cfg.warmup = static_cast<SimTime>(opt.seconds * kWallWarmupShare * 1e9);
    cfg.drain = kWallDrain;
  } else {
    cfg.duration = kOverloadDuration;
    cfg.warmup = kOverloadWarmup;
  }

  std::unique_ptr<rt::ThreadRuntime> threads;
  std::unique_ptr<rt::SimRuntime> sim;
  rt::Runtime* backend = nullptr;
  if (w.wall) {
    rt::ThreadRuntimeConfig tcfg;
    tcfg.clock = rt::ClockMode::kWall;
    tcfg.workers = w.workers;
    tcfg.latency = rt::lan_latency();
    threads = std::make_unique<rt::ThreadRuntime>(tcfg);
    backend = threads.get();
  } else {
    sim = std::make_unique<rt::SimRuntime>(rt::lan_latency());
    backend = &sim->runtime();
  }

  BacklogSampler sampler;
  ProbeRuntime probe(*backend, opt.traced, w.wall);
  probe.set_record_from(cfg.warmup);
  if (opt.setup_only) probe.abort_at_start();
  cfg.ctx.backend = &probe;
  cfg.ctx.on_network_ready = [&](rt::Runtime&,
                                 const std::vector<NodeId>& consensus,
                                 const std::vector<NodeId>&) {
    probe.set_consensus_nodes(consensus);
    if (!w.wall) {
      sampler.net = &probe.inner();
      sampler.nodes = consensus;
      sampler.arm();
    }
  };

  probe.mark_runner_entry();
  predis::core::ClusterResult r;
  try {
    r = predis::core::run_cluster(cfg);
  } catch (const SetupOnly&) {
    out.setup_s = probe.setup_s();
    return;
  }
  const std::int64_t returned = mono_ns();

  out.consistent = r.consistent && r.ledgers_consistent;
  out.commit_tps = r.throughput_tps;
  const std::string clients = take_client_data(probe, out);
  out.runner_p50_ms = r.p50_latency_ms;
  out.blocks = r.ledger_blocks_max;
  out.offered_tps = cfg.offered_load_tps;
  out.load_window_s = predis::to_seconds(cfg.duration);
  out.setup_s = probe.setup_s();
  out.cpu_s = probe.cpu_s();
  out.run_wall_s = probe.run_wall_s();
  out.collect_s = static_cast<double>(returned - probe.run_end_ns()) * 1e-9;
  if (sim) {
    out.sim_events = sim->simulator().events_executed();
    out.model_s = predis::to_seconds(sim->simulator().now());
    out.uplink_backlog_max_ms =
        static_cast<double>(sampler.max_backlog) * 1e-6;
    out.model_digest = r.commit_digest + "/" + clients;
  }
  if (opt.traced) out.trace = probe.trace_data();
}

void run_zone_rep(const WorkloadInfo& w, const RepOptions& opt,
                  RepResult& out) {
  predis::multizone::ThroughputConfig cfg;
  cfg.topology = predis::multizone::Topology::kMultiZone;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.n_full = kZoneFullNodes;
  cfg.n_zones = 3;
  cfg.offered_load_tps = offered_rate(w, opt);
  cfg.duration = kZoneDuration;
  cfg.warmup = kZoneWarmup;
  cfg.seed = opt.seed;
  cfg.real_stripe_payloads = true;
  // Reconstruction times come only from the block tracer.
  predis::BlockTracer tracer(cfg.n_consensus - cfg.f);
  cfg.ctx.tracer = &tracer;

  BacklogSampler sampler;
  rt::SimRuntime sim(rt::lan_latency());
  ProbeRuntime probe(sim.runtime(), opt.traced, false);
  // The runner starts clients after the join churn settles; mirror its
  // measurement window.
  const SimTime setup =
      static_cast<SimTime>(cfg.n_full) * milliseconds(120) + milliseconds(1500);
  probe.set_record_from(setup + cfg.warmup);
  if (opt.setup_only) probe.abort_at_start();
  cfg.ctx.backend = &probe;
  cfg.ctx.on_network_ready = [&](rt::Runtime&,
                                 const std::vector<NodeId>& consensus,
                                 const std::vector<NodeId>&) {
    probe.set_consensus_nodes(consensus);
    sampler.net = &probe.inner();
    sampler.nodes = consensus;
    sampler.arm();
  };

  probe.mark_runner_entry();
  predis::multizone::ThroughputResult r;
  try {
    r = predis::multizone::run_distribution_cluster(cfg);
  } catch (const SetupOnly&) {
    out.setup_s = probe.setup_s();
    return;
  }
  const std::int64_t returned = mono_ns();

  out.consistent = r.consistent;
  out.commit_tps = r.throughput_tps;
  const std::string clients = take_client_data(probe, out);
  const auto stages = tracer.stage_samples();
  if (const auto it = stages.find("distribution"); it != stages.end()) {
    out.reconstruct = summarize(it->second.samples());
  }
  out.coverage = r.full_node_coverage;
  out.blocks = r.last_executed_max;
  out.offered_tps = cfg.offered_load_tps;
  out.load_window_s = predis::to_seconds(cfg.duration);
  out.setup_s = probe.setup_s();
  out.cpu_s = probe.cpu_s();
  out.run_wall_s = probe.run_wall_s();
  out.collect_s = static_cast<double>(returned - probe.run_end_ns()) * 1e-9;
  out.sim_events = sim.simulator().events_executed();
  out.model_s = predis::to_seconds(sim.simulator().now());
  out.uplink_backlog_max_ms = static_cast<double>(sampler.max_backlog) * 1e-6;
  out.model_digest =
      predis::to_hex(tracer.digest()) + "/" + fmt17(r.throughput_tps) + "/" +
      fmt17(r.avg_latency_ms) + "/" + fmt17(r.full_node_coverage) + "/" +
      std::to_string(r.consensus_bytes_sent) + "/" +
      std::to_string(r.consensus_bytes_received) + "/" +
      std::to_string(r.last_executed_min) + "/" +
      std::to_string(r.last_executed_max) + "/" +
      std::to_string(r.view_changes) + "/" +
      std::to_string(r.relayers_seen) + "/" + clients;
  if (opt.traced) out.trace = probe.trace_data();
}

}  // namespace

std::optional<WorkloadInfo> find_workload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

RepResult run_rep(const WorkloadInfo& w, const RepOptions& opt) {
  RepResult out;
  if (w.multizone) {
    run_zone_rep(w, opt, out);
  } else {
    run_cluster_rep(w, opt, out);
  }
  return out;
}

// --- Per-layer metrics ----------------------------------------------------

std::map<std::string, std::optional<double>> layer_metrics(
    const WorkloadInfo& w, const RepResult& rep) {
  std::map<std::string, std::optional<double>> m;
  if (!rep.trace) return m;
  const TraceData& t = *rep.trace;
  const std::vector<std::int64_t> self = self_times(t.spans);

  const auto role_of = [&](NodeId id) {
    return id < t.roles.size() ? t.roles[id] : Role::kOther;
  };
  const auto per = [](double num, double den) -> std::optional<double> {
    if (den <= 0.0) return std::nullopt;
    return num / den;
  };
  std::uint64_t dispatches = 0;
  double top_ns = 0.0;
  double send_ns = 0.0;
  std::uint64_t send_calls = 0;
  std::vector<double> layer_self(kLayerCount, 0.0);
  std::vector<double> name_self(name_count(), 0.0);
  double consensus_timer_ns = 0.0;
  double full_node_ns = 0.0;
  const auto timer = static_cast<std::uint16_t>(Pseudo::kTimer);
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    const auto ns = static_cast<double>(self[i]);
    layer_self[s.layer] += ns;
    name_self[s.name] += ns;
    if (s.nested) {
      ++send_calls;
      send_ns += static_cast<double>(s.duration());
      continue;
    }
    ++dispatches;
    top_ns += static_cast<double>(s.duration());
    if (s.name == timer && role_of(s.node) == Role::kConsensus) {
      consensus_timer_ns += ns;
    }
    if (role_of(s.node) == Role::kFull) full_node_ns += ns;
  }

  const double txs = static_cast<double>(rep.replied);
  const double blocks = static_cast<double>(rep.blocks);
  const auto& n = t.names;
  const auto copies = [&](const char* name) {
    return static_cast<double>(n[name_id(name)].copies);
  };
  // Message copies of the pbft layer, and of Multi-Zone control traffic
  // (everything but stripe/block data and repair pulls).
  double pbft_copies = 0.0;
  double control = 0.0;
  for (std::size_t i = 0; i < n.size(); ++i) {
    const auto nid = static_cast<std::uint16_t>(i);
    const std::string_view nm = name_of(nid);
    if (layer_of_name(nid) == Layer::kPbft) {
      pbft_copies += static_cast<double>(n[i].copies);
    } else if (layer_of_name(nid) == Layer::kMultizone && nm != "Stripe" &&
               nm != "PredisBlock" && nm != "FullBlock" &&
               nm != "BundlePush" && nm != "BundlePull" && nm != "BundleMiss") {
      control += static_cast<double>(n[i].copies);
    }
  }

  // runtime
  m["runtime.dispatches"] = static_cast<double>(dispatches);
  const Sorted wait(t.mailbox_wait_ns);
  const Sorted lag(t.timer_lag_ns);
  if (w.wall) {
    const auto us = [](std::optional<double> ns) -> std::optional<double> {
      if (!ns) return std::nullopt;
      return *ns * 1e-3;
    };
    m["runtime.mailbox_wait_p50_us"] = us(wait.at(50));
    m["runtime.mailbox_wait_p99_us"] = us(wait.reportable(99));
    m["runtime.timer_lag_p99_us"] = us(lag.reportable(99));
  } else {
    // The deterministic loop has no mailboxes and fires timers on time.
    m["runtime.mailbox_wait_p50_us"] = std::nullopt;
    m["runtime.mailbox_wait_p99_us"] = std::nullopt;
    m["runtime.timer_lag_p99_us"] = std::nullopt;
  }
  m["runtime.busy_frac"] =
      per(top_ns * 1e-9, static_cast<double>(w.workers) * rep.run_wall_s);
  m["runtime.send_ns_mean"] = per(send_ns, static_cast<double>(send_calls));

  // sim
  if (w.wall) {
    for (const char* k : {"sim.events", "sim.events_per_cpu_s",
                          "sim.model_s_per_cpu_s", "sim.loop_self_frac",
                          "sim.uplink_backlog_max_ms"}) {
      m[k] = std::nullopt;
    }
  } else {
    m["sim.events"] = static_cast<double>(rep.sim_events);
    m["sim.events_per_cpu_s"] =
        per(static_cast<double>(rep.sim_events), rep.cpu_s);
    m["sim.model_s_per_cpu_s"] = per(rep.model_s, rep.cpu_s);
    m["sim.loop_self_frac"] =
        per(rep.run_wall_s - top_ns * 1e-9, rep.run_wall_s);
    m["sim.uplink_backlog_max_ms"] = rep.uplink_backlog_max_ms;
  }

  // txpool
  m["txpool.request_ns_per_tx"] = per(name_self[name_id("ClientRequest")], txs);
  m["txpool.reply_ns_per_tx"] = per(name_self[name_id("ClientReply")], txs);
  if (w.wall) {
    const Sorted gen(t.client_lag_ns);
    const auto p99 = gen.reportable(99);
    m["txpool.gen_lag_p99_ms"] =
        p99 ? std::optional<double>(*p99 * 1e-6) : std::nullopt;
  } else {
    m["txpool.gen_lag_p99_ms"] = std::nullopt;
  }

  // predis + consensus timers
  const double bundles = copies("Bundle");
  m["predis.bundle_msgs"] = bundles;
  m["predis.bundle_bytes_per_tx"] =
      per(static_cast<double>(n[name_id("Bundle")].bytes), txs);
  m["predis.handler_ns_per_tx"] =
      per(layer_self[static_cast<std::size_t>(Layer::kPredis)], txs);
  m["predis.fetch_per_bundle"] = per(copies("BundleFetch"), bundles);
  m["consensus.timer_ns_per_tx"] = per(consensus_timer_ns, txs);

  // pbft
  m["pbft.msgs_per_block"] = per(pbft_copies, blocks);
  m["pbft.handler_ns_per_block"] =
      per(layer_self[static_cast<std::size_t>(Layer::kPbft)], blocks);
  m["pbft.preprepare_bytes_per_block"] =
      per(static_cast<double>(n[name_id("PrePrepare")].bytes), blocks);
  m["pbft.view_changes"] = static_cast<double>(n[name_id("ViewChange")].sends);

  // multizone
  if (w.multizone) {
    const double pulls = copies("BundlePull");
    m["multizone.stripe_msgs_per_block"] = per(copies("Stripe"), blocks);
    m["multizone.full_node_ns_per_tx"] = per(full_node_ns, txs);
    m["multizone.pull_msgs"] = pulls;
    m["multizone.pull_miss_ratio"] = per(copies("BundleMiss"), pulls);
    double down = 0.0;
    for (const NameCounters& c : n) down += static_cast<double>(c.full_node_bytes);
    m["multizone.downlink_bytes_per_tx"] = per(down, txs);
    m["multizone.control_msgs"] = control;
  } else {
    for (const char* k :
         {"multizone.stripe_msgs_per_block", "multizone.full_node_ns_per_tx",
          "multizone.pull_msgs", "multizone.pull_miss_ratio",
          "multizone.downlink_bytes_per_tx", "multizone.control_msgs"}) {
      m[k] = std::nullopt;
    }
  }

  m["core.collect_s"] = rep.collect_s;
  return m;
}

// --- Kernel probes ----------------------------------------------------------

namespace {

/// Median ns per call of `fn` over 5 batches of ~20 ms each.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::size_t calls = 0;
    const std::int64_t t0 = mono_ns();
    std::int64_t t1 = t0;
    do {
      for (int i = 0; i < 16; ++i) fn();
      calls += 16;
      t1 = mono_ns();
    } while (t1 - t0 < 20'000'000);
    batches.push_back(static_cast<double>(t1 - t0) /
                      static_cast<double>(calls));
  }
  return *median(std::move(batches));
}

}  // namespace

std::map<std::string, std::optional<double>> kernel_probes() {
  // The workloads' shapes: 50-transaction bundles of 512-byte
  // transactions, (k = n_c − f = 3, n = n_c = 4) stripes.
  constexpr std::size_t kBundleTxs = 50;
  predis::Rng rng(7);
  std::vector<predis::Transaction> txs(kBundleTxs);
  for (std::size_t i = 0; i < kBundleTxs; ++i) {
    txs[i].client = 100;
    txs[i].seq = i;
    txs[i].size = 512;
    txs[i].payload_seed = rng.next();
  }
  const predis::KeyPair key = predis::KeyPair::from_seed(0);
  const predis::Bundle bundle =
      predis::make_bundle(0, 1, predis::kZeroHash, {1}, txs, key);
  const predis::erasure::StripeCodec codec(3, 4);
  predis::erasure::StripeCodec::Encoded enc;
  codec.encode_into(bundle, enc);
  std::vector<std::optional<predis::erasure::Stripe>> partial(
      enc.stripes.begin(), enc.stripes.end());
  partial[0].reset();  // Decode from k of n, as a full node does.
  std::vector<predis::Hash32> leaves;
  for (const auto& tx : txs) leaves.push_back(tx.id());
  const predis::Bytes signed_bytes = bundle.header.signing_bytes();

  volatile std::size_t sink = 0;
  std::map<std::string, std::optional<double>> m;
  m["erasure.encode_ns"] = ns_per_call([&] {
    codec.encode_into(bundle, enc);
    sink = sink + enc.stripes.size();
  });
  m["erasure.decode_ns"] = ns_per_call([&] {
    const auto b = codec.try_decode(partial);
    sink = sink + (b ? 1 : 0);
  });
  std::size_t next = 0;
  m["erasure.verify_ns"] = ns_per_call([&] {
    const auto& s = enc.stripes[next++ % enc.stripes.size()];
    sink = sink + (predis::erasure::StripeCodec::verify(s, enc.stripe_root) ? 1 : 0);
  });
  m["common.tx_id_ns"] = ns_per_call([&] {
    sink = sink + txs[next++ % kBundleTxs].id()[0];
  });
  m["common.merkle_root_ns"] = ns_per_call([&] {
    sink = sink + predis::MerkleTree::root_of(leaves)[0];
  });
  m["common.sig_verify_ns"] = ns_per_call([&] {
    sink = sink + (predis::verify(key.public_key(),
                                  predis::BytesView{signed_bytes},
                                  bundle.header.signature)
                       ? 1
                       : 0);
  });
  return m;
}

bool write_spans_csv(const TraceData& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::int64_t> self = self_times(trace.spans);
  out << "id,parent,nested,layer,name,node,start_ns,end_ns,self_ns\n";
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const Span& s = trace.spans[i];
    out << s.id << ',' << s.parent << ',' << (s.nested ? 1 : 0) << ','
        << to_string(static_cast<Layer>(s.layer)) << ',' << name_of(s.name)
        << ',' << s.node << ',' << s.start_ns << ',' << s.end_ns << ','
        << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
