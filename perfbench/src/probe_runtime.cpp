#include "probe_runtime.hpp"

#include <atomic>
#include <chrono>
#include <ctime>
#include <unordered_map>

#include "txpool/client.hpp"
#include "txpool/transaction.hpp"

namespace perfbench {

namespace rt = predis::runtime;

// --- Names and layers ----------------------------------------------------

namespace {

struct NameEntry {
  const char* name;
  Layer layer;
};

// Order: the Pseudo names first (their ids are the enum values), then
// every Message::name() in the repository grouped by module.
constexpr NameEntry kNames[] = {
    {"(unknown)", Layer::kHarness},
    {"timer", Layer::kHarness},
    {"start", Layer::kHarness},
    {"restart", Layer::kHarness},
    {"send", Layer::kRuntime},
    {"multicast", Layer::kRuntime},
    // src/txpool
    {"ClientRequest", Layer::kTxpool},
    {"ClientReply", Layer::kTxpool},
    // src/consensus/predis + src/bundle
    {"Bundle", Layer::kPredis},
    {"BundleFetch", Layer::kPredis},
    {"BundleBatch", Layer::kPredis},
    {"TipsProbe", Layer::kPredis},
    {"TipsReply", Layer::kPredis},
    {"Conflict", Layer::kPredis},
    // src/consensus/pbft
    {"PrePrepare", Layer::kPbft},
    {"Prepare", Layer::kPbft},
    {"Commit", Layer::kPbft},
    {"ViewChange", Layer::kPbft},
    {"NewView", Layer::kPbft},
    {"Checkpoint", Layer::kPbft},
    {"StateRequest", Layer::kPbft},
    {"StateSnapshot", Layer::kPbft},
    {"CatchUpRequest", Layer::kPbft},
    {"CatchUpBatch", Layer::kPbft},
    // src/consensus/{hotstuff,narwhal}: not exercised by any workload.
    {"Microblock", Layer::kConsensus},
    {"MbAck", Layer::kConsensus},
    {"MbCert", Layer::kConsensus},
    {"MbFetch", Layer::kConsensus},
    {"MbBatch", Layer::kConsensus},
    {"HsProposal", Layer::kConsensus},
    {"HsVote", Layer::kConsensus},
    {"HsNewView", Layer::kConsensus},
    {"HsCatchUpRequest", Layer::kConsensus},
    {"HsBlockBatch", Layer::kConsensus},
    // src/multizone
    {"Stripe", Layer::kMultizone},
    {"PredisBlock", Layer::kMultizone},
    {"FullBlock", Layer::kMultizone},
    {"Subscribe", Layer::kMultizone},
    {"AcceptSubscribe", Layer::kMultizone},
    {"RejectSubscribe", Layer::kMultizone},
    {"Unsubscribe", Layer::kMultizone},
    {"RelayerAlive", Layer::kMultizone},
    {"GetRelayers", Layer::kMultizone},
    {"Relayers", Layer::kMultizone},
    {"BlockDigest", Layer::kMultizone},
    {"BlockPull", Layer::kMultizone},
    {"Leave", Layer::kMultizone},
    {"Heartbeat", Layer::kMultizone},
    {"Digest", Layer::kMultizone},
    {"DigestRequest", Layer::kMultizone},
    {"BundlePull", Layer::kMultizone},
    {"BundleMiss", Layer::kMultizone},
    {"BundlePush", Layer::kMultizone},
};
constexpr std::size_t kNameCount = sizeof(kNames) / sizeof(kNames[0]);

std::uint16_t lookup_slow(std::string_view name) {
  for (std::size_t i = 0; i < kNameCount; ++i) {
    if (name == kNames[i].name) return static_cast<std::uint16_t>(i);
  }
  return static_cast<std::uint16_t>(Pseudo::kUnknown);
}

/// Message::name() returns a string literal per type, so the pointer is
/// a cheap per-thread cache key in front of the string search.
std::uint16_t lookup_cached(const char* name) {
  thread_local std::unordered_map<const char*, std::uint16_t> cache;
  const auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  const std::uint16_t id = lookup_slow(name);
  cache.emplace(name, id);
  return id;
}

std::atomic<std::uint64_t> g_instances{0};

/// Carries the causing span and the send time alongside a message.
/// Backends only read wire_size() and name(), which pass through.
struct Envelope final : rt::Message {
  rt::MsgPtr inner;
  std::uint64_t parent = 0;
  SimTime sent_at = 0;

  std::size_t wire_size() const override { return inner->wire_size(); }
  const char* name() const override { return inner->name(); }
};

/// The span the current thread is executing (0 outside any callback).
thread_local std::uint64_t tls_current = 0;

}  // namespace

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kRuntime:
      return "runtime";
    case Layer::kTxpool:
      return "txpool";
    case Layer::kPredis:
      return "predis";
    case Layer::kPbft:
      return "pbft";
    case Layer::kConsensus:
      return "consensus";
    case Layer::kMultizone:
      return "multizone";
    case Layer::kHarness:
      return "harness";
  }
  return "?";
}

std::uint16_t name_id(std::string_view name) { return lookup_slow(name); }
const char* name_of(std::uint16_t id) {
  return id < kNameCount ? kNames[id].name : kNames[0].name;
}
std::size_t name_count() { return kNameCount; }
Layer layer_of_name(std::uint16_t id) {
  return id < kNameCount ? kNames[id].layer : Layer::kHarness;
}

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- Per-thread and per-client state -------------------------------------

struct ProbeRuntime::Shard {
  std::uint64_t id_base = 0;
  std::uint64_t next = 0;
  std::vector<Span> spans;
  std::vector<NameCounters> names = std::vector<NameCounters>(kNameCount);
  std::vector<double> mailbox_wait_ns;
  std::vector<double> timer_lag_ns;
  std::vector<double> client_lag_ns;

  std::uint64_t new_id() { return id_base | ++next; }
};

struct ProbeRuntime::ClientState {
  std::vector<SimTime> sent_at;  ///< By TxSeq (client-local, dense).
  std::vector<std::uint8_t> replied;
  std::uint64_t replied_count = 0;
  std::vector<double> latency_ms;
};

class ProbeRuntime::Proxy final : public rt::Actor {
 public:
  Proxy(ProbeRuntime& rt, NodeId self, rt::Actor* actor)
      : rt_(rt), self_(self), actor_(actor) {}

  void on_start() override {
    if (!rt_.traced_) return actor_->on_start();
    rt_.timed(self_, static_cast<std::uint16_t>(Pseudo::kStart),
              rt_.layer_of_role(self_), 0, false,
              [this] { actor_->on_start(); });
  }

  void on_message(NodeId from, const rt::MsgPtr& msg) override {
    rt_.deliver(self_, actor_, from, msg);
  }

  void on_restart() override {
    if (!rt_.traced_) return actor_->on_restart();
    rt_.timed(self_, static_cast<std::uint16_t>(Pseudo::kRestart),
              rt_.layer_of_role(self_), 0, false,
              [this] { actor_->on_restart(); });
  }

 private:
  ProbeRuntime& rt_;
  NodeId self_;
  rt::Actor* actor_;
};

// --- ProbeRuntime ------------------------------------------------------

ProbeRuntime::ProbeRuntime(rt::Runtime& inner, bool traced, bool wall_clock)
    : inner_(inner), traced_(traced), wall_(wall_clock),
      instance_(++g_instances) {}

ProbeRuntime::~ProbeRuntime() = default;

ProbeRuntime::Shard& ProbeRuntime::shard() {
  thread_local std::uint64_t owner = 0;
  thread_local Shard* cached = nullptr;
  if (owner != instance_) {
    std::lock_guard<std::mutex> lock(shards_m_);
    shards_.push_back(std::make_unique<Shard>());
    cached = shards_.back().get();
    cached->id_base = static_cast<std::uint64_t>(shards_.size()) << 40;
    owner = instance_;
  }
  return *cached;
}

Layer ProbeRuntime::layer_of_role(NodeId node) const {
  if (node >= roles_.size()) return Layer::kHarness;
  switch (roles_[node]) {
    case Role::kClient:
      return Layer::kTxpool;
    case Role::kConsensus:
      return Layer::kConsensus;
    case Role::kFull:
      return Layer::kMultizone;
    case Role::kOther:
      break;
  }
  return Layer::kHarness;
}

void ProbeRuntime::set_consensus_nodes(const std::vector<NodeId>& ids) {
  for (NodeId id : ids) roles_.at(id) = Role::kConsensus;
  for (Role& r : roles_) {
    if (r == Role::kOther) r = Role::kFull;
  }
}

void ProbeRuntime::mark_runner_entry() { entry_ns_ = mono_ns(); }

double ProbeRuntime::setup_s() const {
  return static_cast<double>(start_ns_ - entry_ns_) * 1e-9;
}
double ProbeRuntime::cpu_s() const { return cpu_end_s_ - cpu_start_s_; }
double ProbeRuntime::run_wall_s() const {
  return static_cast<double>(run_end_ns_ - start_ns_) * 1e-9;
}

NodeId ProbeRuntime::add_node(const rt::NodeConfig& config) {
  const NodeId id = inner_.add_node(config);
  if (roles_.size() <= id) {
    roles_.resize(id + 1, Role::kOther);
    clients_.resize(id + 1);
  }
  return id;
}

void ProbeRuntime::attach(NodeId id, rt::Actor* actor) {
  const bool client = dynamic_cast<predis::ClientActor*>(actor) != nullptr;
  if (client) {
    roles_.at(id) = Role::kClient;
    clients_.at(id) = std::make_unique<ClientState>();
  }
  if (!traced_ && !client) {
    inner_.attach(id, actor);
    return;
  }
  proxies_.push_back(std::make_unique<Proxy>(*this, id, actor));
  inner_.attach(id, proxies_.back().get());
}

template <typename Fn>
void ProbeRuntime::timed(NodeId node, std::uint16_t name, Layer layer,
                         std::uint64_t parent, bool nested, Fn&& fn) {
  Shard& s = shard();
  Span span;
  span.id = s.new_id();
  span.parent = parent;
  span.node = node;
  span.name = name;
  span.layer = static_cast<std::uint8_t>(layer);
  span.nested = nested;
  const std::uint64_t saved = tls_current;
  tls_current = span.id;
  span.start_ns = mono_ns();
  fn();
  span.end_ns = mono_ns();
  tls_current = saved;
  s.spans.push_back(span);
}

rt::TimerHandle ProbeRuntime::schedule(NodeId owner, SimTime delay,
                                       std::function<void()> fn) {
  if (!traced_) return inner_.schedule(owner, delay, std::move(fn));
  const std::uint64_t parent = tls_current;
  const SimTime due = inner_.now() + delay;
  return inner_.schedule(
      owner, delay, [this, owner, parent, due, fn = std::move(fn)] {
        const SimTime lag = inner_.now() - due;
        Shard& s = shard();
        s.timer_lag_ns.push_back(static_cast<double>(lag));
        if (owner < roles_.size() && roles_[owner] == Role::kClient) {
          s.client_lag_ns.push_back(static_cast<double>(lag));
        }
        timed(owner, static_cast<std::uint16_t>(Pseudo::kTimer),
              layer_of_role(owner), parent, false, fn);
      });
}

void ProbeRuntime::note_request(NodeId from, const rt::Message& msg) {
  if (from >= clients_.size() || !clients_[from]) return;
  const auto* req = dynamic_cast<const predis::ClientRequestMsg*>(&msg);
  if (req == nullptr) return;
  ClientState& c = *clients_[from];
  const SimTime now = inner_.now();
  for (const predis::Transaction& tx : req->txs) {
    if (tx.seq >= c.sent_at.size()) {
      c.sent_at.resize(tx.seq + 1, -1);
      c.replied.resize(tx.seq + 1, 0);
    }
    if (c.sent_at[tx.seq] < 0) c.sent_at[tx.seq] = now;
  }
}

void ProbeRuntime::note_reply(NodeId to, const rt::Message& msg) {
  const auto* reply = dynamic_cast<const predis::ClientReplyMsg*>(&msg);
  if (reply == nullptr) return;
  ClientState& c = *clients_[to];
  const SimTime now = inner_.now();
  for (predis::TxSeq seq : reply->seqs) {
    if (seq >= c.sent_at.size() || c.sent_at[seq] < 0 || c.replied[seq]) {
      continue;
    }
    c.replied[seq] = 1;
    ++c.replied_count;
    if (c.sent_at[seq] >= record_from_) {
      c.latency_ms.push_back(static_cast<double>(now - c.sent_at[seq]) * 1e-6);
    }
  }
}

rt::MsgPtr ProbeRuntime::wrap(const rt::MsgPtr& msg, std::size_t copies) {
  Shard& s = shard();
  NameCounters& n = s.names[lookup_cached(msg->name())];
  ++n.sends;
  n.copies += copies;
  n.bytes += copies * (msg->wire_size() + kTransportOverhead);
  auto env = std::make_shared<Envelope>();
  env->inner = msg;
  env->parent = tls_current;
  env->sent_at = inner_.now();
  return env;
}

void ProbeRuntime::send(NodeId from, NodeId to, rt::MsgPtr msg) {
  note_request(from, *msg);
  if (!traced_) return inner_.send(from, to, std::move(msg));
  rt::MsgPtr env = wrap(msg, 1);
  timed(from, static_cast<std::uint16_t>(Pseudo::kSend), Layer::kRuntime,
        tls_current, true, [&] { inner_.send(from, to, std::move(env)); });
}

void ProbeRuntime::multicast(NodeId from, const std::vector<NodeId>& to,
                             const rt::MsgPtr& msg) {
  note_request(from, *msg);
  if (!traced_) return inner_.multicast(from, to, msg);
  const rt::MsgPtr env = wrap(msg, to.size());
  timed(from, static_cast<std::uint16_t>(Pseudo::kMulticast), Layer::kRuntime,
        tls_current, true, [&] { inner_.multicast(from, to, env); });
}

void ProbeRuntime::deliver(NodeId self, rt::Actor* actor, NodeId from,
                           const rt::MsgPtr& msg) {
  if (!traced_) {
    actor->on_message(from, msg);
    note_reply(self, *msg);
    return;
  }
  const auto* env = dynamic_cast<const Envelope*>(msg.get());
  const rt::MsgPtr& real = env != nullptr ? env->inner : msg;
  const std::uint16_t name = lookup_cached(real->name());
  Shard& s = shard();
  if (self < roles_.size() && roles_[self] == Role::kFull) {
    s.names[name].full_node_bytes += real->wire_size() + kTransportOverhead;
  }
  if (wall_ && env != nullptr) {
    s.mailbox_wait_ns.push_back(
        static_cast<double>(inner_.now() - env->sent_at));
  }
  timed(self, name, layer_of_name(name), env != nullptr ? env->parent : 0,
        false, [&] { actor->on_message(from, real); });
  if (clients_[self]) note_reply(self, *real);
}

void ProbeRuntime::set_drop_filter(DropFilter filter) {
  if (!filter) return inner_.set_drop_filter(nullptr);
  inner_.set_drop_filter(
      [filter = std::move(filter)](NodeId from, NodeId to,
                                   const rt::Message& msg) {
        const auto* env = dynamic_cast<const Envelope*>(&msg);
        return filter(from, to, env != nullptr ? *env->inner : msg);
      });
}

void ProbeRuntime::start() {
  start_ns_ = mono_ns();
  if (abort_at_start_) throw SetupOnly{};
  cpu_start_s_ = process_cpu_s();
  inner_.start();
}

void ProbeRuntime::run_until(SimTime limit) {
  inner_.run_until(limit);
  cpu_end_s_ = process_cpu_s();
  run_end_ns_ = mono_ns();
}

ClientData ProbeRuntime::client_data() const {
  ClientData out;
  for (const auto& c : clients_) {
    if (!c) continue;
    for (SimTime t : c->sent_at) out.submitted += t >= 0 ? 1 : 0;
    out.replied += c->replied_count;
    out.latency_ms.insert(out.latency_ms.end(), c->latency_ms.begin(),
                          c->latency_ms.end());
  }
  return out;
}

TraceData ProbeRuntime::trace_data() const {
  TraceData out;
  out.names.resize(kNameCount);
  out.roles = roles_;
  std::lock_guard<std::mutex> lock(shards_m_);
  for (const auto& s : shards_) {
    out.spans.insert(out.spans.end(), s->spans.begin(), s->spans.end());
    for (std::size_t i = 0; i < kNameCount; ++i) {
      out.names[i].sends += s->names[i].sends;
      out.names[i].copies += s->names[i].copies;
      out.names[i].bytes += s->names[i].bytes;
      out.names[i].full_node_bytes += s->names[i].full_node_bytes;
    }
    out.mailbox_wait_ns.insert(out.mailbox_wait_ns.end(),
                               s->mailbox_wait_ns.begin(),
                               s->mailbox_wait_ns.end());
    out.timer_lag_ns.insert(out.timer_lag_ns.end(), s->timer_lag_ns.begin(),
                            s->timer_lag_ns.end());
    out.client_lag_ns.insert(out.client_lag_ns.end(), s->client_lag_ns.begin(),
                             s->client_lag_ns.end());
  }
  return out;
}

}  // namespace perfbench
