// predis-lint: allow-file(D2): this wall-clock backend is the one place
// outside benchmarks where real time is the product — every other
// module still gets its time exclusively through Runtime::now().
#include "runtime/thread_runtime.hpp"

#include <algorithm>
#include <stdexcept>

namespace predis::runtime {

namespace {
std::chrono::nanoseconds to_chrono(SimTime t) {
  return std::chrono::nanoseconds(t);
}
}  // namespace

ThreadRuntime::ThreadRuntime(ThreadRuntimeConfig config)
    : cfg_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {
  const std::size_t n = cfg_.workers == 0 ? 1 : cfg_.workers;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  timer_thread_ = std::thread([this] { timer_loop(); });
}

ThreadRuntime::~ThreadRuntime() {
  {
    std::lock_guard<std::mutex> lk(ready_m_);
    stopping_ = true;
  }
  {
    std::lock_guard<std::mutex> lk(timer_m_);
    // stopping_ is read under ready_m_ by workers and under timer_m_
    // here purely as a wakeup; the flag itself is only written once.
  }
  ready_cv_.notify_all();
  timer_cv_.notify_all();
  for (auto& w : workers_) w.join();
  if (timer_thread_.joinable()) timer_thread_.join();
}

NodeId ThreadRuntime::add_node(const NodeConfig& config) {
  if (config.region >= cfg_.latency.regions()) {
    throw std::invalid_argument("ThreadRuntime::add_node: unknown region");
  }
  if (config.up_bw <= 0 || config.down_bw <= 0) {
    throw std::invalid_argument(
        "ThreadRuntime::add_node: non-positive bandwidth");
  }
  auto mb = std::make_unique<Mailbox>();
  mb->config = config;
  mailboxes_.push_back(std::move(mb));
  return static_cast<NodeId>(mailboxes_.size() - 1);
}

void ThreadRuntime::attach(NodeId id, Actor* actor) {
  Mailbox& mb = *mailboxes_.at(id);
  std::lock_guard<std::mutex> lk(mb.m);
  mb.actor = actor;
}

std::size_t ThreadRuntime::node_count() const { return mailboxes_.size(); }

std::uint32_t ThreadRuntime::region_of(NodeId id) const {
  return mailboxes_.at(id)->config.region;
}

SimTime ThreadRuntime::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TimerHandle ThreadRuntime::schedule(NodeId owner, SimTime delay,
                                    std::function<void()> fn) {
  if (delay < 0) {
    throw std::invalid_argument("ThreadRuntime::schedule: negative delay");
  }
  auto alive = std::make_shared<std::atomic<bool>>(true);
  {
    std::lock_guard<std::mutex> lk(timer_m_);
    timer_q_.push(
        TimerEvent{now() + delay, timer_seq_++, owner, std::move(fn), alive});
  }
  timer_cv_.notify_one();
  return TimerHandle{std::move(alive)};
}

void ThreadRuntime::send(NodeId from, NodeId to, MsgPtr msg) {
  if (from >= mailboxes_.size() || to >= mailboxes_.size()) {
    throw std::out_of_range("ThreadRuntime::send: unknown node");
  }
  const std::size_t size = msg->wire_size() + kTransportOverhead;
  {
    Mailbox& src = *mailboxes_[from];
    std::lock_guard<std::mutex> lk(src.m);
    if (src.down) {
      ++src.stats.messages_dropped;
      return;
    }
    src.stats.bytes_sent += size;
    ++src.stats.messages_sent;
  }
  {
    std::lock_guard<std::mutex> lk(hooks_m_);
    if (drop_filter_ && drop_filter_(from, to, *msg)) return;
  }
  Item item;
  item.from = from;
  item.msg = std::move(msg);
  item.size = size;
  enqueue_item(to, std::move(item));
}

void ThreadRuntime::multicast(NodeId from, const std::vector<NodeId>& to,
                              const MsgPtr& msg) {
  for (NodeId dest : to) {
    if (dest == from) continue;
    send(from, dest, msg);
  }
}

void ThreadRuntime::enqueue_item(NodeId to, Item item) {
  Mailbox& dst = *mailboxes_.at(to);
  bool need_ready = false;
  {
    std::lock_guard<std::mutex> lk(dst.m);
    if (item.msg != nullptr && dst.down) return;
    dst.q.push_back(std::move(item));
    if (!dst.active) {
      dst.active = true;
      need_ready = true;
    }
  }
  if (need_ready) {
    {
      std::lock_guard<std::mutex> lk(ready_m_);
      ready_.push_back(to);
    }
    ready_cv_.notify_one();
  }
}

void ThreadRuntime::start() {
  // Fire on_start in id order on the calling thread, with the worker
  // gate still closed: traffic generated here piles up in mailboxes
  // and the run begins atomically when the gate opens below (the
  // release of ready_m_ is what publishes all on_start writes to the
  // workers).
  for (auto& mb : mailboxes_) {
    Actor* actor = nullptr;
    {
      std::lock_guard<std::mutex> lk(mb->m);
      if (!mb->down) actor = mb->actor;
    }
    if (actor != nullptr) actor->on_start();
  }
  {
    std::lock_guard<std::mutex> lk(ready_m_);
    running_ = true;
  }
  ready_cv_.notify_all();
  timer_cv_.notify_all();
}

void ThreadRuntime::run_until(SimTime limit) {
  draining_.store(false, std::memory_order_relaxed);
  std::this_thread::sleep_until(epoch_ + to_chrono(limit));
  // Deadline passed: stop firing timers (heartbeats would otherwise
  // re-arm forever) and wait for in-flight message cascades to die
  // out, so the caller can read shared run state without racing.
  draining_.store(true, std::memory_order_relaxed);
  const auto give_up =
      std::chrono::steady_clock::now() + to_chrono(cfg_.drain_grace);
  while (!quiescent() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool ThreadRuntime::quiescent() {
  for (auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lk(mb->m);
    if (mb->active || !mb->q.empty()) return false;
  }
  std::lock_guard<std::mutex> lk(ready_m_);
  return ready_.empty();
}

void ThreadRuntime::worker_loop() {
  for (;;) {
    NodeId idx = kNoNode;
    {
      std::unique_lock<std::mutex> lk(ready_m_);
      ready_cv_.wait(
          lk, [this] { return stopping_ || (running_ && !ready_.empty()); });
      if (stopping_) return;
      idx = ready_.front();
      ready_.pop_front();
    }
    drain_mailbox(idx);
  }
}

void ThreadRuntime::drain_mailbox(NodeId id) {
  Mailbox& mb = *mailboxes_[id];
  for (;;) {
    std::deque<Item> batch;
    {
      std::lock_guard<std::mutex> lk(mb.m);
      if (mb.q.empty()) {
        mb.active = false;
        return;
      }
      batch.swap(mb.q);
    }
    for (Item& item : batch) dispatch(mb, item);
  }
}

void ThreadRuntime::dispatch(Mailbox& mb, Item& item) {
  if (item.msg == nullptr) {
    // Timer task routed through the owner's mailbox: consume the
    // liveness flag exactly once (a cancel() racing this exchange
    // either wins — flag already false — or loses cleanly).
    if (item.alive != nullptr &&
        !item.alive->exchange(false, std::memory_order_relaxed)) {
      return;
    }
    item.task();
    return;
  }
  Actor* actor = nullptr;
  {
    std::lock_guard<std::mutex> lk(mb.m);
    if (mb.down || mb.actor == nullptr) return;
    mb.stats.bytes_received += item.size;
    ++mb.stats.messages_received;
    actor = mb.actor;
  }
  actor->on_message(item.from, item.msg);
}

void ThreadRuntime::timer_loop() {
  std::unique_lock<std::mutex> lk(timer_m_);
  for (;;) {
    if (stopping_read()) return;
    if (timer_q_.empty()) {
      timer_cv_.wait(lk);
      continue;
    }
    const auto deadline = epoch_ + to_chrono(timer_q_.top().deadline);
    if (std::chrono::steady_clock::now() < deadline) {
      timer_cv_.wait_until(lk, deadline);
      continue;
    }
    TimerEvent ev = timer_q_.top();
    timer_q_.pop();
    lk.unlock();
    if (!draining_.load(std::memory_order_relaxed)) {
      if (ev.owner == kNoNode) {
        // Harness callback: runs on the wheel thread; consume the flag.
        if (ev.alive->exchange(false, std::memory_order_relaxed)) ev.fn();
      } else {
        Item item;
        item.task = std::move(ev.fn);
        item.alive = std::move(ev.alive);
        enqueue_item(ev.owner, std::move(item));
      }
    }
    lk.lock();
  }
}

bool ThreadRuntime::stopping_read() {
  // stopping_ is written once under ready_m_; reading it under that
  // mutex keeps the timer loop race-free without an extra atomic.
  std::lock_guard<std::mutex> lk(ready_m_);
  return stopping_;
}

void ThreadRuntime::set_node_down(NodeId id, bool down) {
  Mailbox& mb = *mailboxes_.at(id);
  bool restarting = false;
  Actor* actor = nullptr;
  {
    std::lock_guard<std::mutex> lk(mb.m);
    restarting = mb.down && !down;
    mb.down = down;
    if (down) {
      // Drop only queued *messages*: traffic that arrived before the
      // outage must not be processed after it. Queued timer tasks stay
      // — each is a link of a self-rearming tick chain (production,
      // packing, heartbeats) that dispatch() runs regardless of down
      // state; clearing one here used to sever the chain for the rest
      // of the run, so a node that went down with a tick in its
      // mailbox never produced again after restart.
      mb.q.erase(std::remove_if(mb.q.begin(), mb.q.end(),
                                [](const Item& item) {
                                  return item.msg != nullptr;
                                }),
                 mb.q.end());
    }
    actor = mb.actor;
  }
  if (restarting && actor != nullptr) {
    // Serialize the restart hook with the node's other callbacks.
    Item item;
    item.task = [actor] { actor->on_restart(); };
    item.alive = std::make_shared<std::atomic<bool>>(true);
    enqueue_item(id, std::move(item));
  }
}

void ThreadRuntime::notify_reconnect(NodeId id) {
  Mailbox& mb = *mailboxes_.at(id);
  Actor* actor = nullptr;
  {
    std::lock_guard<std::mutex> lk(mb.m);
    actor = mb.down ? nullptr : mb.actor;
  }
  if (actor != nullptr) {
    Item item;
    item.task = [actor] { actor->on_restart(); };
    item.alive = std::make_shared<std::atomic<bool>>(true);
    enqueue_item(id, std::move(item));
  }
}

bool ThreadRuntime::is_down(NodeId id) const {
  Mailbox& mb = *mailboxes_.at(id);
  std::lock_guard<std::mutex> lk(mb.m);
  return mb.down;
}

void ThreadRuntime::set_drop_filter(DropFilter filter) {
  std::lock_guard<std::mutex> lk(hooks_m_);
  drop_filter_ = std::move(filter);
}

// No modeled propagation delay to add to: refuse a delay hook rather
// than run a throttle or jitter campaign that silently injects nothing.
void ThreadRuntime::set_extra_delay(DelayFn fn) {
  if (fn) {
    throw std::logic_error(
        "ThreadRuntime::set_extra_delay: no delay model on the wall "
        "backend; throttle and jitter faults need the sim backend");
  }
}

// No deterministic delivery order to fold.
void ThreadRuntime::set_tracer(TraceHasher*) {}

TrafficStats ThreadRuntime::stats(NodeId id) const {
  Mailbox& mb = *mailboxes_.at(id);
  std::lock_guard<std::mutex> lk(mb.m);
  return mb.stats;
}

SimTime ThreadRuntime::uplink_backlog(NodeId) const {
  return 0;  // No bandwidth model: real queues are the backpressure.
}

std::uint64_t ThreadRuntime::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lk(mb->m);
    total += mb->stats.bytes_sent;
  }
  return total;
}

}  // namespace predis::runtime
