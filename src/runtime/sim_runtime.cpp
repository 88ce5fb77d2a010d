#include "runtime/sim_runtime.hpp"

#include <stdexcept>

namespace predis::runtime {

TimerHandle SimRuntime::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) {
    throw std::invalid_argument("SimRuntime::schedule_at: time in the past");
  }
  auto alive = std::make_shared<std::atomic<bool>>(true);
  queue_.push(Event{t, next_seq_++, std::move(fn), alive});
  return TimerHandle{std::move(alive)};
}

TimerHandle SimRuntime::schedule(NodeId /*owner*/, SimTime delay,
                                 std::function<void()> fn) {
  if (delay < 0) {
    throw std::invalid_argument("SimRuntime::schedule: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

void SimRuntime::send(NodeId from, NodeId to, MsgPtr msg) {
  const auto plan = links_.plan_send(from, to, *msg, now_);
  if (!plan.deliver) return;
  schedule_at(plan.at,
              [this, from, to, msg = std::move(msg), size = plan.size]() {
                Actor* actor =
                    links_.complete_delivery(from, to, size, now_, *msg);
                if (actor != nullptr) actor->on_message(from, msg);
              });
}

void SimRuntime::run_until(SimTime limit) {
  while (!queue_.empty() && queue_.top().time <= limit) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    if (ev.alive->exchange(false, std::memory_order_relaxed)) {
      ev.fn();
      ++executed_;
    }
  }
  if (now_ < limit) now_ = limit;
}

}  // namespace predis::runtime
