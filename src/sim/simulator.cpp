#include "sim/simulator.hpp"

#include <stdexcept>

namespace predis::sim {

runtime::TimerHandle Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  auto alive = std::make_shared<std::atomic<bool>>(true);
  queue_.push(Event{t, next_seq_++, std::move(fn), alive});
  return runtime::TimerHandle{std::move(alive)};
}

runtime::TimerHandle Simulator::schedule_after(SimTime delay,
                                               std::function<void()> fn) {
  if (delay < 0) {
    throw std::invalid_argument("Simulator::schedule_after: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

std::size_t Simulator::run_until(SimTime limit) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.top().time <= limit) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    if (ev.alive->exchange(false, std::memory_order_relaxed)) {
      ev.fn();
      ++n;
      ++executed_;
    }
  }
  if (now_ < limit) now_ = limit;
  return n;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    if (ev.alive->exchange(false, std::memory_order_relaxed)) {
      ev.fn();
      ++n;
      ++executed_;
    }
  }
  return n;
}

}  // namespace predis::sim
