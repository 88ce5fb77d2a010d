#include "runtime/faults.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace predis::runtime {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kPairPartition:
      return "pair-partition";
    case FaultKind::kZonePartition:
      return "zone-partition";
    case FaultKind::kJitter:
      return "jitter";
    case FaultKind::kDrops:
      return "drops";
    case FaultKind::kEquivocate:
      return "equivocate";
    case FaultKind::kThrottle:
      return "throttle";
    case FaultKind::kWithhold:
      return "withhold";
    case FaultKind::kGarbage:
      return "garbage";
    case FaultKind::kChurnStorm:
      return "churn-storm";
    case FaultKind::kPartition:
      return "partition";
  }
  return "?";
}

// A kind missing from the switch above fails -Wswitch (-Werror in CI);
// a kind added without bumping the count fails here.
static_assert(static_cast<std::size_t>(FaultKind::kPartition) + 1 ==
                  kFaultKindCount,
              "kFaultKindCount out of sync with FaultKind");

FaultScheduler::FaultScheduler(Runtime& net, std::vector<NodeId> targets,
                               FaultPlanConfig config)
    : net_(net),
      targets_(std::move(targets)),
      cfg_(config),
      rng_(config.seed ^ 0xfa1175c0de0001ULL),
      drop_rng_(config.seed * 0x9e3779b97f4a7c15ULL + 1) {
  withhold_names_.insert(cfg_.withhold_names.begin(),
                         cfg_.withhold_names.end());
  build_plan();
}

bool FaultScheduler::is_target(NodeId id) const {
  return std::find(targets_.begin(), targets_.end(), id) != targets_.end();
}

void FaultScheduler::build_plan() {
  if (targets_.empty() || cfg_.horizon <= cfg_.start) return;

  std::vector<FaultKind> kinds;
  if (cfg_.crashes) kinds.push_back(FaultKind::kCrash);
  if (cfg_.pair_partitions && targets_.size() >= 2) {
    kinds.push_back(FaultKind::kPairPartition);
  }
  if (cfg_.zone_partitions && targets_.size() >= 2) {
    kinds.push_back(FaultKind::kZonePartition);
  }
  if (cfg_.jitter) kinds.push_back(FaultKind::kJitter);
  if (cfg_.drops) kinds.push_back(FaultKind::kDrops);
  if (cfg_.equivocation) kinds.push_back(FaultKind::kEquivocate);
  if (cfg_.throttle) kinds.push_back(FaultKind::kThrottle);
  if (cfg_.withhold) kinds.push_back(FaultKind::kWithhold);
  if (cfg_.garbage) kinds.push_back(FaultKind::kGarbage);
  if (cfg_.churn_storms) kinds.push_back(FaultKind::kChurnStorm);
  if (cfg_.partitions && targets_.size() >= 2) {
    kinds.push_back(FaultKind::kPartition);
  }
  if (kinds.empty()) return;

  const auto is_adversarial = [](FaultKind k) {
    return k == FaultKind::kEquivocate || k == FaultKind::kThrottle ||
           k == FaultKind::kWithhold || k == FaultKind::kGarbage;
  };

  // Per-node planned downtime intervals, for the crash-concurrency cap.
  std::vector<std::pair<SimTime, SimTime>> crash_windows;
  std::set<NodeId> crashed_nodes;
  std::set<NodeId> equivocators;
  std::set<NodeId> throttled;
  std::set<NodeId> withholders;
  std::set<NodeId> injectors;

  const auto window_range =
      static_cast<std::uint64_t>(cfg_.max_window - cfg_.min_window + 1);

  for (std::size_t e = 0; e < cfg_.events; ++e) {
    FaultEvent ev;
    ev.at = cfg_.start + static_cast<SimTime>(rng_.next_below(
                             static_cast<std::uint64_t>(cfg_.horizon -
                                                        cfg_.start)));
    ev.window = cfg_.min_window +
                static_cast<SimTime>(rng_.next_below(window_range));
    ev.kind = kinds[rng_.next_below(kinds.size())];
    ev.a = targets_[rng_.next_below(targets_.size())];
    if (cfg_.pin_node < targets_.size() && is_adversarial(ev.kind)) {
      ev.a = targets_[cfg_.pin_node];
    }

    switch (ev.kind) {
      case FaultKind::kCrash: {
        std::size_t overlapping = 0;
        for (const auto& [from, to] : crash_windows) {
          if (ev.at < to && from < ev.at + ev.window) ++overlapping;
        }
        // Cap concurrent downtime (and repeated crashes of one node,
        // whose restart timers would interleave confusingly): demote
        // the event to jitter instead of dropping it, so every seed
        // still schedules exactly cfg_.events faults.
        if (overlapping >= cfg_.max_crashed ||
            crashed_nodes.count(ev.a) != 0) {
          ev.kind = FaultKind::kJitter;
          ev.jitter = 1 + static_cast<SimTime>(rng_.next_below(
                              static_cast<std::uint64_t>(cfg_.max_jitter)));
          break;
        }
        crash_windows.emplace_back(ev.at, ev.at + ev.window);
        crashed_nodes.insert(ev.a);
        break;
      }
      case FaultKind::kPairPartition: {
        ev.b = targets_[rng_.next_below(targets_.size())];
        while (ev.b == ev.a) {
          ev.b = targets_[(std::find(targets_.begin(), targets_.end(), ev.b) -
                           targets_.begin() + 1) %
                          targets_.size()];
        }
        break;
      }
      case FaultKind::kZonePartition: {
        // Cut one region off when the targets span several; otherwise a
        // random half (LAN clusters live in a single region).
        std::map<std::uint32_t, std::vector<NodeId>> by_region;
        for (NodeId id : targets_) by_region[net_.region_of(id)].push_back(id);
        if (by_region.size() >= 2) {
          auto it = by_region.begin();
          std::advance(it, rng_.next_below(by_region.size()));
          ev.side = it->second;
        } else {
          std::vector<NodeId> shuffled = targets_;
          rng_.shuffle(shuffled);
          shuffled.resize(std::max<std::size_t>(1, shuffled.size() / 2));
          std::sort(shuffled.begin(), shuffled.end());
          ev.side = std::move(shuffled);
        }
        break;
      }
      case FaultKind::kJitter: {
        ev.jitter = 1 + static_cast<SimTime>(rng_.next_below(
                            static_cast<std::uint64_t>(cfg_.max_jitter)));
        break;
      }
      case FaultKind::kDrops: {
        ev.p = rng_.next_double() * cfg_.max_drop_prob;
        break;
      }
      case FaultKind::kEquivocate: {
        if (equivocators.size() >= cfg_.max_equivocators &&
            equivocators.count(ev.a) == 0) {
          // Keep the Byzantine population <= f: demote to drops.
          ev.kind = FaultKind::kDrops;
          ev.p = rng_.next_double() * cfg_.max_drop_prob;
          break;
        }
        equivocators.insert(ev.a);
        ev.window = 0;  // equivocation does not heal
        break;
      }
      case FaultKind::kThrottle: {
        if (throttled.size() >= cfg_.max_throttled &&
            throttled.count(ev.a) == 0) {
          ev.kind = FaultKind::kJitter;
          ev.jitter = 1 + static_cast<SimTime>(rng_.next_below(
                              static_cast<std::uint64_t>(cfg_.max_jitter)));
          break;
        }
        throttled.insert(ev.a);
        ev.jitter = cfg_.throttle_delay;
        break;
      }
      case FaultKind::kWithhold: {
        if (withholders.size() >= cfg_.max_withholders &&
            withholders.count(ev.a) == 0) {
          // Keep the withholding population <= f: demote to drops.
          ev.kind = FaultKind::kDrops;
          ev.p = rng_.next_double() * cfg_.max_drop_prob;
          break;
        }
        withholders.insert(ev.a);
        break;
      }
      case FaultKind::kGarbage: {
        if (injectors.size() >= cfg_.max_garbage &&
            injectors.count(ev.a) == 0) {
          ev.kind = FaultKind::kDrops;
          ev.p = rng_.next_double() * cfg_.max_drop_prob;
          break;
        }
        injectors.insert(ev.a);
        break;
      }
      case FaultKind::kChurnStorm: {
        // A storm cycles a small shuffled subset; the nodes take their
        // down/up cycles back to back, so at most one storm member is
        // down at any instant and quorums of correct nodes survive.
        std::vector<NodeId> shuffled = targets_;
        rng_.shuffle(shuffled);
        shuffled.resize(std::min<std::size_t>(
            std::max<std::size_t>(1, cfg_.max_churn_nodes),
            shuffled.size()));
        std::sort(shuffled.begin(), shuffled.end());
        ev.side = std::move(shuffled);
        break;
      }
      case FaultKind::kPartition: {
        // Cut a shuffled minority (<= max_partition_nodes, never the
        // whole group) so the rest keeps quorum; the cut heals at
        // at + window and the minority must catch up.
        std::vector<NodeId> shuffled = targets_;
        rng_.shuffle(shuffled);
        const std::size_t cut = std::min(
            {std::max<std::size_t>(1, cfg_.max_partition_nodes),
             targets_.size() - 1});
        shuffled.resize(cut);
        std::sort(shuffled.begin(), shuffled.end());
        ev.side = std::move(shuffled);
        break;
      }
    }
    plan_.push_back(std::move(ev));
  }

  std::stable_sort(plan_.begin(), plan_.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  for (const FaultEvent& ev : plan_) {
    healed_by_ = std::max(healed_by_, ev.at + ev.window);
  }
}

void FaultScheduler::arm() {
  // Checked on the built events (a crash or throttle past its cap
  // becomes jitter), and first, so a backend that rejects the hook is
  // left unarmed.
  const bool delays = std::any_of(
      plan_.begin(), plan_.end(), [](const FaultEvent& ev) {
        return ev.kind == FaultKind::kJitter ||
               ev.kind == FaultKind::kThrottle;
      });
  if (delays) {
    net_.set_extra_delay(
        [this](NodeId from, NodeId to) { return extra_delay(from, to); });
  }
  net_.set_drop_filter([this](NodeId from, NodeId to, const Message& msg) {
    return should_drop(from, to, msg);
  });
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    // arm() runs before start(), i.e. at time 0, so the relative delay
    // equals the absolute plan time on every backend.
    net_.schedule_after(plan_[i].at - net_.now(),
                        [this, i] { apply(plan_[i]); });
  }
}

void FaultScheduler::apply(const FaultEvent& ev) {
  ++injected_;
  const SimTime now = net_.now();
  const SimTime until = ev.at + ev.window;
  // Only the hook-visible state is locked: runtime calls and harness
  // hooks may send, and a send consults should_drop().
  switch (ev.kind) {
    case FaultKind::kCrash: {
      net_.set_node_down(ev.a, true);
      net_.schedule_after(until - now, [this, node = ev.a] {
        net_.set_node_down(node, false);
      });
      break;
    }
    case FaultKind::kPairPartition: {
      std::lock_guard<std::mutex> lk(m_);
      pairs_.push_back({ev.a, ev.b, until});
      break;
    }
    case FaultKind::kZonePartition: {
      std::lock_guard<std::mutex> lk(m_);
      cuts_.push_back(
          {std::set<NodeId>(ev.side.begin(), ev.side.end()), until});
      break;
    }
    case FaultKind::kJitter: {
      std::lock_guard<std::mutex> lk(m_);
      jitter_max_ = now < jitter_until_ ? std::max(jitter_max_, ev.jitter)
                                        : ev.jitter;
      jitter_until_ = std::max(jitter_until_, until);
      break;
    }
    case FaultKind::kDrops: {
      std::lock_guard<std::mutex> lk(m_);
      drop_p_ = now < drop_until_ ? std::max(drop_p_, ev.p) : ev.p;
      drop_until_ = std::max(drop_until_, until);
      break;
    }
    case FaultKind::kEquivocate: {
      if (on_equivocate) on_equivocate(ev.a);
      break;
    }
    case FaultKind::kThrottle: {
      std::lock_guard<std::mutex> lk(m_);
      throttles_.push_back({ev.a, ev.jitter, until});
      break;
    }
    case FaultKind::kWithhold: {
      {
        std::lock_guard<std::mutex> lk(m_);
        withholds_.push_back({ev.a, until});
      }
      if (on_withhold) on_withhold(ev.a);
      break;
    }
    case FaultKind::kGarbage: {
      if (on_garbage) on_garbage(ev.a, ev.window);
      break;
    }
    case FaultKind::kChurnStorm: {
      const std::size_t cycles = std::max<std::size_t>(1, cfg_.churn_cycles);
      const std::size_t slots = ev.side.size() * cycles;
      const SimTime slot =
          std::max<SimTime>(1, ev.window / static_cast<SimTime>(slots));
      for (std::size_t k = 0; k < ev.side.size(); ++k) {
        for (std::size_t c = 0; c < cycles; ++c) {
          const SimTime down_at =
              ev.at + static_cast<SimTime>(k * cycles + c) * slot;
          const SimTime up_at = down_at + slot / 2;
          net_.schedule_after(down_at - ev.at, [this, node = ev.side[k]] {
            net_.set_node_down(node, true);
          });
          net_.schedule_after(up_at - ev.at, [this, node = ev.side[k]] {
            net_.set_node_down(node, false);
          });
        }
      }
      break;
    }
    case FaultKind::kPartition: {
      {
        std::lock_guard<std::mutex> lk(m_);
        cuts_.push_back(
            {std::set<NodeId>(ev.side.begin(), ev.side.end()), until});
      }
      // The cut side missed every message for the window; poke its
      // recovery path at heal time (crash restarts get the same hook
      // from set_node_down).
      net_.schedule_after(until - now, [this, side = ev.side] {
        for (NodeId node : side) net_.notify_reconnect(node);
      });
      break;
    }
  }
}

bool FaultScheduler::should_drop(NodeId from, NodeId to,
                                 const Message& msg) {
  if (!is_target(from) || !is_target(to)) return false;
  const SimTime now = net_.now();
  std::lock_guard<std::mutex> lk(m_);
  for (const ActiveWithhold& w : withholds_) {
    if (now >= w.until || from != w.node) continue;
    if (withhold_names_.count(msg.name()) != 0) return true;
  }
  for (const ActivePair& pair : pairs_) {
    if (now >= pair.until) continue;
    if ((from == pair.a && to == pair.b) || (from == pair.b && to == pair.a)) {
      return true;
    }
  }
  for (const ActiveCut& cut : cuts_) {
    if (now >= cut.until) continue;
    if ((cut.side.count(from) != 0) != (cut.side.count(to) != 0)) return true;
  }
  if (now < drop_until_ && drop_p_ > 0.0) return drop_rng_.chance(drop_p_);
  return false;
}

SimTime FaultScheduler::extra_delay(NodeId from, NodeId to) {
  if (!is_target(from) || !is_target(to)) return 0;
  const SimTime now = net_.now();
  std::lock_guard<std::mutex> lk(m_);
  SimTime delay = 0;
  for (const ActiveThrottle& t : throttles_) {
    if (now < t.until && from == t.node) delay = std::max(delay, t.delay);
  }
  if (jitter_max_ > 0 && now < jitter_until_) {
    delay += static_cast<SimTime>(
        drop_rng_.next_below(static_cast<std::uint64_t>(jitter_max_) + 1));
  }
  return delay;
}

std::string FaultScheduler::describe() const {
  std::ostringstream oss;
  for (const FaultEvent& ev : plan_) {
    oss << "  t=" << to_seconds(ev.at) << "s " << to_string(ev.kind);
    switch (ev.kind) {
      case FaultKind::kCrash:
      case FaultKind::kEquivocate:
      case FaultKind::kWithhold:
      case FaultKind::kGarbage:
        oss << " node " << ev.a;
        break;
      case FaultKind::kThrottle:
        oss << " node " << ev.a << " +" << to_milliseconds(ev.jitter)
            << "ms";
        break;
      case FaultKind::kPairPartition:
        oss << " " << ev.a << "<->" << ev.b;
        break;
      case FaultKind::kZonePartition:
      case FaultKind::kChurnStorm:
      case FaultKind::kPartition: {
        oss << " {";
        for (std::size_t i = 0; i < ev.side.size(); ++i) {
          oss << (i != 0 ? "," : "") << ev.side[i];
        }
        oss << "}";
        break;
      }
      case FaultKind::kJitter:
        oss << " <=" << to_milliseconds(ev.jitter) << "ms";
        break;
      case FaultKind::kDrops:
        oss << " p=" << ev.p;
        break;
    }
    if (ev.window > 0) oss << " for " << to_seconds(ev.window) << "s";
    oss << "\n";
  }
  return oss.str();
}

}  // namespace predis::runtime
