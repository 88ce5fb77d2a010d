// Cross-cutting experiment metrics: committed-transaction throughput,
// client-observed latency, block production, and aggregate bytes
// sent/received are recorded here by protocol engines and experiment
// drivers and read by the bench harness. (Per-node bandwidth lives in
// Runtime::stats(node); experiments fold it into these aggregate byte
// counters.)
//
// One Metrics object is shared by every node of a run. On the threaded
// Runtime backend those nodes record from different workers, so every
// method takes the internal lock; on the discrete-event backend the
// lock is uncontended and free in practice.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace predis {

class Metrics {
 public:
  /// A block/batch committed at `when` carrying `tx_count` transactions.
  void record_commit(SimTime when, std::size_t tx_count) {
    std::lock_guard<std::mutex> lock(m_);
    commits_.push_back({when, tx_count});
    committed_txs_ += tx_count;
  }

  /// Client-observed latencies (submit -> first reply) of the
  /// transactions one reply acknowledged, under a single lock.
  void record_latencies(const std::vector<SimTime>& latencies) {
    std::lock_guard<std::mutex> lock(m_);
    for (SimTime latency : latencies) latencies_.add(to_milliseconds(latency));
  }

  /// Count a transaction submitted by a client (offered load).
  void record_submitted(std::size_t n = 1) {
    std::lock_guard<std::mutex> lock(m_);
    submitted_txs_ += n;
  }

  /// Aggregate wire bytes (all nodes; dissemination + consensus).
  void record_bytes_sent(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(m_);
    bytes_sent_ += n;
  }
  void record_bytes_received(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(m_);
    bytes_received_ += n;
  }

  std::uint64_t committed_txs() const {
    std::lock_guard<std::mutex> lock(m_);
    return committed_txs_;
  }
  std::uint64_t submitted_txs() const {
    std::lock_guard<std::mutex> lock(m_);
    return submitted_txs_;
  }
  std::uint64_t bytes_sent() const {
    std::lock_guard<std::mutex> lock(m_);
    return bytes_sent_;
  }
  std::uint64_t bytes_received() const {
    std::lock_guard<std::mutex> lock(m_);
    return bytes_received_;
  }

  /// Committed transactions per second inside [from, to].
  double throughput_tps(SimTime from, SimTime to) const {
    if (to <= from) return 0.0;
    std::lock_guard<std::mutex> lock(m_);
    std::uint64_t n = 0;
    for (const auto& c : commits_) {
      if (c.when >= from && c.when <= to) n += c.tx_count;
    }
    return static_cast<double>(n) / to_seconds(to - from);
  }

  /// Latency distribution in milliseconds, as a snapshot copy. The old
  /// accessor returned a reference that escaped the lock, so a reader
  /// overlapping a recording worker raced the sample vector's growth;
  /// copying under the lock makes mid-run reads safe.
  Percentiles latencies() const {
    std::lock_guard<std::mutex> lock(m_);
    return latencies_;
  }

  /// Number of distinct commit events (blocks).
  std::size_t commit_events() const {
    std::lock_guard<std::mutex> lock(m_);
    return commits_.size();
  }

 private:
  struct Commit {
    SimTime when;
    std::size_t tx_count;
  };
  mutable std::mutex m_;
  std::vector<Commit> commits_ PREDIS_GUARDED_BY(m_);
  Percentiles latencies_ PREDIS_GUARDED_BY(m_);
  std::uint64_t committed_txs_ PREDIS_GUARDED_BY(m_) = 0;
  std::uint64_t submitted_txs_ PREDIS_GUARDED_BY(m_) = 0;
  std::uint64_t bytes_sent_ PREDIS_GUARDED_BY(m_) = 0;
  std::uint64_t bytes_received_ PREDIS_GUARDED_BY(m_) = 0;
};

}  // namespace predis
