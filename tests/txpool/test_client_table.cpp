// ClientActor's pending table: a seq-ordered vector of the transactions
// a client sent, answered entries marked done and compacted away once
// they outnumber the live ones. Replies arrive out of order, twice, for
// seqs the client never issued and for seqs already compacted; each
// sent transaction's latency must be recorded exactly once, and
// unacked() must count exactly the unanswered ones.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"
#include "txpool/client.hpp"

namespace predis {
namespace {

/// Keeps every transaction it is sent, by seq; never replies.
struct Sink final : runtime::Actor {
  std::map<TxSeq, Transaction> sent;
  void on_message(NodeId, const runtime::MsgPtr& msg) override {
    const auto* m = dynamic_cast<const ClientRequestMsg*>(msg.get());
    if (m == nullptr) return;
    for (const auto& tx : m->txs) sent.emplace(tx.seq, tx);
  }
};

/// One client at 1000 tx/s in 5 ms batches (5 transactions a batch)
/// toward a Sink, until `stop_at`.
class ClientTable : public ::testing::Test {
 protected:
  explicit ClientTable(SimTime stop_at = milliseconds(50))
      : backend_(runtime::LatencyMatrix::uniform(1, milliseconds(1))) {
    sink_id_ = net().add_node(runtime::node_100mbps(0));
    net().attach(sink_id_, &sink_);
    ClientConfig cfg;
    cfg.self = net().add_node(runtime::node_100mbps(0));
    cfg.targets = {sink_id_};
    cfg.tx_per_second = 1000.0;
    cfg.stop_at = stop_at;
    cfg.seed = 3;
    client_ = std::make_unique<ClientActor>(net(), cfg, metrics_);
    net().attach(cfg.self, client_.get());
    net().start();
  }

  runtime::Runtime& net() { return backend_.runtime(); }

  void reply(std::vector<TxSeq> seqs) {
    auto msg = std::make_shared<ClientReplyMsg>();
    msg->seqs = std::move(seqs);
    client_->on_message(sink_id_, msg);
  }

  /// The latencies, sorted, that answering `seqs` now should record.
  std::vector<double> expected(const std::vector<TxSeq>& seqs) const {
    std::vector<double> out;
    for (TxSeq seq : seqs) {
      out.push_back(to_milliseconds(backend_.now() -
                                    sink_.sent.at(seq).submitted_at));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<double> recorded() const {
    std::vector<double> out = metrics_.latencies().samples();
    std::sort(out.begin(), out.end());
    return out;
  }

  runtime::SimRuntime backend_;
  Metrics metrics_;
  Sink sink_;
  NodeId sink_id_ = kNoNode;
  std::unique_ptr<ClientActor> client_;
};

TEST_F(ClientTable, OutOfOrderAndDuplicateRepliesRecordEachLatencyOnce) {
  net().run_until(milliseconds(100));
  ASSERT_EQ(sink_.sent.size(), 50u);
  ASSERT_EQ(client_->unacked(), 50u);

  reply({7, 3, 3, 40});
  reply({3, 7, 0});
  reply({40, 12, 0, 12});

  EXPECT_EQ(recorded(), expected({0, 3, 7, 12, 40}));
  EXPECT_EQ(client_->unacked(), 45u);
}

TEST_F(ClientTable, UnknownFutureAndCompactedSeqsAreIgnored) {
  net().run_until(milliseconds(100));
  ASSERT_EQ(sink_.sent.size(), 50u);

  // 30 answered of 50: dead entries outnumber live ones, so the
  // answered ones are compacted away.
  std::vector<TxSeq> first;
  for (TxSeq s = 0; s < 30; ++s) first.push_back(s);
  reply(first);
  ASSERT_EQ(client_->unacked(), 20u);
  const std::vector<double> after_first = recorded();
  ASSERT_EQ(after_first.size(), 30u);

  // Compacted (0, 5, 29), never issued (50 is the next seq, 1000 and
  // the largest seq far beyond it).
  reply({0, 5, 29, 50, 1000, std::numeric_limits<TxSeq>::max()});
  EXPECT_EQ(recorded(), after_first);
  EXPECT_EQ(client_->unacked(), 20u);

  // Answered but not compacted (2 dead < 18 live): still ignored.
  reply({30, 31});
  reply({31, 30, 29});
  EXPECT_EQ(recorded().size(), 32u);
  EXPECT_EQ(client_->unacked(), 18u);
}

class RunningClientTable : public ClientTable {
 protected:
  RunningClientTable() : ClientTable(milliseconds(200)) {}
};

TEST_F(RunningClientTable, UnackedIsTheLiveCountAfterMixedReplies) {
  // Replies interleaved with sending, each of twelve random seqs below
  // issued + 4 (repeats, seqs answered before, seqs not issued yet),
  // checked against a set model after every reply. The times are off
  // the 5 ms batch grid, so no batch is in flight at a check.
  Rng rng(17);
  std::set<TxSeq> answered;
  for (SimTime t = milliseconds(13); t <= milliseconds(253);
       t += milliseconds(10)) {
    net().run_until(t);
    const auto issued = static_cast<TxSeq>(sink_.sent.size());
    std::vector<TxSeq> seqs;
    for (std::size_t i = 0; i < 12; ++i) {
      seqs.push_back(rng.next_below(issued + 4));
    }
    std::vector<TxSeq> fresh;
    for (TxSeq s : seqs) {
      if (s < issued && answered.insert(s).second) fresh.push_back(s);
    }
    std::vector<double> want = recorded();
    for (double v : expected(fresh)) want.push_back(v);
    std::sort(want.begin(), want.end());

    reply(seqs);
    ASSERT_EQ(recorded(), want) << "at " << to_milliseconds(t) << " ms";
    ASSERT_EQ(client_->unacked(), issued - answered.size());
  }
  EXPECT_GT(answered.size(), 100u);
}

TEST(ClientConfigCheck, RejectsARateWithNoTransactionCount) {
  runtime::SimRuntime backend(
      runtime::LatencyMatrix::uniform(1, milliseconds(1)));
  Metrics metrics;
  ClientConfig cfg;
  cfg.self = backend.runtime().add_node(runtime::node_100mbps(0));
  for (const double rate : {-5.0, -0.001, std::nan(""),
                            std::numeric_limits<double>::infinity()}) {
    cfg.tx_per_second = rate;
    EXPECT_THROW({ ClientActor client(backend.runtime(), cfg, metrics); },
                 std::invalid_argument)
        << rate;
  }
  cfg.tx_per_second = 0.0;
  EXPECT_NO_THROW({ ClientActor client(backend.runtime(), cfg, metrics); });
}

}  // namespace
}  // namespace predis
