// Regression (predis-lint D1): ClientActor::resubmit_overdue() walks
// pending_ and the resulting batches go straight on the wire, so the
// container's iteration order is protocol-visible: with an unordered
// container the emitted byte stream (hence the trace digest) would
// depend on the stdlib's hash layout instead of the seed. Resubmitted
// batches must arrive in strictly ascending seq order, and each
// resubmitted transaction must be the one first sent, field by field,
// so its id() is unchanged.
#include "txpool/client.hpp"

#include <gtest/gtest.h>

#include <map>

#include "runtime/environments.hpp"
#include "runtime/sim_runtime.hpp"

namespace predis {
namespace {

/// Records every ClientRequest batch it receives and never replies:
/// the censoring primary target, and the node the rotation reaches.
struct Recorder final : runtime::Actor {
  std::vector<std::vector<Transaction>> batches;
  void on_message(NodeId, const runtime::MsgPtr& msg) override {
    const auto* m = dynamic_cast<const ClientRequestMsg*>(msg.get());
    if (m != nullptr) batches.push_back(m->txs);
  }
};

TEST(ClientResubmitOrder, BatchesEmitSeqsInAscendingOrder) {
  runtime::SimRuntime backend(
      runtime::LatencyMatrix::uniform(1, milliseconds(5)));
  runtime::Runtime& net = backend.runtime();
  Metrics metrics;

  Recorder hole;
  const NodeId hole_id = net.add_node(runtime::node_100mbps(0));
  net.attach(hole_id, &hole);
  Recorder recorder;
  const NodeId rec_id = net.add_node(runtime::node_100mbps(0));
  net.attach(rec_id, &recorder);

  ClientConfig cfg;
  cfg.self = net.add_node(runtime::node_100mbps(0));
  cfg.targets = {hole_id};               // never replies -> all overdue
  cfg.all_consensus = {hole_id, rec_id};  // rotation reaches the recorder
  cfg.tx_per_second = 2000.0;
  cfg.stop_at = milliseconds(150);
  cfg.resubmit_timeout = milliseconds(200);
  cfg.seed = 11;
  ClientActor client(net, cfg, metrics);
  net.attach(cfg.self, &client);

  net.start();
  net.run_until(milliseconds(900));

  // Enough pending transactions that an unordered walk would provably
  // interleave seqs, and at least one batch actually reached us.
  EXPECT_GT(client.resubmissions(), 100u);
  ASSERT_FALSE(recorder.batches.empty());
  std::size_t largest = 0;
  for (const auto& batch : recorder.batches) {
    largest = std::max(largest, batch.size());
    for (std::size_t i = 1; i < batch.size(); ++i) {
      ASSERT_LT(batch[i - 1].seq, batch[i].seq)
          << "batch seqs out of order at position " << i;
    }
  }
  EXPECT_GE(largest, 50u);

  std::map<TxSeq, Transaction> first_sent;
  for (const auto& batch : hole.batches) {
    for (const auto& tx : batch) first_sent.emplace(tx.seq, tx);
  }
  for (const auto& batch : recorder.batches) {
    for (const auto& tx : batch) {
      const auto it = first_sent.find(tx.seq);
      ASSERT_NE(it, first_sent.end()) << "seq " << tx.seq;
      const Transaction& sent = it->second;
      EXPECT_EQ(tx.client, sent.client);
      EXPECT_EQ(tx.size, sent.size);
      EXPECT_EQ(tx.seq, sent.seq);
      EXPECT_EQ(tx.submitted_at, sent.submitted_at);
      EXPECT_EQ(tx.payload_seed, sent.payload_seed);
      EXPECT_EQ(tx.target_consensus, sent.target_consensus);
      EXPECT_EQ(tx.id(), sent.id());
    }
  }
}

}  // namespace
}  // namespace predis
